"""Golden artifacts: pinned SHA-256 of every file a small pipeline run writes.

The config is the one ``test_pipeline_determinism`` uses (n=24, 96 steps,
15 iterations x 4 repetitions, master seed 7), once with the default cost
weights, once with alpha=0.3, beta=0.2 and once with geometric rewards. A
refactor or speed-up must leave every hash unchanged; a change that alters an
artifact on purpose updates the hashes here and says why in CHANGES.md.
"""

import hashlib
from itertools import groupby

import numpy as np
import pytest

from datacollective import sharing
from datacollective.ingest import ingest
from datacollective.pipeline import ExperimentConfig, run_pipeline
from datacollective.population import CONDITIONS
from datacollective.retrieval import read_event_log
from datacollective.sharing import read_weight_profiles

GOLDEN = dict(n=24, steps=96, iterations=15, repetitions=4, master_seed=7)

PLAIN = {
    "conjoint_coefficients.csv":
        "5518bc8e504fcedc371c2482ed6ffcca681499b195e1eb3d76c3267b5dd69ec9",
    "coordination_runs.json":
        "7697024b4ff6656884f2d1761e6e1a6536acfc2d251beb8bd587ef6baae1423b",
    "coordination_summary.json":
        "6f0dff40380205ff7340b6f063de90a39f8abe0dffe95d58f8b2a534606b0978",
    "cost_trace.csv":
        "5a29a17c6c0ed7140bdd58a5291e51c1d79ca9046e9a524e2cde9a87c213c71b",
    "costs.csv":
        "3c15320ec3b0e44182f237b216315492dd0dbca7cc2e6fa26792c0237c789613",
    "evaluation.json":
        "72d8ecc3eacef65db98d4475c05dfe3ec9731f0b7834a6cbcee37dce8acaf08b",
    "events_intrinsic.csv":
        "9b2905a2c495594cd2e066a7c85a2b4dde95828441ba9129ede535b3645dfbc1",
    "events_rewarded1.csv":
        "50cfc7f24586a9183fffe38331e88bf043da877020f0407033bf7d326b99fba6",
    "events_rewarded2.csv":
        "bfe73e395996672cb6fdd9dcb868d48bf158ce673b487d310c9a064228606b08",
    "goal_high.csv":
        "33a89dbf54d05440dfa9305732a4b7e609953d0eb52cbe5596881cd9db50f12c",
    "goal_low.csv":
        "ef8cdd874b9cb8c960f1b9886619f2979952aeece9ea65162ee45761cedf6cf2",
    "goal_medium.csv":
        "2b530b30345cad1228e56115580efc49e0ac8c2f0ad3021bfe4fbff1678e1a2a",
    "goal_very_high.csv":
        "7a592344046610432d065cf0ed3bc28b34a1baa7c794c00df3326b039e1a2162",
    "goal_very_low.csv":
        "7c4b243be9deccccaa029eb4e7aacd8e0f49fb016f8fa4a8e2511e710ca0aace",
    "groups.json":
        "8c3aff4b2f29fdc93c9b8e1aff377661379b70bfc67170e6c8db94ff6bcc9a73",
    "manifest.json":
        "0efb42bb6f0f75e135e29706c98d079ddfefbf5497f1cb7b99bf8af6f4115b30",
    "mismatch_by_scenario.csv":
        "8b41f90a3039b89a03006bfbf612f2ee8ddf97dfa51257f7b4e3a29ff4e88262",
    "partworths.json":
        "f4ce3ac15402b660ce6b5e6a8607383b7eba23a2bec507ee86309c132c4b2a15",
    "portfolios/p0000.plans":
        "72c8012ff0cde8ab8d0ae23175ea11ea4898663d9cb17c9a03fad63255b8b22a",
    "portfolios/p0001.plans":
        "b9b9dd5a53b08d3e9a5e52c6be9613f3205066689cf930d0f04f270c8afc32fd",
    "portfolios/p0002.plans":
        "21eb25774e6cc49144a29b8efa4e0aa228f801fadc8d8174d0f014baeafb2237",
    "portfolios/p0003.plans":
        "fa284b28ea1d7c24fb60c1d19e6711b9141ab19b1fe793be8caebb3ef22f3f0f",
    "portfolios/p0004.plans":
        "f32ecdcfdfe890280a1dafb867026f4965dd3bfff80f0a2fdaaa8efbcdc132e6",
    "portfolios/p0005.plans":
        "23ef6250edf68d26125a82bf2311cbee23a96475dffe7d46f5d0a63255bc309b",
    "portfolios/p0006.plans":
        "00cb21a51f7d202dd31c4fe94013a67aaed15524746d68bd99c9bfdcb3b43106",
    "portfolios/p0007.plans":
        "dec5547ea5d57d06fc6afe790adbbdd91db01d723a0b9e7e9aabd85b0ce9486e",
    "portfolios/p0008.plans":
        "dd0f6f25fadfabd15ad37475c8e97f83f8f03ac667e8e39220f4b9d929bb27a5",
    "portfolios/p0009.plans":
        "3106373d01900a3f601a387f8ed0f195dc70f30242b7ffc512ef95bc1f33ff93",
    "portfolios/p0010.plans":
        "9103bafa467d44104d7a7083f4c2965e86f74f1c89e02e9c1080ac2db9eabf88",
    "portfolios/p0011.plans":
        "bb03b511d7172ac816aadbc8c48d2e66d9c9d39bc680ae2aad1bc98a2f9ed3be",
    "portfolios/p0012.plans":
        "38ce35935c96ecb49bd1bda047a872b96c739d6aed3f204bc2c29f8d9ad0fd37",
    "portfolios/p0013.plans":
        "faf0c0d7c3679328d74e9dc9e2dce71b9e5d01129098b46a5d9cd8a0dd1dd900",
    "portfolios/p0014.plans":
        "fee1b2c72f028036018a6ba6eed2a8a5a07ea6e70e7cce66f9e3753aa8f6712e",
    "portfolios/p0015.plans":
        "a125aebb27e94b684838e35f509e3be120068f785bae51fce691316d8fc9b984",
    "portfolios/p0016.plans":
        "df8ad0994e08eeae35919eaf27d6fca5db3fcf09fc23f404b075d5aa0d9dd806",
    "portfolios/p0017.plans":
        "1d8f431be78f21784cf5d61304da846e9284f2bccea62126af42a1a6d5415017",
    "portfolios/p0018.plans":
        "b6df7d26523cb6474dfabef1bd43dc9a2bf49ba45402ddbc89c74602f2c9507c",
    "portfolios/p0019.plans":
        "866f83df16b3bd2b74edd38c174a7be7bb1c60b72984dfbf2b0d43a123a07e08",
    "portfolios/p0020.plans":
        "079c19ee19ac992a21fa34d8fd75be322b5f3b20ed7d44b1ce037ef3aa6770e8",
    "portfolios/p0021.plans":
        "3dee4ec9772fefb0d5889c673f41c9d41a486731e2e64e12e3e7fb7a80bec4ea",
    "portfolios/p0022.plans":
        "6fe8d88fd0ce983a61c028e7dcaa5caea16aeeb7f5a058c6f06a32b1e5986c51",
    "portfolios/p0023.plans":
        "1a2c864a06e75638d9d3dc63c2b416634e6b954593c55c69ae2c6166db1afa8a",
    "privacy_by_scenario.csv":
        "2f49112052c9a14a175e640410fe7d88e3680faa49d67f1b250185e19631eb0b",
    "profiles.csv":
        "a02511ecb286d1dbf2aecff46f9176bf4226534875c63fef99a20389e20974a5",
    "response_intrinsic_privacy.csv":
        "9c3567a9b2136fb7b8f8fe3da89255abccac34790256d94435d88ec44ef3a24b",
    "selections.csv":
        "b4d28bc530739cb90d5adc170a704957ae867289abb9ae5f22c1c34dcb4fa504",
}

# Only the coordination artifacts (and the manifest listing them) depend on
# the cost weights.
WEIGHTED = {
    **PLAIN,
    "coordination_runs.json":
        "e4a4ba326761e44bf48d1673f95083e6d3967353bca03fdb0729439ae3b3cc23",
    "coordination_summary.json":
        "8a5bad28501da0fdfba4e9c964cbd96cf49450dc0be30f805e35fb6782f5fe5a",
    "cost_trace.csv":
        "49902a2a1f54aa2bd156f3a5986148b6869410800ac970e60bf14f0d3dea2715",
    "manifest.json":
        "a0efab1b0c61dcc1a3b3c92da5ee5e7608ff62c10b10d8243b6c89f5cc648a9f",
}

# Geometric rewards (pool = total budget) change every artifact the rewarded
# conditions reach; the intrinsic selections, goal signals and conjoint fit
# do not depend on the reward mode.
GEOMETRIC = {
    **PLAIN,
    "coordination_runs.json":
        "bfd157d93296d0791e7724d9cc6f478a0fcdb4aace9f1317ea7a9b30f9cdd000",
    "coordination_summary.json":
        "c96193da04a6ebef0cfa4002a284b48948e9640081dea4d8d001cb40c88272e7",
    "cost_trace.csv":
        "9e46e621a78e74e06bc7a72633b44f769487aa743e3e81b3a92424eab1adb909",
    "costs.csv":
        "8e7a697d8e3a9a576b09a98f6a42f6a65b4d2470ccc82473f2ac2b8565c7930b",
    "evaluation.json":
        "a0a698b09b0e454cc20582c2756da607fc9e0f3d1b008697bedf2452ddbce452",
    "events_intrinsic.csv":
        "2638800c3554b6dc5530ca5bb213f4b86d47de4e61a32410d21f320c23a84634",
    "events_rewarded1.csv":
        "3a1d3dec48ffa98bf6c69e1b473b55ff50c4e3d191e9c8576edcec40ef435c52",
    "events_rewarded2.csv":
        "c090edb5ac9ede00a263856a844dea45f9644fcc4f51f0154dea9181a5f34f1e",
    "manifest.json":
        "f2a7218fee5c86f9dfe48b61f6ddd831c575d26c4a95a419beba4d6da42e86d7",
    "mismatch_by_scenario.csv":
        "c20be7368524b7d9ef3e451a7e5227dc7bd42e3ef8c374164c4e829bc1f8bfeb",
    "portfolios/p0001.plans":
        "7c1753faa9d72e455192f7f5a27feeece35560a129275dae16fbff4d12588380",
    "portfolios/p0003.plans":
        "5a2496f39f4c361acf4b3c64511b718b558dfff65e566e215458af7d1944dc76",
    "portfolios/p0004.plans":
        "922613a1fb1a8c84905c87cda26a4c27cd9d57ebab9e84394fbe6b7b1b1ae93f",
    "portfolios/p0005.plans":
        "521369d98759ef0474cccb1b08f71da8a5f913b490c324b54044bfac9b0788e2",
    "portfolios/p0006.plans":
        "4d4cf8b162e5790b1457673c883da15359cda982e48a80a904737b8ae5975a9e",
    "portfolios/p0007.plans":
        "00a1da5d6ebf84e397082b285f934a21ddc416d9cb3c48fb5d9c42a68c474797",
    "portfolios/p0008.plans":
        "49995adbbe8377f253c6973fa74b457961c995ab42cb1713d4f4ca99414aee8f",
    "portfolios/p0009.plans":
        "3b940af17a80887a9b47a9bc3609ba9d93980e47671906ee14f09d4f6ca56968",
    "portfolios/p0010.plans":
        "b4a5d276183d180a133bc418430b06db423ae0c0282c02d604c1d2aa29d9d35b",
    "portfolios/p0013.plans":
        "208d8affbbe0d8d4fd7ec7b9a99c362b2229cb43fc9c3a53e7067f6539e8f0eb",
    "portfolios/p0014.plans":
        "dccc1fe6ed016816c43f5ede71e750cded8ac7042b7391b699f9e85dddf677cc",
    "portfolios/p0015.plans":
        "2cbdc3ca7b81957473ad93f2f11c524f51d99ecf5b4b0bf5003b8f2565369ad9",
    "portfolios/p0016.plans":
        "70c16a497d9a7f46a7f63df275c90cd4e2ae2126b64ccab2c95edea04d58f8b3",
    "portfolios/p0017.plans":
        "f79bcd9e46974604a3c38db7f73d76e96b5266128a155214f01fc083da2dcf4e",
    "portfolios/p0018.plans":
        "a7969bf5fd4bd4e3538eafd6d57d86ed641e28da90ba9a969086343aefac2803",
    "portfolios/p0019.plans":
        "e5cf2667359047a1a0ed17d7d8fa0562bf4bdce5e87759eaaa77ae071cc3690d",
    "portfolios/p0020.plans":
        "99f43ae5c4a711ef60644c79e9a9b7462d18094239621f885fb526d4d1947db7",
    "portfolios/p0021.plans":
        "e4a3974634442f92750b4d97129e1bab08c325ba2baa98e9f9c1b6cc146e5342",
    "portfolios/p0022.plans":
        "fbc3e35e4dadb6270d0dbe0ae2e3e67a6401b0f7407e351e8defc2de428130c8",
    "privacy_by_scenario.csv":
        "39ab3f04930b29bcbf4dfb8c2e27abacb673ea6ee5cb6d094615e268ce2376fb",
    "selections.csv":
        "b33f220eed7456ea3c0686dca780d6917290ddb0e33a17a9a8f9ee6d233d8975",
}


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({}, PLAIN),
        ({"alpha": 0.3, "beta": 0.2}, WEIGHTED),
        ({"reward_mode": "geometric"}, GEOMETRIC),
    ],
    ids=["plain", "weighted", "geometric"],
)
def test_artifact_hashes(tmp_path, overrides, expected):
    config = ExperimentConfig(**GOLDEN, output_dir=str(tmp_path), **overrides)
    assert _hashes(run_pipeline(config)) == expected


def test_no_stage_allocates_rewards_per_participant(tmp_path, monkeypatch):
    """Every stage prices choices from one batched reward table: with the
    one-profile allocation patched to raise, the golden run still writes
    the pinned artifacts."""

    def per_participant(*args, **kwargs):
        raise AssertionError("reward allocation for a single participant")

    monkeypatch.setattr(sharing, "max_rewards", per_participant)
    monkeypatch.setattr(sharing.RewardModel, "max_rewards", per_participant)
    config = ExperimentConfig(**GOLDEN, output_dir=str(tmp_path))
    assert _hashes(run_pipeline(config)) == PLAIN


def _hashes(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_event_logs_replay(tmp_path):
    """Each event log, read back, replays into the run's selections and
    balances: steps 1..k per participant, the last option per scenario is
    the selection in ``selections.csv``, and every logged balance is the
    balance of the replayed levels."""
    config = ExperimentConfig(**GOLDEN, output_dir=str(tmp_path))
    root = run_pipeline(config)
    catalog, reward_model, z = config.catalog(), config.reward_model(), config.z
    bundle, _ = ingest(root / "selections.csv", z=z)
    profiles = read_weight_profiles(root / "profiles.csv", catalog)
    rmax = {p.participant_id: reward_model.max_rewards(p, catalog) for p in profiles}
    for condition in CONDITIONS:
        selections = bundle.selection_vectors(condition, catalog.m, z)
        blocks = [
            (pid, list(rows))
            for pid, rows in groupby(
                read_event_log(root / f"events_{condition}.csv"),
                key=lambda e: e.participant_id,
            )
        ]
        # participant-major: one block per participant, in population order
        assert [pid for pid, _ in blocks] == sorted(selections)
        for pid, rows in blocks:
            assert [e.step for e in rows] == list(range(1, len(rows) + 1))
            levels = np.full(catalog.m, z)  # unanswered counts as share nothing
            for e in rows:
                levels[e.scenario_id - 1] = e.option
                privacy = ((levels - 1) / (z - 1)).mean()
                assert e.privacy_after == float(format(privacy, ".12g"))
                rewards = reward_model.option_rewards(rmax[pid], levels).sum()
                assert e.rewards_after == pytest.approx(rewards, rel=1e-9, abs=0)
            assert np.array_equal(levels, selections[pid].selections)
