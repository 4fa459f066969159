"""Golden artifacts: pinned SHA-256 of every file a small pipeline run writes.

The config is the one ``test_pipeline_determinism`` uses (n=24, 96 steps,
15 iterations x 4 repetitions, master seed 7), once with the default cost
weights and once with alpha=0.3, beta=0.2. A refactor or speed-up must leave
every hash unchanged; a change that alters an artifact on purpose updates the
hashes here and says why in CHANGES.md.
"""

import hashlib

import pytest

from datacollective.pipeline import ExperimentConfig, run_pipeline

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


@pytest.mark.parametrize(
    "weights, expected",
    [({}, PLAIN), ({"alpha": 0.3, "beta": 0.2}, WEIGHTED)],
    ids=["plain", "weighted"],
)
def test_artifact_hashes(tmp_path, weights, expected):
    config = ExperimentConfig(
        n=24, steps=96, iterations=15, repetitions=4,
        master_seed=7, output_dir=str(tmp_path), **weights,
    )
    root = run_pipeline(config)
    actual = {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
    assert actual == expected
