"""Reader contract: each reader checks its input once, as an array, and
leaves a file that breaks a rule to a per-line reader that words the error.

The bulk readers must give the per-line readers' outcome on every generated
file (the same values, or the same message), must read the pipeline's own
files without the per-line reader, and must hand out rows as checked by the
one-item constructors' rules.
"""

import re

import numpy as np
import pytest

from datacollective import coordination, sharing
from datacollective.coordination import read_portfolio_dir
from datacollective.errors import InvalidInputError
from datacollective.metrics import ConditionSnapshot
from datacollective.pipeline import ExperimentConfig, run_pipeline
from datacollective.sharing import (
    WEIGHT_TOL,
    SelectionVector,
    default_catalog,
    profile_csv_header,
    read_weight_profiles,
)

from helpers import read_plans_reference

GOLDEN = dict(n=24, steps=96, iterations=15, repetitions=4, master_seed=7)


def _refuse(*args, **kwargs):
    raise AssertionError("the per-line reader was called")


def _outcome(read, *args, **kwargs):
    try:
        return read(*args, **kwargs)
    except InvalidInputError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# .plans directories


def _reference_dir(directory, labels):
    paths = sorted(directory.glob("*.plans"))
    if not paths:
        return f"no .plans files under {directory}"
    return read_plans_reference(paths, labels)


def _plans_dir(rng, directory):
    """1 to 4 generated .plans files: mostly well-formed plans of one length,
    with a few broken bytes, lines, numbers and lengths, and now and then a
    .plans subdirectory."""
    directory.mkdir()
    odd = ["nan", "inf", "1.5", "-0.1", "abc", "", " 0.25", "1e-3", "-0", "1_0"]
    m = int(rng.choice([2, 3]))

    def number():
        if rng.random() < 0.03:
            return str(rng.choice(odd))
        return str(rng.choice(["0", "0.25", "0.5", "1", "1.0"]))

    for f in range(int(rng.integers(1, 5))):
        if rng.random() < 0.04:
            (directory / f"a{f}.plans").mkdir()
            continue
        size = m + int(rng.random() < 0.05)  # a file of another plan length
        lines = []
        for _ in range(int(rng.integers(0, 4))):
            r = rng.random()
            if r < 0.05:
                lines.append(["", "  ", "0.5 0.1,0.2"][int(rng.integers(0, 3))])
                continue
            k = size + int(r > 0.97) - int(0.95 < r <= 0.97)  # a ragged plan
            lines.append(f"{number()}:{','.join(number() for _ in range(max(k, 1)))}")
        end = str(rng.choice(["\n", "\r\n", "\r"]))
        data = (end.join(lines) + end * int(rng.random() < 0.8)).encode()
        r = rng.random()
        if data and r < 0.1:  # a NUL, a byte that is not UTF-8, a form feed
            at = int(rng.integers(0, len(data) + 1))
            data = data[:at] + [b"\0", b"\xff", b"\x0c"][int(r * 30)] + data[at:]
        (directory / f"a{f}.plans").write_bytes(data)


@pytest.mark.parametrize("seed", range(3))
def test_plans_reader_matches_the_line_by_line_reader(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    errors = 0
    for case in range(80):
        directory = tmp_path / str(case)
        _plans_dir(rng, directory)
        labels = [None, ["x"], ["x", "y", "z", "w"]][case % 3]
        expected = _reference_dir(directory, labels)
        loaded = _outcome(read_portfolio_dir, directory, labels=labels)
        if isinstance(expected, str):
            errors += 1
            assert loaded == expected
        else:
            assert [
                (p.agent_id, p.values.tolist(), p.costs.tolist(), list(p.labels))
                for p in loaded
            ] == expected
    assert 10 < errors < 70  # both outcomes are exercised


@pytest.mark.parametrize(
    "files, message",
    [
        ({"a.plans": b"0.5:0.5,0.5\n", "b.plans": b"0.5:0.5,\x000.5\n"},
         "b.plans:1: could not convert string to float: '\\x000.5'"),
        ({"a.plans": b"0.5:0.5\n\x000.5:0.5\n"},
         "a.plans:2: could not convert string to float: '\\x000.5'"),
        ({"a.plans": b"0.5:0.5\n\x00\n0.5:0.5\n"}, "a.plans:2: expected 'cost:v1,v2,...'"),
        ({"a.plans": b"0.5:0.5,0.5\n0.5:0.5\xff\n"}, "a.plans:2: not UTF-8 text"),
        ({"a.plans": b"0.5:0.5\n", "b.plans": b"0.5 0.5\n"}, "b.plans:1: expected 'cost:v1,v2,...'"),
        ({"a.plans": b"0.5:0.5\n", "b.plans": b"\n\n"}, "b.plans: agent 'b' has no plans"),
        ({"a.plans": b"0.5:0.5,1\n0.5:1\n"}, "a.plans:2: plan of length 1, but the first"),
        ({"a.plans": b"0.5:0.5\n", "b.plans": b"0.5:1,1\n"},
         "b.plans: plans of length 2, but a.plans has plans of length 1"),
        ({"a.plans": b"0.5:0.5,1.5\n"}, "a.plans:1: plan values must lie in [0, 1]"),
        ({"a.plans": b"-0.5:0.5,1\n"}, "a.plans:1: plan local cost must lie in [0, 1]"),
        ({"a.plans": b"0.5:nan,1\n"}, "a.plans:1: plan values must lie in [0, 1]"),
        ({"a.plans": b"0.5:0.5\n", "b.plans": None}, "b.plans: cannot read"),
        # a bad number before an unreadable file is the first error met
        ({"a.plans": b"0.5:x\n", "b.plans": b"\xff\n"}, "a.plans:1: could not convert"),
    ],
    ids=["nul", "nul-at-line-start", "nul-line", "not-utf8", "no-colon", "no-plans",
         "ragged", "two-lengths", "value-range", "cost-range", "nan", "subdirectory",
         "first-error-first"],
)
def test_plans_reader_names_the_first_error(tmp_path, files, message):
    for name, data in files.items():
        if data is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(data)
    expected = _reference_dir(tmp_path, None)
    with pytest.raises(InvalidInputError) as exc:
        read_portfolio_dir(tmp_path)
    assert str(exc.value) == expected
    assert str(exc.value).startswith(f"{tmp_path}/{message}")


@pytest.mark.parametrize("where", ["missing", "a file"])
def test_plans_reader_without_a_directory(tmp_path, where):
    directory = tmp_path / "plans"
    if where == "a file":
        directory.write_text("0.5:0.5\n")
    message = f"no .plans files under {directory}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        read_portfolio_dir(directory)


# ---------------------------------------------------------------------------
# Weight profiles


def _profile_rows(rng, catalog):
    """Generated profile rows: valid ones, ones whose criterion sum lies at
    or about the tolerance (and half of it) on either side, and rows with
    NaN, infinity, a non-number, a column too few or too many, or weights
    out of range (with or without the sums kept)."""
    k = catalog.k
    rows = []
    for i in range(40):
        crit = rng.random(k) + 0.1
        crit /= crit.sum()
        elems = [rng.random(q) + 0.1 for q in catalog.sizes]
        elems = [e / e.sum() for e in elems]
        r = rng.random()
        if r < 0.5:
            delta = float(rng.choice([WEIGHT_TOL, WEIGHT_TOL / 2]))
            delta *= float(rng.choice([-1, 1])) * (1 + float(rng.choice([-1, 0, 1])) * 1e-7)
            crit[-1] = 1.0 + delta - crit[:-1].sum()
            if rng.random() < 0.3:  # the same in an element group instead
                crit /= crit.sum()
                u = int(rng.integers(0, k))
                elems[u][-1] = 1.0 + delta - elems[u][:-1].sum()
        values = [repr(float(v)) for v in (*crit, *np.concatenate(elems))]
        if r > 0.9:
            bad = ["nan", "inf", "abc", "-1e-3", "1.01", "short", "long", "moved"]
            bad = bad[int(rng.integers(0, len(bad)))]
            if bad == "short":
                values = values[:-1]
            elif bad == "long":
                values.append("0.0")
            elif bad == "moved":  # two criterion weights out of [0, 1], the sum kept
                values[:2] = repr(float(crit[0]) + 1.5), repr(float(crit[1]) - 1.5)
            else:
                values[int(rng.integers(0, len(values)))] = bad
        rows.append(",".join([f"p{i}", *values]))
        if rng.random() < 0.05:
            rows.append("")
    return rows


def _profiles(result):
    if isinstance(result, str):
        return result
    return [
        (p.participant_id, p.criterion_weights.tobytes(),
         tuple(e.tobytes() for e in p.element_weights))
        for p in result
    ]


@pytest.mark.parametrize("seed", range(3))
def test_profiles_reader_matches_the_row_loop(tmp_path, catalog, seed):
    rng = np.random.default_rng(200 + seed)
    header = ",".join(profile_csv_header(catalog))
    rows = _profile_rows(rng, catalog)
    outcomes = set()
    for end in range(0, len(rows) + 1, 2):  # every prefix of the rows, so most files pass
        path = tmp_path / f"{end}.csv"
        path.write_text("\n".join([header, *rows[:end]]) + "\n")
        expected = _profiles(_outcome(sharing._read_profile_rows, path, catalog))
        assert _profiles(_outcome(read_weight_profiles, path, catalog)) == expected
        outcomes.add(isinstance(expected, str))
    assert outcomes == {False, True}


def test_profiles_at_the_tolerance_are_read_as_the_loop_reads_them(tmp_path, catalog):
    """Sums just inside and just outside WEIGHT_TOL: the row loop decides."""
    header = ",".join(profile_csv_header(catalog))
    elems = [repr(1 / q) if q != 3 else "0.25" for q in catalog.sizes for _ in range(q)]
    for delta in (WEIGHT_TOL / 2, WEIGHT_TOL * 0.999999, WEIGHT_TOL, WEIGHT_TOL * 1.000001):
        for sign in (-1, 1):
            crit = [0.25, 0.25, 0.5 + sign * delta]
            path = tmp_path / "profiles.csv"
            path.write_text(f"{header}\np0,{','.join(map(repr, crit))},{','.join(elems)}\n")
            expected = _profiles(_outcome(sharing._read_profile_rows, path, catalog))
            assert _profiles(_outcome(read_weight_profiles, path, catalog)) == expected


QUARTERS = ",".join(["0.25"] * 12)  # the element weights of the default catalog


@pytest.mark.parametrize(
    "weights, message",
    [
        (f"0.25,0.25,0.5,{QUARTERS},0.0", "wrong column count"),
        (f"1.25,-0.5,0.25,{QUARTERS}", "criterion weights must lie in [0, 1]"),
        (f"0.25,0.25,0.5,1.25,-0.25,0,0,{QUARTERS[20:]}",
         "element weights of criterion 1 out of [0, 1]"),
    ],
    ids=["extra-column", "criterion-range", "element-range"],
)
def test_profiles_reader_leaves_a_broken_last_row_to_the_loop(tmp_path, catalog, weights, message):
    """A column too many, or weights out of range whose sums still hold."""
    header = ",".join(profile_csv_header(catalog))
    path = tmp_path / "profiles.csv"
    path.write_text(f"{header}\np0,0.25,0.25,0.5,{QUARTERS}\np1,{weights}\n")
    with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        read_weight_profiles(path, catalog)


# ---------------------------------------------------------------------------
# The pipeline's own files need no per-line reader


def test_golden_portfolios_and_profiles_need_no_per_line_reader(tmp_path, monkeypatch):
    out = run_pipeline(ExperimentConfig(**GOLDEN, output_dir=str(tmp_path / "golden")))
    expected_plans = read_portfolio_dir(out / "portfolios", labels=["a", "b", "c"])
    expected_profiles = sharing._read_profile_rows(out / "profiles.csv", default_catalog())
    monkeypatch.setattr(coordination, "_plan_table_by_line", _refuse)
    monkeypatch.setattr(sharing, "_read_profile_rows", _refuse)
    plans = read_portfolio_dir(out / "portfolios", labels=["a", "b", "c"])
    assert [(p.agent_id, p.values.tobytes(), p.costs.tobytes(), p.labels) for p in plans] == [
        (p.agent_id, p.values.tobytes(), p.costs.tobytes(), p.labels) for p in expected_plans
    ]
    assert len(plans) == GOLDEN["n"]
    profiles = read_weight_profiles(out / "profiles.csv", default_catalog())
    assert _profiles(profiles) == _profiles(expected_profiles)


def test_portfolio_rows_skip_the_plan_checks(monkeypatch):
    portfolio = coordination.PlanPortfolio.from_arrays(
        "a", np.array([[0.0, 0.25], [1.0, 0.5]]), np.array([0.125, 0.75]), ["x", "y"]
    )
    monkeypatch.setattr(coordination.Plan, "__post_init__", _refuse)
    plans = portfolio.plans
    assert [(p.values.tolist(), p.local_cost, p.label) for p in plans] == [
        ([0.0, 0.25], 0.125, "x"), ([1.0, 0.5], 0.75, "y")
    ]
    assert all(type(p.local_cost) is float and not p.values.flags.writeable for p in plans)
    assert plans[1].values.base is not None  # a view of the portfolio's values


# ---------------------------------------------------------------------------
# Selection blocks: ConditionSnapshot checks SelectionVector's rules once on
# the whole block


@pytest.mark.parametrize(
    "block, z",
    [
        ([[1, 2], [2, 1]], 1),
        ([[1, 2], [2, 6]], 5),
        ([[1, 2], [0, 1]], 5),
        ([[], []], 5),
    ],
    ids=["one-level", "above-z", "below-1", "empty-rows"],
)
def test_selection_rows_raise_the_constructor_message(block, z):
    with pytest.raises(InvalidInputError) as expected:
        for row in block:
            SelectionVector(np.array(row, dtype=int), z)
    with pytest.raises(InvalidInputError) as exc:
        ConditionSnapshot("c", ("a", "b"), np.array(block, dtype=int), z)
    assert str(exc.value) == str(expected.value)
