"""In-memory spans for the traced benchmark run, recorded from outside.

``install`` rebinds every public function name that ``datacollective.pipeline``,
``population``, ``coordination`` and ``cli`` call through their module globals,
plus ``RewardModel.option_rewards`` and ``SelectionVector.__post_init__``, to a
wrapper that records a span: name, start, end, parent span and operation id.
Nothing under ``src/`` changes. Spans are recorded only while an operation is
open, so the benchmark's own checks never show up in them.

``layer_metrics`` turns the spans and a few counters kept by result hooks into
the per-layer metrics. Only the traced worker process installs the wrappers;
untraced timings are always taken on the unwrapped program.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

CALLER_MODULES = ("pipeline", "population", "coordination", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1  # no span is recorded outside an operation
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.pending_fallback = False

    def wrap(self, span_name: str, fn, hook=None):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        stack = self._stack

        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, idx)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# -- result hooks: counts that spans alone do not give ------------------------

def _on_simulate_condition(tracer, args, kwargs, result, idx):
    condition = kwargs.get("condition", args[1] if len(args) > 1 else None)
    kind = "intrinsic" if condition == "intrinsic" else "rewarded"
    tracer.samples[kind].append(tracer.end[idx] - tracer.start[idx])


def _on_retrieve_next(tracer, args, kwargs, result, idx):
    # simulate_condition asks again with the other goal when the first is
    # saturated; a second None ends the participant's reassessment early.
    if tracer.pending_fallback:
        tracer.pending_fallback = False
        tracer.counts["saturations" if result is None else "served"] += 1
    elif result is None:
        tracer.counts["goal_fallbacks"] += 1
        tracer.pending_fallback = True
    else:
        tracer.counts["served"] += 1


def _on_coordinate(tracer, args, kwargs, result, idx):
    for run in result:
        trace = run.cost_trace
        drops = np.flatnonzero(np.diff(trace) < 0)
        tracer.counts["agent_iterations"] += run.selections.size
        tracer.counts["iterations"] += trace.size
        tracer.counts["improving_iterations"] += int(drops[-1]) + 2 if drops.size else 1
        tracer.counts["plan_changes"] += int(np.count_nonzero(np.diff(run.selections, axis=0)))


def _on_ingest(tracer, args, kwargs, result, idx):
    tracer.counts["ingest_rows"] += result[1].total_rows


def _on_write_event_log(tracer, args, kwargs, result, idx):
    events = kwargs.get("events", args[1] if len(args) > 1 else ())
    tracer.counts["event_rows"] += len(events)


HOOKS = {
    "population.simulate_condition": _on_simulate_condition,
    "retrieval.retrieve_next": _on_retrieve_next,
    "coordination.coordinate": _on_coordinate,
    "ingest.ingest": _on_ingest,
    "retrieval.write_event_log": _on_write_event_log,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    """Rebind the public names the caller modules use; one wrapper per function."""
    from datacollective.sharing import RewardModel, SelectionVector

    wrappers = {}
    for modname in CALLER_MODULES:
        module = importlib.import_module(f"datacollective.{modname}")
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or not value.__module__.startswith("datacollective.")
            ):
                continue
            if value not in wrappers:
                name = span_name(value)
                wrappers[value] = tracer.wrap(name, value, HOOKS.get(name))
            setattr(module, attr, wrappers[value])
    RewardModel.option_rewards = tracer.wrap(
        "sharing.option_rewards", RewardModel.option_rewards
    )
    SelectionVector.__post_init__ = tracer.wrap(
        "sharing.SelectionVector", SelectionVector.__post_init__
    )


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer, unit_ops, unit_wall: float) -> dict[str, float]:
    """Per-layer metrics over every traced operation; the two shares are of
    the timed unit (operation ids ``unit_ops``), whose traced wall is ``unit_wall``."""
    a = tracer.arrays()
    names, parent, op = a["name"], a["parent"], a["op"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_time = dur - child_time
    modules = sorted({n.split(".", 1)[0] for n in tracer.names})
    module_ids = np.array(
        [modules.index(n.split(".", 1)[0]) for n in tracer.names], dtype=np.int64
    )
    module_of = module_ids[names]

    # A module's inclusive time counts only its outermost spans, so a module
    # function calling another of the same module is not counted twice.
    outermost = np.ones(dur.size, dtype=bool)
    above = [0] * dur.size  # bit set of the modules among a span's ancestors
    bits = (1 << module_of).tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            above[i] = above[p] | bits[p]
            outermost[i] = not above[i] & bits[i]

    def module_busy(module, only_ops=None):
        if module not in modules:
            return 0.0
        sel = outermost & (module_of == modules.index(module))
        if only_ops is not None:
            sel &= np.isin(op, list(only_ops))
        return float(dur[sel].sum())

    def mask(name):
        nid = tracer._ids.get(name)
        return names == nid if nid is not None else np.zeros(dur.size, dtype=bool)

    def calls(name):
        return int(mask(name).sum())

    def busy(name):
        return float(dur[mask(name)].sum())

    def per_call_us(name):
        n = calls(name)
        return busy(name) / n * 1e6 if n else 0.0

    def p50_us(kind):
        samples = tracer.samples.get(kind)
        return float(np.median(samples)) * 1e6 if samples else 0.0

    c = tracer.counts
    coordinate_s = busy("coordination.coordinate")
    coordinate_ids = np.flatnonzero(mask("coordination.coordinate"))
    standardize = mask("goals.standardize")
    cost_evals = int((standardize & np.isin(parent, coordinate_ids)).sum())
    ingest_s = busy("ingest.ingest")
    attempted = c["served"] + c["saturations"]
    cli_self = float(self_time[module_of == modules.index("cli")].sum())

    metrics = {
        "population.simulate_condition.calls": calls("population.simulate_condition"),
        "population.simulate_condition.s": busy("population.simulate_condition"),
        "population.simulate_condition.self_s": float(
            self_time[mask("population.simulate_condition")].sum()
        ),
        "population.intrinsic.us_p50": p50_us("intrinsic"),
        "population.rewarded.us_p50": p50_us("rewarded"),
        "population.generate_population.s": busy("population.generate_population"),
        "population.build_portfolios.s": busy("population.build_portfolios"),
        "population.unit_share": module_busy("population", unit_ops) / unit_wall,
        "retrieval.goal_fallbacks": c["goal_fallbacks"],
        "retrieval.served_frac": c["served"] / attempted if attempted else 0.0,
        "retrieval.write_event_log.s": busy("retrieval.write_event_log"),
        "retrieval.event_rows": c["event_rows"],
        "sharing.selection_vectors.built": calls("sharing.SelectionVector"),
        "goals.build_goal_signals.s": busy("goals.build_goal_signals"),
        "goals.standardize.calls": calls("goals.standardize"),
        "goals.standardize.s": busy("goals.standardize"),
        "coordination.coordinate.calls": calls("coordination.coordinate"),
        "coordination.coordinate.s": coordinate_s,
        "coordination.agent_iterations": c["agent_iterations"],
        "coordination.us_per_agent_iteration": (
            coordinate_s / c["agent_iterations"] * 1e6 if c["agent_iterations"] else 0.0
        ),
        "coordination.cost_evals": cost_evals,
        "coordination.us_per_cost_eval": coordinate_s / cost_evals * 1e6 if cost_evals else 0.0,
        "coordination.improving_iter_frac": (
            c["improving_iterations"] / c["iterations"] if c["iterations"] else 0.0
        ),
        "coordination.plan_changes": c["plan_changes"],
        "coordination.read_portfolio_dir.s": busy("coordination.read_portfolio_dir"),
        "coordination.write_portfolio_dir.s": busy("coordination.write_portfolio_dir"),
        "coordination.unit_share": module_busy("coordination", unit_ops) / unit_wall,
        "ingest.ingest.calls": calls("ingest.ingest"),
        "ingest.ingest.s": ingest_s,
        "ingest.rows": c["ingest_rows"],
        "ingest.rows_per_s": c["ingest_rows"] / ingest_s if ingest_s else 0.0,
        "ingest.export_responses.s": busy("ingest.export_responses"),
        "metrics.s": module_busy("metrics"),
        "conjoint.s": module_busy("conjoint"),
        "pipeline.run_pipeline.self_s": float(self_time[mask("pipeline.run_pipeline")].sum()),
        "cli.goals.s": busy("cli.cmd_goals"),
        "cli.coordinate.s": busy("cli.cmd_coordinate"),
        "cli.evaluate.s": busy("cli.cmd_evaluate"),
        "cli.self_s": cli_self,
    }
    for name in ("retrieval.apply_choice", "retrieval.retrieve_next",
                 "retrieval.improvement_box", "sharing.option_rewards"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = busy(name)
        metrics[f"{name}.us_per_call"] = per_call_us(name)
    return metrics
