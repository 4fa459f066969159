"""Benchmark of the datacollective toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one caller, one worker process at a time):

- ``desk``: ``run_pipeline`` at the default ``ExperimentConfig``, the paper's
  reference scale. Population and coordination each take about half.
- ``reassess-long``: ``run_pipeline`` with 448 steps, geometric rewards and
  5 iterations x 2 repetitions. Almost all of it is the dilemma loop
  (population, retrieval, sharing); coordination is under 1%.
- ``cli-stages``: the README's stage-by-stage CLI called in-process through
  ``datacollective.cli.main``. Set-up runs ``simulate --n 168``; the timed unit
  runs ``goals``, ``coordinate`` twice (goal level 5 with alpha=beta=0, goal
  level 1 with alpha=0.3, beta=0.2) and ``evaluate``. It is mostly
  coordination and never calls population code.

``--seed`` becomes ``master_seed`` and ``coordination_seed``, or the CLI's
``--seed``.

With ``--trace 0`` the run starts untraced workers one after another. The
first ones only set up: at least two, and more while they fit in 5% of
``--seconds``. The last sets up and repeats the timed unit until ``--seconds``
after the run began, so set-up time counts in the run length. The run reports
the median ``wall_s`` of the units, the median ``setup_s`` of the workers
(worker start to the start of the timed unit) and the ``peak_rss_mb`` of the
last worker.

With ``--trace 1`` it runs one untraced and one traced worker for one unit
each and reports the per-layer metrics of the traced one;
``trace.overhead_s`` is the difference of their unit times.

Every operation's outputs are checked, and every unit's artifacts must hash
alike. ``--smoke`` shrinks every workload to a size that runs in seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, which lists the metrics that
``BENCHMARK.json`` names, with its units. Per-run details (machine, checks,
digests, privacy recovery) go to ``perfbench/.work/``, spans of the traced
run to ``perfbench/.work/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("desk", "reassess-long", "cli-stages")
# Set-up-only workers: at least two, and more while they fit in this share
# of --seconds (cheap set-ups get about ten samples, cli-stages' simulate two).
MIN_SETUP_ONLY = 2
SETUP_SHARE = 0.05
WORKER_TIMEOUT_S = 170

def machine() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {"nproc": os.cpu_count(), "cpu": cpu, "loadavg": os.getloadavg()}


def run_worker(
    workload: str, seed: int, deadline: float | None, traced: bool, smoke: bool, tag: str
) -> dict:
    work = WORK / f"{workload}-{os.getpid()}-{tag}"
    result_path = WORK / f"{work.name}.result.json"
    spec = {
        "workload": workload, "seed": seed, "deadline": deadline, "traced": traced,
        "smoke": smoke, "work": str(work), "result": str(result_path),
        "spans": str(WORK / f"spans-{workload}.npz"), "spawned": time.monotonic(),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        sys.exit(f"{workload} worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "datacollective" / "__init__.py").is_file():
        sys.exit(f"no datacollective sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    host = machine()

    if args.trace:
        plain = run_worker(args.workload, args.seed, 0.0, False, args.smoke, "plain")
        traced = run_worker(args.workload, args.seed, 0.0, True, args.smoke, "traced")
        workers = [plain, traced]
    else:
        began = time.monotonic()
        workers = []
        while len(workers) < MIN_SETUP_ONLY or (
            time.monotonic() + median(w["setup_s"] for w in workers)
            <= began + SETUP_SHARE * args.seconds
        ):
            workers.append(
                run_worker(args.workload, args.seed, None, False, args.smoke, f"setup{len(workers)}")
            )
        deadline = began + args.seconds
        workers.append(
            run_worker(args.workload, args.seed, deadline, False, args.smoke, "units")
        )

    digests = [d for w in workers for d in w["digests"]]
    mismatches = sum(d != digests[0] for d in digests)
    attempted = sum(w["attempted"] for w in workers)
    failed = min(attempted, sum(w["failed"] for w in workers) + mismatches)
    errors = [e for w in workers for e in w["errors"]]
    if mismatches:
        errors.append(f"{mismatches} of {len(digests)} units hashed differently")
    failed_frac = failed / attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["pipeline.artifact_bytes"] = traced["artifact_bytes"]
        metrics["trace.overhead_s"] = traced["unit_walls"][0] - plain["unit_walls"][0]
        metrics["failed_frac"] = failed_frac
        print(
            f"{args.workload} seed {args.seed} traced: share of the timed unit in population "
            f"{metrics['population.unit_share']:.3f}, in coordination "
            f"{metrics['coordination.unit_share']:.3f}; trace.overhead_s "
            f"{metrics['trace.overhead_s']:.3f} s; failed_frac {failed_frac:.4g} ({failed}/{attempted})"
        )
    else:
        walls = [t for w in workers for t in w["unit_walls"]]
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(w["setup_s"] for w in workers),
            "peak_rss_mb": workers[-1]["peak_rss_mb"],
        }
        print(
            f"{args.workload} seed {args.seed}: wall_s {metrics['wall_s']:.4f} s "
            f"(median of {len(walls)} units), setup_s {metrics['setup_s']:.4f} s "
            f"(median of {len(workers)}), peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
            f"failed_frac {failed_frac:.4g} ({failed}/{attempted})"
        )

    host.update(python=workers[0]["python"], numpy=workers[0]["numpy"])
    recovery = next((w["recovery"] for w in workers if "recovery" in w), None)
    print(f"machine: {json.dumps(host)}")
    print(f"privacy recovery percent (recorded, not checked): {json.dumps(recovery)}")
    for error in errors[:20]:
        print(f"check failed: {error}")
    details = {
        "args": vars(args), "machine": host, "recovery": recovery, "digests": digests,
        "errors": errors, "workers": [{k: v for k, v in w.items() if k != "errors"} for w in workers],
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
