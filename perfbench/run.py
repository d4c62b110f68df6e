"""Benchmark of wehrlkit: three workloads, each round in a fresh process.

    python3 perfbench/run.py [--workload gaussian-mi|noon-table|cli-sweeps|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each round of a workload runs in a new interpreter
(``worker.py``) at library parallelism 1, and rounds repeat until
``--seconds`` have passed (at least one round).  The printed figures are
medians over the rounds; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the same untraced rounds run first, then traced rounds;
the metrics are the per-layer ones plus ``trace.overhead_s``, the traced
minus the untraced median table time.  Spans of each traced round are
written to ``perfbench/out/trace-<workload>-seed<N>-round<k>.jsonl``.
A traced ``gaussian-mi`` run also runs the parallelism byte-identity
check.

The exit code is 0 when every round ran, whether or not a check failed
(``correct`` says that); it is not 0 when a worker could not run, for
example when ``src/wehrlkit`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-sweeps", "gaussian-mi", "noon-table")

# Fresh processes that measure set-up, rounds included; set-up is the
# median of at least this many.
SETUP_SAMPLES = 5
# A run must end within 180 s; no round starts after this many seconds.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("table_s", "s"),
    ("op_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("quadrature.integrals", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.levels", "count"),
    ("quadrature.escalations", "count"),
    ("quadrature.last_level_node_share", "ratio"),
    ("quadrature.self_s", "s"),
    ("quadrature.minor_faults", "count"),
    ("husimi.calls", "count"),
    ("husimi.points", "count"),
    ("husimi.self_s", "s"),
    ("husimi.points_per_s", "1/s"),
    ("husimi.minor_faults", "count"),
    ("entropies.calls", "count"),
    ("entropies.self_s", "s"),
    ("eur.reports", "count"),
    ("eur.self_s", "s"),
    ("gaussian.calls", "count"),
    ("gaussian.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("WEHRLKIT_PARALLELISM", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, mode: str, trace_file: str | None = None) -> dict:
        self.count += 1
        result = os.path.join(OUT, f"result-{os.getpid()}-{self.count}.json")
        cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--result", result]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=WORKER_TIMEOUT_S - self.elapsed())
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{self.workload} {mode} worker timed out") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{self.workload} {mode} worker exited {proc.returncode}")
        try:
            with open(result, encoding="utf-8") as handle:
                return json.load(handle)
        finally:
            os.remove(result)

    def rounds(self, seconds: float, traced: bool) -> list[dict]:
        out = []
        window = time.monotonic()
        while True:
            trace_file = None
            if traced:
                trace_file = os.path.join(
                    OUT, f"trace-{self.workload}-seed{self.seed}-round{len(out)}.jsonl")
            out.append(self.worker("round", trace_file))
            if time.monotonic() - window >= seconds or self.elapsed() >= LAST_START_S:
                return out


def _report_failures(workload: str, rounds: list[dict], extra: list[str]) -> bool:
    """Print check failures and unexpected operation failures; True if all checks held."""
    correct = True
    for k, r in enumerate(rounds):
        for msg in r["failures"]:
            correct = False
            sys.stderr.write(f"CHECK FAILED {workload} round {k}: {msg}\n")
        for op in r["ops"]:
            if op["failed"] and not op["malformed"]:
                sys.stderr.write(f"OPERATION FAILED {workload} round {k}: "
                                 f"{op['label']}: {op['error']}\n")
    for msg in extra:
        correct = False
        sys.stderr.write(f"CHECK FAILED {workload}: {msg}\n")
    return correct


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    runner = Runner(workload, seed)
    rounds = runner.rounds(seconds, traced=False)
    traced_rounds = runner.rounds(seconds, traced=True) if traced else []
    extra = []
    if workload == "gaussian-mi" and traced:
        extra = runner.worker("identity")["failures"]
    setups = [r["setup_s"] for r in rounds]
    if not traced:
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.worker("setup")["setup_s"])

    every = rounds + traced_rounds
    correct = _report_failures(workload, every, extra)
    attempted = sum(len(r["ops"]) for r in every)
    failed = sum(op["failed"] for r in every for op in r["ops"])
    table_s = statistics.median(r["table_s"] for r in rounds)
    if traced:
        values = {}
        for name, _ in PER_LAYER:
            if name != "trace.overhead_s":
                values[name] = statistics.median(r["layers"][name] for r in traced_rounds)
        values["trace.overhead_s"] = (
            statistics.median(r["table_s"] for r in traced_rounds) - table_s)
        for r in traced_rounds:
            if not r["layers"]["level_nodes_consistent"]:
                sys.stderr.write(f"warning: {workload}: level split does not account for "
                                 "every node; the level metrics are unreliable\n")
        units = PER_LAYER
    else:
        # A failed operation is counted in `failed`, not timed as a latency:
        # the fast malformed calls of cli-sweeps would put the median on the
        # edge between two clusters of call times.  Only when nothing
        # succeeded do the failed calls stand in.
        ops = [op for r in rounds for op in r["ops"]]
        walls = [op["wall_s"] for op in ops if not op["failed"]] or [op["wall_s"] for op in ops]
        values = {
            "setup_s": statistics.median(setups),
            "table_s": table_s,
            "op_p50_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    print(f"workload {workload}, seed {seed}: {len(rounds)} untraced and "
          f"{len(traced_rounds)} traced rounds in {runner.elapsed():.1f} s; "
          f"{attempted} operations attempted, {failed} failed; "
          f"checks {'passed' if correct else 'FAILED'}")
    print(f"  inputs: {json.dumps(rounds[0]['inputs'])}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if traced_rounds:
        print(f"  spans in {os.path.relpath(OUT, ROOT)}/trace-{workload}-seed{seed}-round*.jsonl")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wehrlkit", "__init__.py")):
        sys.stderr.write(f"no wehrlkit sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS uses one per core)")
    print(f"cores {os.cpu_count()}, usable {len(os.sched_getaffinity(0))}; "
          f"OPENBLAS_NUM_THREADS {blas}; library parallelism 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
