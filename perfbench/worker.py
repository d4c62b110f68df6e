"""One round of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The set-up clock
starts before ``wehrlkit`` is imported and stops once the seeded inputs
exist.  Each operation is then timed on its own (wall clock and
``getrusage`` CPU time); the checks run after the last operation, so
they neither count in the timings nor change the allocator state the
operations see.  The round's figures are written as JSON to ``--result``.

Modes: ``round`` (the default) runs the operations, ``setup`` stops
after set-up, and ``identity`` runs the parallelism byte-identity check.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "setup", "identity"), default="round")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import wehrlkit

    if os.path.dirname(os.path.dirname(os.path.abspath(wehrlkit.__file__))) != src:
        sys.stderr.write(f"wehrlkit was imported from {wehrlkit.__file__}, not from {src}\n")
        return 2
    import workloads

    workdir = os.path.join(os.path.dirname(args.result), f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        result = {"setup_s": setup_s, "inputs": work.inputs}
        if args.mode == "round":
            result.update(_run_round(work, args.trace_file))
        elif args.mode == "identity":
            result["failures"] = workloads.identity_check(workdir, work.inputs["lambdas"][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _check(work, results) -> list[str]:
    """The round's check failures; a check that breaks is one failure too."""
    try:
        return work.check(results)
    except Exception as exc:  # an output the checks cannot read is reported, not fatal
        return [f"check raised {''.join(traceback.format_exception_only(type(exc), exc)).strip()}"]


def _run_round(work, trace_file):
    recorder = None
    if trace_file:
        import spans  # only traced rounds load the recorder

        recorder = spans.Recorder()
        spans.install(recorder)
    ops = []
    results = []
    origin = time.perf_counter()
    for i, op in enumerate(work.ops):
        if recorder is not None:
            recorder.op = i
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        failed = error is not None or not op.succeeded(out)
        if failed and error is None:
            error = f"unexpected outcome {out!r}"
        ops.append({"label": op.label, "wall_s": wall, "cpu_s": cpu,
                    "failed": failed, "malformed": op.malformed, "error": error})
        results.append(None if failed else out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "ops": ops,
        "table_s": sum(o["wall_s"] for o in ops),
        "cpu_s": sum(o["cpu_s"] for o in ops),
        "peak_rss_mb": peak_rss_mb,
        "failures": _check(work, results),
    }
    if recorder is not None:
        bytes_out = sum(os.path.getsize(op.output) for op, r in zip(work.ops, results)
                        if r is not None and op.output and os.path.exists(op.output))
        out["layers"] = spans.layer_metrics(recorder.spans, bytes_out)
        out["spans"] = len(recorder.spans)
        recorder.write_jsonl(trace_file, origin)
    return out


if __name__ == "__main__":
    sys.exit(main())
