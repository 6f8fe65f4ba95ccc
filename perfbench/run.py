"""spellcap end-to-end benchmark.

    python3 perfbench/run.py --workload train|interactive|offline|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. One workload runs per process; ``all``
starts a fresh process for each. Stdout ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where metrics are the
end-to-end ones, or with ``--trace 1`` the per-layer ones from a run with
every layer wrapped. A line starting ``perfbench env`` before it records the
environment. Failed output checks print to stderr and exit 1.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> dict:
    """One BLAS thread, unless the caller set a thread variable themselves.

    Left to itself, OpenBLAS keeps a second thread spinning through the small
    products of decoding: twice the CPU time for the same wall time, and
    timings that follow whatever else runs on a shared machine's cores (the
    offline figures spread 28 % over ten seeds). Returns what it set, which
    the environment record reports.
    """
    if any(k in os.environ for k in THREAD_VARS):
        return {}
    pinned = {k: "1" for k in THREAD_VARS}
    os.environ.update(pinned)
    return pinned


def environment(pinned) -> dict:
    """What a reader needs to compare two runs' numbers."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=common.ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(common.ROOT):
            commit = None
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src_lines = 0
    for path in sorted(common.SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_pinning": pinned,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def load_references(path):
    if not os.path.isfile(path):
        raise common.SetupError(f"missing reference outputs {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def run_one(args, pinned) -> int:
    import workloads

    for path in (common.CHECKPOINT, common.CHECKPOINT_RECIPE):
        if not path.is_file():
            raise common.SetupError(f"missing reference file {path}")
    refs = load_references(args.references)
    print("perfbench env " + json.dumps(environment(pinned)), flush=True)
    t0 = time.perf_counter()
    untraced = untraced_metrics(args) if args.trace else None
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 size=args.size, references=refs, untraced=untraced)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    metrics = run.layers if args.trace else run.metrics
    if run.details:
        print("perfbench details " + json.dumps(run.details), flush=True)
    print(f"perfbench {args.workload} seed {args.seed}: {run.attempted} attempted, "
          f"{run.failed} failed, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(result_line(correct, max(run.attempted, 1), run.failed, metrics), flush=True)
    return 0 if correct else 1


def child_argv(args, workload, trace):
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--size", args.size, "--references", args.references]


def untraced_metrics(args) -> dict:
    """End-to-end metrics of an untraced run in a fresh process, the base the
    traced run's overhead is measured against."""
    proc = subprocess.run(child_argv(args, args.workload, 0), stdout=subprocess.PIPE,
                          text=True, cwd=common.ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise common.SetupError(f"untraced {args.workload} run exited {proc.returncode}")
    return {k: (m["value"], m["unit"]) for k, m in json.loads(lines[-1])["metrics"].items()}


def run_all(args) -> int:
    """Each workload in a fresh interpreter, as the BLAS library first sees it."""
    worst = 0
    for name in ("train", "interactive", "offline"):
        proc = subprocess.run(child_argv(args, name, args.trace), stdout=subprocess.PIPE,
                              text=True, cwd=common.ROOT)
        lines = proc.stdout.splitlines()
        worst = max(worst, proc.returncode)
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("train", "interactive", "offline", "all"))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the measured part (minimum work is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every stage on a few samples (smoke test)")
    parser.add_argument("--references", default=str(common.REFERENCE_OUTPUTS),
                        help="reference outputs to check against")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pinned = pin_blas_threads()
    try:
        common.use_checkout_sources()
        if args.workload == "all":
            return run_all(args)
        return run_one(args, pinned)
    except common.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
