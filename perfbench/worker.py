"""One workload in one process: set up, run passes for a time budget, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--setup-only | --trace]

Imports heisenkit from the src/ directory beside perfbench/.  Prints one JSON
object on its last line of standard output; --trace also writes the spans to
perfbench/out/spans-<workload>-seed<N>.npz.  The set-up clock starts before
heisenkit (and with it numpy and scipy) is imported, as a command-line user
pays for that on every call.  Nothing but the standard library is imported
before it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine(hk):
    import platform

    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": _blas_threads(np),
            "heisenkit": hk.__version__}


def measure(workload, passes, seconds):
    """Run passes in a closed loop while the next one is expected to end
    within `seconds`; at least one."""
    runs, pass_s = [], []
    start = time.perf_counter()
    for spec in passes:
        t0 = time.perf_counter()
        runs.append(workload.run_pass(spec))
        pass_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + pass_s[-1] > seconds:
            break
    else:
        print(f"note: all {len(passes)} prepared passes ran within the time budget",
              file=sys.stderr)
    return runs, pass_s


def grade(workload, runs):
    """Check every operation after the timed region."""
    import workloads
    failed = unexpected = wrong_exits = 0
    pass_worst, worst_ops, failures, checks, known_seen = [], set(), [], {}, set()
    for ops in runs:
        worst, worst_op = 0.0, ""
        for op in ops:
            try:
                outcome = workload.check(op)
            except Exception as exc:    # output the check could not read
                outcome = workloads.Outcome(False, None, f"check raised {exc!r}")
            if outcome.err_ratio is not None and outcome.err_ratio >= worst:
                worst, worst_op = outcome.err_ratio, op.label
            wrong_exits += outcome.wrong_exit
            if not outcome.ok:
                failed += 1
                unexpected += not op.known
                note = " ".join(f"{op.label}: {outcome.note}".split())
                if not op.known and len(failures) < 20:
                    failures.insert(0, "unexpected " + note)
                elif op.known and op.label not in known_seen:
                    known_seen.add(op.label)        # one example per known kind
                    failures.append(note)
            if isinstance(workload, workloads.Verify) and op.exc is None:
                checks.setdefault(op.label, []).append(
                    (op.seconds, outcome.err_ratio if outcome.err_ratio is not None
                     else float(op.out.error)))
        pass_worst.append(worst)
        worst_ops.add(worst_op)
    ops = [op for run in runs for op in run]
    return {"ops": len(ops), "failed": failed,
            "unexpected": unexpected, "wrong_exits": wrong_exits,
            # the worst error/tolerance of a pass, median over the passes
            "worst_err_ratio": statistics.median(pass_worst),
            "worst_ops": sorted(worst_ops), "failures": failures, "checks": checks}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import heisenkit as hk
    import heisenkit.cli  # noqa: F401  (kernel-tables calls hk.cli.run)
    if not os.path.abspath(hk.__file__).startswith(ROOT):
        raise SystemExit(f"imported heisenkit from {hk.__file__}, not from the checkout")

    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(hk)
    workload = workloads.WORKLOADS[args.workload](hk)
    passes = workload.build(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    with warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer:
            warnings.simplefilter("always")
        runs, pass_s = measure(workload, passes, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb,
              **grade(workload, runs), "machine": machine(hk)}
    if tracer:
        tracer.record_warnings(caught)
        tracer.errors["cli"] += result["wrong_exits"]
        result["layers"] = tracer.layer_metrics()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.save(os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
