"""heisenkit benchmark: one workload per call, each in its own process.

    python3 perfbench/run.py --workload {verify,kernel-tables}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; heisenkit is imported from its src/.  The
load is a closed loop: one caller in one process, each operation starting
when the previous one has finished, with BLAS limited to the CPUs this
process may use.

--trace 0 prints the end-to-end metrics.  Set-up time is the median of
three fresh processes (the measuring one and two that only set up).

--trace 1 prints the per-layer metrics.  It runs the workload untraced and
then traced, each for half of --seconds, and reports the difference of
their median pass times as the tracing overhead.  The spans are written to
perfbench/out/.  The check.<id> metrics come from the verify suites' own
records (median time and largest error/tolerance over a check's runs) and
read 0 on kernel-tables.

The last line of standard output is the JSON result; the lines before it
list the machine and every metric with its unit.  Exit codes: 0 with a
result, 2 when the checkout holds no heisenkit source, 1 when a worker
failed or ran out of time (no result is printed in either case).
"""

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
DEADLINE_S = 170.0
WORKLOADS = ("verify", "kernel-tables")
VERIFY_CHECKS = (
    "hankel-gaussian", "hardy-critical-product", "hardy-gate-lattice",
    "hille-hardy-interior", "hille-hardy-boundary", "twisted-semigroup",
    "heat-roundtrip", "heat-scaling", "theorem34-gaussian", "theorem34-grid",
    "theorem34-kernel", "theorem34-exceptional", "hermite-eigenphase",
    "hermite-fourier-fixed-point", "hermite-gate-boundary", "hermite-gate-margin",
)


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)     # heisenkit comes from the checkout's src/ only
    return env


def _worker(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("no time left for the next worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                              cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    main = _worker(args, deadline)
    setups = [main["setup_s"]] + [_worker(args, deadline, "--setup-only")["setup_s"]
                                  for _ in range(2)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(main["pass_s"]), "s"),
        # a clean run counts half a failure per pass: the ratio is never 0,
        # does not depend on how many passes fit the time, and a first real
        # failure in every pass doubles it
        "fail_ratio": (max(main["failed"], 0.5 * len(main["pass_s"])) / main["ops"], "ratio"),
        "worst_err_ratio": (main["worst_err_ratio"], "ratio"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = [f"ops {main['ops']} in {len(main['pass_s'])} passes; "
             f"setup samples {', '.join(f'{s:.3f}' for s in setups)}",
             f"worst error/tolerance of a pass from: {', '.join(main['worst_ops'])}"]
    return main, metrics, notes


def per_layer(args, deadline):
    half = ["--seconds", str(args.seconds / 2.0)]
    plain = _worker(args, deadline, *half)
    traced = _worker(args, deadline, *half, "--trace")
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    plain_wall = statistics.median(plain["pass_s"])
    traced_wall = statistics.median(traced["pass_s"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    for cid in VERIFY_CHECKS:
        samples = traced["checks"].get(cid, [(0.0, 0.0)])
        metrics[f"check.{cid}.s"] = (statistics.median(s for s, _ in samples), "s")
        metrics[f"check.{cid}.err_ratio"] = (max(r for _, r in samples), "ratio")
    notes = [f"spans written to {os.path.relpath(spans, ROOT)}",
             f"untraced wall_s {plain_wall:.4f} s, traced {traced_wall:.4f} s"]
    return traced, metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "heisenkit", "__init__.py")):
        print(f"error: no heisenkit source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(run["machine"], sort_keys=True))
    for line in notes:
        print(line)
    for failure in run["failures"]:
        print("failed: " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    result = {
        "correct": run["unexpected"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "machine": run["machine"], "notes": notes,
                   "failures": run["failures"], "pass_s": run["pass_s"]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
