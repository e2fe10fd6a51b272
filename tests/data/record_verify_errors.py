"""Write verify_errors.json, the error ratchet of the verify checks.

Runs `verify --suite all` at seed 0 once unrecorded, so that no check's
time carries the one-time import of a scipy subpackage or another first-use
cost, then three times more.  It records, per check, its error and its
tolerance, together with the python, numpy and scipy versions.  The median
of each check's three runtimes in ms goes to verify_ms.json beside it: the
runtime is information only, which no test reads as a gate, and keeping it
apart leaves verify_errors.json byte-identical when no error moved.  An
error that differs between the passes stops the script before it writes.
No record ever goes up: every error and tolerance that held or fell is
written, and one that rose keeps its recorded value, after which the script
exits non-zero naming each risen id; a rise that is meant has to be written
by hand, with its reason in CHANGES.md.  The ids whose error or tolerance
moved are printed.  `tests/test_acceptance.py` fails when a check's error later
exceeds max(2 x recorded, 1e-14), when a check of tolerance 0 (a count that
must stay 0) leaves 0, or when a tolerance exceeds its record.  Re-run it
after a change that moves an error or a tolerance:

    PYTHONPATH=src python tests/data/record_verify_errors.py
"""

import json
import pathlib
import statistics

from heisenkit.verify import run_suite

SEED = 0
PASSES = 3


def main():
    run_suite("all", seed=SEED)
    reports = [run_suite("all", seed=SEED).to_dict() for _ in range(PASSES)]
    checks, ms = {}, {}
    for runs in zip(*(report["checks"] for report in reports)):
        errors = [run["error"] for run in runs]
        if len(set(errors)) != 1:
            raise SystemExit(f"{runs[0]['id']}: the error differs between passes: {errors}")
        checks[runs[0]["id"]] = {"error": errors[0], "tol": runs[0]["tol"]}
        ms[runs[0]["id"]] = round(statistics.median(run["ms"] for run in runs), 1)

    path = pathlib.Path(__file__).with_name("verify_errors.json")
    recorded = json.loads(path.read_text(encoding="utf-8"))["checks"] if path.exists() else {}
    moves = [(name, key, recorded[name][key], check[key]) for name, check in checks.items()
             if name in recorded for key in ("error", "tol") if check[key] != recorded[name][key]]
    for name, key, old, new in moves:
        print(f"{name}: {key} {old!r} -> {new!r}")
    risen = [(name, key, old) for name, key, old, new in moves if new > old]
    for name, key, old in risen:
        checks[name][key] = old
    for name, table in ((path, checks), (path.with_name("verify_ms.json"), ms)):
        out = {"seed": SEED, "libraries": reports[0]["libraries"], "checks": table}
        name.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(table)} checks to {name}")
    if risen:
        raise SystemExit("kept the record of " + ", ".join(
            f"the {key} of {name}" for name, key, _ in risen) + ", which rose above it")


if __name__ == "__main__":
    main()
