"""Write verify_errors.json, the error ratchet of the verify checks.

Runs `verify --suite all` at seed 0 and records, per check, its error, its
tolerance and its runtime in ms (the runtime is information only; no test
reads it as a gate), together with the python, numpy and scipy versions.
`tests/test_acceptance.py` fails when a check's error later exceeds
max(2 x recorded, 1e-14), or when a check of tolerance 0 (a count that must
stay 0) leaves 0.  Re-run it after a change that moves an error on purpose:

    PYTHONPATH=src python tests/data/record_verify_errors.py
"""

import json
import pathlib

from heisenkit.verify import run_suite

SEED = 0


def main():
    report = run_suite("all", seed=SEED).to_dict()
    out = {"seed": SEED, "libraries": report["libraries"],
           "checks": {c["id"]: {"error": c["error"], "tol": c["tol"], "ms": round(c["ms"], 1)}
                      for c in report["checks"]}}
    path = pathlib.Path(__file__).with_name("verify_errors.json")
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(out['checks'])} checks to {path}")


if __name__ == "__main__":
    main()
