"""Run a verification suite in-process and through the console entry point.

Every identity the package ships is re-checked by a named suite; the same
reports drive the acceptance tests and the `heisenkit verify` subcommand.
"""

import json
import tempfile

from heisenkit import run_suite
from heisenkit.cli import run

report = run_suite("hermite")
print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
for c in report.checks:
    print(f"  {c.id:<28} error {c.error:.3e}  tol {c.tol:.0e}  {c.ms:7.1f} ms")

with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as fh:
    code = run(["verify", "--suite", "hankel", "--json", fh.name])
    doc = json.load(fh)
print(f"CLI exit code {code}, JSON schema {doc['schema']}, "
      f"{len(doc['checks'])} checks, pass = {doc['pass']}")

print("a kernel profile through the CLI:")
run(["kernel", "--group", "heisenberg", "--s", "1", "--slice-lambda", "1",
     "--r", "0,1,2"])
