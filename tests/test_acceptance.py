"""Acceptance gate: one test per shipped criterion, driven off the verify suites.

`CRITERIA` is the contract: each criterion names its checks and its time
budget, and its test prints a single pass/fail line (visible with -rA or on
failure).  Each tolerance is written once, in verify's row table; the
ratchet test below forbids any of them to rise, and README's criteria table
is read back against the rows.
"""

import collections
import json
import pathlib
import re

import pytest

from heisenkit import verify
from heisenkit.verify import run_suite

ROOT = pathlib.Path(__file__).resolve().parents[1]

# number, test name, printed label, check ids, budget in ms over the summed
# check times (None: no budget)
CRITERIA = (
    (1, "hankel_gaussian_closed_form", "hankel gaussian closed form",
     ("hankel-gaussian",), 2000.0),
    (2, "hardy_product_and_lattice", "hardy decay product and 7x7 gate lattice",
     ("hardy-critical-product", "hardy-gate-lattice"), None),
    (3, "hille_hardy_series", "hille-hardy series vs closed form",
     ("hille-hardy-interior", "hille-hardy-boundary"), 500.0),
    (4, "twisted_semigroup", "twisted semigroup q_1/2 * q_1/2 = q_1",
     ("twisted-semigroup",), 2000.0),
    (5, "heat_roundtrip_and_scaling", "heat kernel roundtrip and parabolic scaling",
     ("heat-roundtrip", "heat-scaling"), None),
    (6, "hecke_bochner", "hecke-bochner factorization and annihilation",
     ("hecke-bochner", "hecke-bochner-annihilation"), None),
    (7, "theorem34_linking_constant",
     "theorem34 ratio constancy, kernel series and exceptional rejection",
     ("theorem34-gaussian", "theorem34-grid", "theorem34-kernel",
      "theorem34-exceptional"), 2000.0),
    (8, "gate_lambda_window",
     "lambda window exists iff ab < s0^2 (3^3 lattice); gates agree near it",
     ("gate-lambda-window", "gate-htype-agreement"), None),
    (9, "equality_case_residual", "equality case tanh residual and monotone fit",
     ("equality-tanh-residual", "equality-monotone"), 2000.0),
    (10, "hermite_suite", "hermite eigenphases, pi/4 fixed point, gate boundary and margin",
     ("hermite-eigenphase", "hermite-fourier-fixed-point", "hermite-gate-boundary",
      "hermite-gate-margin"), 2000.0),
    (11, "radon_reduction", "radon reduction to the n=1 kernel",
     ("radon-collapse", "radon-degenerate"), 500.0),
)

# the suite of each check, read off the row table
_SUITE_OF = {cid: suite for suite, (_, tols) in verify._SUITES.items() for cid in tols}


@pytest.fixture(scope="module")
def records():
    return {c.id: c for c in run_suite("all").checks}


def _criterion_test(num, label, ids, budget_ms):
    def test(records):
        checks = [records[cid] for cid in ids]
        ok = all(c.passed for c in checks)
        worst = max(c.error for c in checks)
        ms = sum(c.ms for c in checks)
        print(f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'} "
              f"(worst error {worst:.3g}, {ms/1000.0:.1f}s)")
        for c in checks:
            assert c.passed, f"{c.id}: error {c.error:.3g} exceeds tol {c.tol:.3g}"
        if budget_ms is not None:
            assert ms < budget_ms, f"{ms:.0f} ms over the budget of {budget_ms:.0f} ms"
    return test


# one test per criterion, under the name it has always had
for _num, _name, _label, _ids, _budget in CRITERIA:
    globals()[f"test_criterion_{_num:02d}_{_name}"] = _criterion_test(_num, _label, _ids, _budget)


def test_every_check_belongs_to_exactly_one_criterion():
    named = collections.Counter(cid for *_, ids, _ in CRITERIA for cid in ids)
    assert {cid for cid, n in named.items() if n > 1} == set()
    assert set(named) == set(_SUITE_OF)


def test_readme_states_each_criterion_as_its_rows_do():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| (\d+) \| (.+) \|$", text, re.MULTILINE))
    assert sorted(map(int, rows)) == [num for num, *_ in CRITERIA]
    for num, _, _, ids, budget_ms in CRITERIA:
        suite, what = rows[str(num)].split(" | ")
        assert {suite} == {_SUITE_OF[cid] for cid in ids}, f"criterion {num}"
        for cid in ids:
            tol = verify._SUITES[suite][1][cid]
            stated = f"{tol:.0e}".replace("e-0", "e-")      # 1e-06 reads 1e-6
            assert tol == 0 or re.search(rf"{stated}(?!\d)", what), f"criterion {num}: {cid}"
        if budget_ms is not None:
            assert f"under {budget_ms / 1000.0:g} s" in what, f"criterion {num}: budget"


def test_no_check_error_grows_past_its_recorded_value(records):
    # the error ratchet: tests/data/verify_errors.json holds every check's
    # error at seed 0 (the seed of `records`), written by
    # tests/data/record_verify_errors.py.  An error may not exceed twice its
    # recorded value (or 1e-14, the round-off of the smallest ones), a check
    # of tolerance 0 counts failures, which must stay 0, and no tolerance may
    # exceed its recorded one: a looser one would lower an error ratio
    path = pathlib.Path(__file__).parent / "data" / "verify_errors.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    assert recorded["seed"] == 0
    assert set(records) == set(recorded["checks"]), "re-record the ratchet for new checks"
    grown = {}
    for cid, rec in recorded["checks"].items():
        error = records[cid].error
        if rec["tol"] == 0 and error != 0:
            grown[cid] = (error, 0.0)
        elif error > max(2.0 * rec["error"], 1e-14):
            grown[cid] = (error, rec["error"])
        if records[cid].tol > rec["tol"]:
            grown[f"{cid} tol"] = (records[cid].tol, rec["tol"])
    assert not grown, f"errors and tolerances past the ratchet (now, recorded): {grown}"
