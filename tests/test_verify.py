"""Verify-suite plumbing; the slow suites themselves run in the acceptance
module, so only the fast ones are driven here."""

import inspect
import platform
import time
import warnings

import numpy as np
import pytest
import scipy

import heisenkit
from heisenkit import propagator, verify
from heisenkit.verify import SUITE_NAMES, CheckRecord, SuiteReport, run_suite


def test_suite_names_cover_the_map():
    assert SUITE_NAMES == tuple(verify._SUITES) + ("all",)
    assert len(SUITE_NAMES) == 9


def test_record_and_report_shapes():
    rec = CheckRecord("demo", {"a": 1}, 1e-9, 1e-6, True, 2.5)
    d = rec.to_dict()
    assert d == {"id": "demo", "params": {"a": 1}, "error": 1e-9,
                 "tol": 1e-6, "pass": True, "ms": 2.5, "warnings": []}
    report = SuiteReport("demo-suite", (rec,))
    assert report.passed
    rd = report.to_dict()
    assert rd["suite"] == "demo-suite" and rd["schema"] == 2
    assert rd["pass"] and rd["checks"] == [d]
    assert rd["version"] == heisenkit.__version__
    assert rd["libraries"] == {"python": platform.python_version(),
                               "numpy": np.__version__, "scipy": scipy.__version__}
    bad = CheckRecord("demo", {}, 1.0, 1e-6, False, 0.1)
    assert not SuiteReport("demo-suite", (rec, bad)).passed


def test_hermite_suite_passes_and_is_consistent():
    report = run_suite("hermite")
    assert report.passed and all(c.ms >= 0.0 for c in report.checks)
    assert [c.id for c in report.checks] == list(verify._SUITES["hermite"][1])


def test_the_gates_suite_warns_nothing():
    # equality_case_profile sizes its grid from the extremal's decay
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite("gates")
    assert report.passed
    assert all(c.warnings == () for c in report.checks)


def test_warnings_land_on_the_record_of_their_check(monkeypatch):
    # on the default r_max = 8 grid the a = 2 slice of equality-monotone is
    # not decayed (edge/peak 6.2e-8); its truncation warning goes on that
    # check's record and is warned again
    monkeypatch.setattr(propagator, "_EQUALITY_DECAY", 0.0)
    with pytest.warns(RuntimeWarning, match="Laguerre projection is truncated"):
        report = run_suite("gates")
    fired = {c.id: c.warnings for c in report.checks}
    assert len(fired["equality-monotone"]) == 1
    assert "Laguerre projection is truncated" in fired["equality-monotone"][0]
    assert fired["equality-tanh-residual"] == ()
    doc = report.to_dict()["checks"]
    assert doc[-1]["id"] == "equality-monotone" and doc[-1]["warnings"] == list(fired["equality-monotone"])


def test_seed_changes_only_the_sampled_params():
    a = run_suite("hille-hardy", seed=0)
    b = run_suite("hille-hardy", seed=7)
    assert a.passed and b.passed
    assert [c.id for c in a.checks] == [c.id for c in b.checks]
    # an integral float seed is its integer
    for seed in (7.0, np.float64(7.0)):
        assert run_suite("hille-hardy", seed).checks[0].params == b.checks[0].params


def test_unknown_suite_is_rejected():
    # a list of names is no suite name either
    for name in ("bogus", ["hankel"]):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(name)


def test_every_suite_is_a_generator_of_its_checks():
    assert all(inspect.isgeneratorfunction(fn) for fn, _ in verify._SUITES.values())


def _three_checks(rng):
    yield from ((cid, {}, 0.0) for cid in "abc")


@pytest.mark.parametrize("rows", ["ac", "acb", "abcd"],
                         ids=["no-row", "out-of-order", "unyielded"])
def test_a_suite_that_drifts_from_its_rows_is_refused(monkeypatch, rows):
    monkeypatch.setitem(verify._SUITES, "fake", (_three_checks, dict.fromkeys(rows, 1.0)))
    with pytest.raises(RuntimeError, match=r"suite 'fake' yields \['a', 'b', 'c'\], but its rows"):
        verify._run("fake", 0)


def _slow_then_fast(rng):
    warnings.warn("slow step", RuntimeWarning)
    time.sleep(0.03)
    yield "a", {"step": 1}, 0.0
    yield "b", {"step": 2}, 2.0


def test_run_suite_times_each_step_and_files_its_warnings(monkeypatch):
    monkeypatch.setitem(verify._SUITES, "fake", (_slow_then_fast, {"a": 1.0, "b": 1.0}))
    with pytest.warns(RuntimeWarning, match="slow step"):
        a, b = verify._run("fake", 0)
    assert (a.id, a.params, a.passed, b.id, b.passed) == ("a", {"step": 1}, True, "b", False)
    assert a.ms >= 25.0 and a.ms > b.ms
    assert a.warnings == ("slow step",) and b.warnings == ()


def _warn_yield_warn_raise(rng):
    warnings.warn("before the check", UserWarning)
    yield "a", {}, 0.0
    warnings.warn("after the check", UserWarning)
    raise ArithmeticError("the suite broke")


def test_a_raising_suite_propagates_and_every_warning_is_warned_again(monkeypatch):
    monkeypatch.setitem(verify._SUITES, "fake", (_warn_yield_warn_raise, {"a": 1.0}))
    with pytest.warns(UserWarning) as record:
        with pytest.raises(ArithmeticError, match="the suite broke"):
            verify._run("fake", 0)
    assert [str(w.message) for w in record] == ["before the check", "after the check"]
