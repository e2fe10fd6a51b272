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
    assert SUITE_NAMES[-1] == "all"
    assert set(SUITE_NAMES) >= {"hankel", "hille-hardy", "semigroup",
                                "hecke-bochner", "theorem34", "gates",
                                "hermite", "radon", "all"}


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
    assert report.passed
    for c in report.checks:
        assert c.error <= c.tol
        assert c.ms >= 0.0
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))


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


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_every_suite_is_a_generator_of_its_checks():
    assert all(inspect.isgeneratorfunction(fn) for fn in verify._SUITES.values())


def _slow_then_fast(rng):
    warnings.warn("slow step", RuntimeWarning)
    time.sleep(0.03)
    yield "a", {"step": 1}, 0.0, 1.0
    yield "b", {"step": 2}, 2.0, 1.0


def test_run_suite_times_each_step_and_files_its_warnings(monkeypatch):
    monkeypatch.setitem(verify._SUITES, "fake", _slow_then_fast)
    with pytest.warns(RuntimeWarning, match="slow step"):
        report = run_suite("fake")
    a, b = report.checks
    assert (a.id, a.params, a.passed, b.id, b.passed) == ("a", {"step": 1}, True, "b", False)
    assert a.ms >= 25.0 and a.ms > b.ms
    assert a.warnings == ("slow step",) and b.warnings == ()


def _warn_yield_warn_raise(rng):
    warnings.warn("before the check", UserWarning)
    yield "a", {}, 0.0, 1.0
    warnings.warn("after the check", UserWarning)
    raise ArithmeticError("the suite broke")


def test_a_raising_suite_propagates_and_every_warning_is_warned_again(monkeypatch):
    monkeypatch.setitem(verify._SUITES, "fake", _warn_yield_warn_raise)
    with pytest.warns(UserWarning) as record:
        with pytest.raises(ArithmeticError, match="the suite broke"):
            run_suite("fake")
    assert [str(w.message) for w in record] == ["before the check", "after the check"]
