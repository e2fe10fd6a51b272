"""CLI plumbing: flag routing, CSV/JSON formats, the exit-code contract."""

import json
import math
import warnings

import numpy as np
import pytest

from heisenkit import cli, heisenberg
from heisenkit.heisenberg import heat_kernel_grid
from heisenkit.hermite import mehler_kernel
from heisenkit.htype import htype_heat_batch
from heisenkit.verify import CheckRecord, SuiteReport


def _rows(text):
    lines = text.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_kernel_slice_at_the_origin(capsys):
    code = cli.run(["kernel", "--group", "heisenberg", "--s", "1",
                    "--slice-lambda", "1"])
    assert code == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == "r,re,im"
    assert len(rows) == 1
    # (4 pi sinh 1)^{-1}
    assert float(rows[0][1]) == pytest.approx(0.06771391313789567, abs=1e-12)
    assert float(rows[0][2]) == 0.0


def test_kernel_slice_far_out_in_lambda_prints_finite_rows(capsys):
    # lam / sinh(lam) ~ 1e-345 lies below double range: the rows read 0
    code = cli.run(["kernel", "--group", "heisenberg", "--s", "1",
                    "--slice-lambda", "800", "--r", "0,0.5"])
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    cells = np.array(rows, dtype=float)
    assert cells.shape == (2, 3) and np.all(np.isfinite(cells))


def test_kernel_slice_where_2_lam_overflows_prints_a_zero_row(capsys):
    code = cli.run(["kernel", "--group", "heisenberg", "--s", "1",
                    "--slice-lambda", "1e308", "--r", "0.5"])
    assert code == 0
    assert _rows(capsys.readouterr().out)[1] == [["0.5", "0", "0"]]


def test_kernel_slice_whose_profile_overflows_is_a_numerical_failure(capsys):
    # (lam / sinh(lam s))^2 at s = 1e-300 lies past double range: finite
    # input with an overflowed result exits 3, with the profile's own message
    code = cli.run(["kernel", "--group", "heisenberg", "--s", "1e-300",
                    "--slice-lambda", "1", "--r", "0", "--n", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: the profile at lam=1.0, "
                                   "zeta=(1e-300+0j) must be finite, got "), captured.err


def test_kernel_time_domain_matches_the_library(capsys):
    code = cli.run(["kernel", "--group", "heisenberg", "--s", "1",
                    "--r", "0.5,1.0", "--t", "0.3"])
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    want = heat_kernel_grid(1.0, np.array([0.5, 1.0]), np.array([0.3, 0.3]))
    for row, w in zip(rows, want):
        assert float(row[1]) == pytest.approx(w.real, rel=1e-15)


def test_kernel_htype_routing(capsys, tmp_path):
    out = tmp_path / "h.csv"
    code = cli.run(["kernel", "--group", "htype", "--s", "1", "--k", "2",
                    "--v-norm", "0.5,1.0", "--t-norm", "0.4",
                    "--out", str(out)])
    assert code == 0
    header, rows = _rows(out.read_text())
    assert header == "r,re,im"
    want = htype_heat_batch(1.0, 1, 2, np.array([0.5, 1.0]), np.array([0.4, 0.4]))
    for row, w in zip(rows, want):
        assert float(row[1]) == pytest.approx(float(w), rel=1e-15)
    # the flag is mandatory for this group
    assert cli.run(["kernel", "--group", "htype", "--s", "1"]) == 2


def test_kernel_hermite_routing(capsys):
    code = cli.run(["kernel", "--group", "hermite", "--s", "0.35",
                    "--x", "0.3", "--y", "0.2"])
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    want = mehler_kernel(0.35, np.array([0.3]), 0.2)[0]
    assert complex(float(rows[0][1]), float(rows[0][2])) == pytest.approx(want)
    assert cli.run(["kernel", "--group", "hermite", "--s", "0.35"]) == 2


def test_verify_subcommand_text_and_json(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = cli.run(["verify", "--suite", "hermite", "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite hermite: PASS" in out
    doc = json.loads(report.read_text())
    assert doc["suite"] == "hermite" and doc["schema"] == 2 and doc["pass"]
    assert {"id", "params", "error", "tol", "pass", "ms", "warnings"} <= set(doc["checks"][0])


def test_verify_failure_exits_one(capsys, monkeypatch, tmp_path):
    failing = SuiteReport("hermite", (CheckRecord("x", {}, 1.0, 1e-6, False, 0.1),))
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=0: failing)
    assert cli.run(["verify", "--suite", "hermite"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # a failed check still writes the whole report
    report = tmp_path / "report.json"
    assert cli.run(["verify", "--suite", "hermite", "--json", str(report)]) == 1
    assert not json.loads(report.read_text())["pass"]


def test_verify_numerical_failure_leaves_the_report_file_empty(capsys, monkeypatch, tmp_path):
    # the file is opened before the suite runs, so a suite that raises
    # leaves it created and empty: no partial report can be read as one
    def fail(name, seed=0):
        raise cli.QuadratureError("no convergence")

    monkeypatch.setattr(cli, "run_suite", fail)
    report = tmp_path / "report.json"
    report.write_text("an older report")
    assert cli.run(["verify", "--suite", "hermite", "--json", str(report)]) == 3
    assert report.read_text() == ""
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_gate_hermite_margin_row(capsys):
    s0 = repr(math.pi / 4.0)
    code = cli.run(["gate", "--which", "hermite", "--a", "1", "--b", "1",
                    "--s0", s0])
    assert code == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == "a,b,s0,lambda,eps,margin,decision"
    assert len(rows) == 1
    a, b, s0_cell, lam, eps, margin, decision = rows[0]
    assert (lam, eps) == ("", "")           # unused axes stay blank
    assert float(margin) == pytest.approx(0.75, abs=1e-12)
    assert decision == "supercritical"


@pytest.mark.parametrize("which, a, b, s0, margin", [
    ("heisenberg", "1e200", "1e200", "1e199", 2.5e-3 - 0.25),
    ("heisenberg", "1e-310", "1e308", "1e-5", 2.5e-9 - 0.25),
    ("hermite", "1e300", "1e300", "1e-200", 4e200),
])
def test_gate_rows_at_extreme_rates_are_finite(capsys, which, a, b, s0, margin):
    # the margin formula overflows here; the row carries P - 1/4 instead
    assert cli.run(["gate", "--which", which, "--a", a, "--b", b, "--s0", s0]) == 0
    (row,) = _rows(capsys.readouterr().out)[1]
    assert float(row[5]) == pytest.approx(margin, rel=1e-12)


def test_gate_hermite_row_where_two_s0_overflows(capsys):
    # 2 s0 overflows at s0 = 1e308; the row reads sin^2(2 s0) - 1/4 all the same
    assert cli.run(["gate", "--which", "hermite", "--a", "1", "--b", "1", "--s0", "1e308"]) == 0
    (row,) = _rows(capsys.readouterr().out)[1]
    assert float(row[5]) == pytest.approx(0.40324007892175917, abs=1e-15)
    assert row[6] == "supercritical"


def test_gate_htype_margin_past_double_range_is_a_numerical_failure(capsys):
    # s0^2 - ab is about -9.9e399 here: exit 3 with the row's own message
    argv = ["gate", "--which", "htype", "--a", "1e200", "--b", "1e200", "--s0", "1e199"]
    assert cli.run(argv) == 3
    assert capsys.readouterr() == ("", "numerical failure: the gate margin is not finite "
                                       "at these inputs\n")


def test_gate_lattice_covers_the_product(capsys):
    code = cli.run(["gate", "--which", "heisenberg", "--a", "0.3,3.0",
                    "--b", "0.5", "--s0", "1.0", "--lambda", "0.0,0.5"])
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    decisions = {(r[0], r[3]): r[6] for r in rows}
    # ab < s0^2 leaves room below the Hardy threshold, ab > s0^2 does not
    assert decisions[("0.29999999999999999", "0")] == "supercritical"
    assert all(d == "subcritical" for (a, _), d in decisions.items()
               if a == "3")


def test_gate_without_an_axis_it_uses_is_a_usage_error(capsys):
    # an absent axis would leave an empty lattice, a CSV header with no row
    for argv, flag in ((["--which", "hankel"], "--a"),
                       (["--which", "hankel", "--b", "1"], "--a"),
                       (["--which", "heisenberg", "--a", "1", "--b", "1"], "--s0"),
                       (["--which", "hermite", "--a", "1", "--s0", "1"], "--b")):
        assert cli.run(["gate"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} is required" in captured.err
    # an axis that the gate does not use may stay absent
    assert cli.run(["gate", "--which", "hankel", "--a", "1", "--b", "1"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1


@pytest.mark.parametrize("argv", [
    ["kernel", "--group", "heisenberg", "--s", "1", "--r="],
    ["kernel", "--group", "heisenberg", "--s", "1", "--r=,"],
    ["kernel", "--group", "heisenberg", "--s", "1", "--r=1,,2"],
    ["kernel", "--group", "heisenberg", "--s", "1", "--r", "1,"],
    ["kernel", "--group", "heisenberg", "--s", "1", "--slice-lambda", "1", "--r="],
    ["kernel", "--group", "htype", "--s", "1", "--v-norm=0.5, ,1"],
    ["kernel", "--group", "hermite", "--s", "1", "--x="],
    ["gate", "--which", "heisenberg", "--a", "1", "--b", "1", "--s0", "1", "--lambda="],
    ["gate", "--which", "heisenberg", "--a", "1", "--b", "1", "--s0", "1", "--eps=,"],
    ["gate", "--which", "hankel", "--a", "1,,2", "--b", "1"],
], ids=["r-empty", "r-comma", "r-inner", "r-trailing", "slice-empty", "v-blank", "x-empty",
        "lambda-empty", "eps-comma", "a-inner"])
def test_empty_lists_and_empty_entries_are_usage_errors(argv, capsys):
    # an empty --r is not its default r = 0, an empty gate axis is not a
    # header with no row, and an empty entry is not left out of its list
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "every entry of a list must be a number" in captured.err


def test_an_omitted_radius_list_is_the_origin(capsys):
    assert cli.run(["kernel", "--group", "heisenberg", "--s", "1"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [float(row[0]) for row in rows] == [0.0]


def test_exit_codes_for_failure_classes(capsys):
    # numerical failure: evaluating the hermite kernel at a caustic
    assert cli.run(["kernel", "--group", "hermite", "--s", "0",
                    "--x", "0.0"]) == 3
    # domain error: nonpositive gate rate
    assert cli.run(["gate", "--which", "htype", "--a", "-1", "--b", "1",
                    "--s0", "1"]) == 2
    # argparse usage error
    assert cli.run(["kernel", "--group", "nosuch", "--s", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["kernel", "gate", "verify"])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(command, capsys, tmp_path,
                                                                monkeypatch):
    # exit 1 means a failed verify check: a path in a missing directory, or
    # a directory, exits 2 with one line and no traceback
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    argv = {"kernel": ["kernel", "--group", "heisenberg", "--s", "1", "--out", missing],
            "gate": ["gate", "--which", "htype", "--a", "1", "--b", "1", "--s0", "1",
                     "--out", str(tmp_path)],
            "verify": ["verify", "--suite", "radon", "--json", missing]}[command]
    # the path is tried before any work is done: no verify check runs
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("the suite ran"))
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_kernel_in_the_far_field_is_a_numerical_failure(capsys):
    # q_1(0, 30) is ~1e-40 of q_1(0, 0), far below what the coarse/fine
    # test of heat_kernel_grid can resolve: no rows, exit 3
    assert cli.run(["kernel", "--group", "heisenberg", "--s", "1",
                    "--r", "0,1", "--t", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "failed to converge" in captured.err


def test_kernel_past_the_node_budget_fails_before_building_the_rule(capsys):
    # at |t| = 1e12 the trapezoid step is ~4e-12: the rule would take about
    # 2e12 nodes, so the request exits 3 at once instead of allocating them
    assert cli.run(["kernel", "--group", "heisenberg", "--s", "9.31",
                    "--r", "0", "--t", "1e12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "would take" in captured.err and "nodes" in captured.err


@pytest.mark.parametrize("argv", [
    ["--group", "htype", "--k", "2", "--s", "1", "--v-norm", "0.5", "--t-norm", "1e12"],
    ["--group", "htype", "--k", "2", "--s", "0.01", "--v-norm", "0", "--t-norm", "1e307"],
    ["--group", "heisenberg", "--s", "0.01", "--r", "0", "--t", "1e307"],
], ids=["k2", "k2-step-underflows", "heisenberg-step-underflows"])
def test_kernel_past_the_node_budget_of_either_rule_fails_before_building_it(
        argv, capsys, monkeypatch):
    # at |t| = 1e12 the finer k = 2 rule would take about 2e13 nodes; at
    # d |t| past 1.8e308 the step underflows, and either rule would take
    # infinitely many: no factor table may be built
    def no_factors(*args):
        raise AssertionError("no node may be evaluated")

    monkeypatch.setattr(heisenberg, "_hyperbolic_factors", no_factors)
    assert cli.run(["kernel", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "would take" in captured.err and "nodes" in captured.err


@pytest.mark.parametrize("flags", [
    ["--group", "heisenberg", "--r"],
    ["--group", "htype", "--k", "1", "--v-norm"],
], ids=["heisenberg", "htype"])
def test_kernel_at_a_huge_time_reads_its_value(flags, capsys):
    # a finite time is valid input: at n = 1 both kernels are 1 / (16 s^2)
    # at the origin, which lies below double range at s = 1e300
    for s, r, want in (("1e300", "1", 0.0), ("1e100", "0", 1.0 / (16.0 * 1e200))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["kernel", "--s", s, *flags, r]) == 0
        _, rows = _rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert float(rows[0][2]) == 0.0


def test_parser_is_built_once_and_answers_each_request_alike(capsys):
    requests = (["kernel", "--group", "nope", "--s", "1"],
                ["kernel", "--group", "heisenberg", "--s", "1", "--r", "0.5,1"],
                ["gate", "--which", "hankel", "--a", "1,2", "--b", "0.1"])

    def answers():
        out = []
        for argv in requests:
            code = cli.run(argv)
            out.append((code, capsys.readouterr().out))
        return out

    first = answers()
    assert [code for code, _ in first] == [2, 0, 0]
    assert answers() == first
    assert cli._build_parser() is cli._build_parser()


def test_heisenberg_kernel_needs_a_positive_dimension(capsys):
    assert cli.run(["kernel", "--group", "heisenberg", "--n", "0", "--s", "1",
                    "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension n must be a positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["kernel", "--group", "heisenberg", "--s", "1", "--r", "0,1e200"],
    ["kernel", "--group", "heisenberg", "--s", "1", "--r", "0,1e200", "--slice-lambda", "1"],
    ["kernel", "--group", "htype", "--s", "1", "--k", "2", "--v-norm", "1e200"],
], ids=["tkernel", "slice", "htype"])
def test_kernel_rows_far_past_the_peak_read_zero_without_warnings(argv, capsys):
    # 1e200 has no finite square: its row underflows to exactly 0, and no
    # overflow warning of numpy reaches stderr on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv) == 0
    _, rows = _rows(capsys.readouterr().out)
    far = [row[1:] for row in rows if float(row[0]) == 1e200]
    assert len(far) == 1 and float(far[0][0]) == float(far[0][1]) == 0.0


def test_hermite_kernel_without_a_finite_value_fails_quietly(capsys):
    # 1.4e154 has no finite square, so the Mehler kernel is not finite:
    # exit 3 and no row, with no numpy RuntimeWarning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(["kernel", "--group", "hermite", "--s", "1", "--x", "1.4e154"]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == ""
    # mehler_kernel itself refuses the value, naming the first bad row
    assert "the kernel must be finite, got (nan+nanj) at index (0,)" in captured.err


@pytest.mark.parametrize("argv", [
    ["gate", "--which", "heisenberg", "--a", "nan", "--b", "1", "--s0", "1"],
    ["gate", "--which", "hermite", "--a", "1", "--b", "inf", "--s0", "1"],
    ["kernel", "--group", "heisenberg", "--s", "nan", "--r=0.5,1"],
    ["kernel", "--group", "heisenberg", "--s", "inf", "--r=0.5,1"],
    ["kernel", "--group", "heisenberg", "--s", "1", "--r", "0.5,-inf"],
], ids=["gate-nan", "gate-inf", "kernel-nan", "kernel-inf", "list-inf"])
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    assert cli.run(argv) == 2
    assert capsys.readouterr().out == ""


def test_list_value_with_a_leading_minus_is_a_value(capsys):
    code = cli.run(["kernel", "--group", "hermite", "--s", "0.35",
                    "--x", "-1.5,0.3", "--y", "-0.2"])
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    want = mehler_kernel(0.35, np.array([-1.5, 0.3]), -0.2)
    assert [float(row[0]) for row in rows] == [-1.5, 0.3]
    for row, w in zip(rows, want):
        assert complex(float(row[1]), float(row[2])) == pytest.approx(w)


def test_hermite_kernel_needs_n_one(capsys):
    assert cli.run(["kernel", "--group", "hermite", "--n", "2", "--s", "0.35",
                    "--x=0.1,0.2,0.3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra", [
    ["--v-norm=-0.5,1.0"],
    ["--v-norm", "0.5", "--t-norm=-0.4"],
    ["--v-norm", "0.5,nan"],
    ["--v-norm", "0.5", "--t-norm", "inf"],
], ids=["v-negative", "t-negative", "v-nan", "t-inf"])
def test_htype_kernel_rejects_norms_outside_the_domain(extra, capsys):
    assert cli.run(["kernel", "--group", "htype", "--s", "1", "--k", "2"] + extra) == 2
    assert capsys.readouterr().out == ""


def test_htype_dimensions_are_checked_on_the_batch_path(capsys):
    assert cli.run(["kernel", "--group", "htype", "--k", "4", "--s", "1",
                    "--v-norm", "0.5,1.0"]) == 2
    assert cli.run(["kernel", "--group", "htype", "--n", "0", "--s", "1",
                    "--v-norm", "0.5,1.0"]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match="center dimension k must be 1, 2 or 3"):
        htype_heat_batch(1.0, 1, 4, np.array([0.5]), np.array([0.0]))
