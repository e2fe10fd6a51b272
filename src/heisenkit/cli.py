"""Command-line front door.

Three subcommands: `kernel` evaluates heat/propagator kernels on a grid and
emits CSV, `verify` runs the cross-module identity suites and emits a JSON
report, `gate` sweeps the uniqueness gates over a parameter lattice.

Exit codes are a stable contract: 0 pass, 1 check failure, 2 usage error,
3 numerical failure.
"""

import argparse
import contextlib
import functools
import itertools
import json
import re
import sys

import numpy as np

from ._checks import NonFiniteResult, finite, one_dimensional
from .hankel import DegenerateFitError, hardy_gate
from .heisenberg import heat_kernel_grid, heat_kernel_lambda
from .hermite import CausticError, hermite_gate, mehler_kernel
from .htype import htype_gate, htype_heat_batch
from .propagator import DecayDomainError, ExceptionalLambdaError, uniqueness_gate
from .quadrature import QuadratureError
from .verify import SUITE_NAMES, run_suite


# ArithmeticError takes in NonFiniteResult and the OverflowError of Python
# float and complex powers at extreme inputs
_NUMERICAL_ERRORS = (QuadratureError, CausticError, DecayDomainError,
                     ExceptionalLambdaError, DegenerateFitError,
                     np.linalg.LinAlgError, ArithmeticError)


def _finite(text):
    """The one parser for CLI numbers: a finite float, else a usage error."""
    try:
        value = float(text)
        finite("a number", value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    return value


def _finite_list(text):
    """A comma list of CLI numbers.  An empty list, or an empty entry in
    one, is a usage error, not a list with that entry left out."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise argparse.ArgumentTypeError(f"every entry of a list must be a number, got {text!r}")
    return [_finite(tok) for tok in tokens]


_SIGNED_VALUE = re.compile(r"-[\d.]")


def _attach_signed_values(argv):
    """Rewrite `--opt -1,2` as `--opt=-1,2`.  argparse reads a token that
    starts with a minus sign and is not a plain number as a flag; no flag of
    this CLI starts with a minus sign followed by a digit or a dot."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _SIGNED_VALUE.match(tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _fmt(x):
    return "%.17g" % float(x)


def _require_finite(values, what):
    """No row with a non-finite cell leaves with exit 0."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteResult(f"the {what} is not finite at these inputs")


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_kernel(args):
    if args.group == "heisenberg":
        axis = np.array(args.r)
        if args.slice_lambda is not None:
            vals = np.asarray(heat_kernel_lambda(args.s, args.slice_lambda,
                                                 axis, args.n), dtype=complex)
        else:
            vals = heat_kernel_grid(args.s, axis, np.full(axis.shape, args.t),
                                    args.n)
    elif args.group == "htype":
        if args.v_norm is None:
            args.parser.error("--v-norm is required for --group htype")
        axis = np.array(args.v_norm)
        vals = np.asarray(htype_heat_batch(args.s, args.n, args.k, axis,
                                           np.full(axis.shape, args.t_norm)),
                          dtype=complex)
    else:
        if args.x is None:
            args.parser.error("--x is required for --group hermite")
        axis = np.array(args.x)
        one_dimensional(args.n, "--group hermite, one --x coordinate per row,")
        vals = np.atleast_1d(mehler_kernel(args.s, axis, args.y, args.n))
    _require_finite(vals, "kernel")
    lines = ["r,re,im"]
    for rr, vv in zip(axis, vals):
        lines.append(f"{_fmt(rr)},{_fmt(vv.real)},{_fmt(vv.imag)}")
    _emit(lines, args.out)
    return 0


def _cmd_verify(args):
    # the report's file is opened before any check runs, so that a path that
    # cannot be written exits 2 at once; on exit 3 the file is left empty
    with open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext() as fh:
        report = run_suite(args.suite, seed=args.seed)
        lines = []
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.id:34s} error={c.error:.3e}  tol={c.tol:.1e}  "
                         f"{status}  ({c.ms:8.1f} ms)")
        lines.append(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
                     f"({len(report.checks)} checks)")
        sys.stdout.write("\n".join(lines) + "\n")
        if fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0 if report.passed else 1


_GATE_COLUMNS = {
    "hankel": ("a", "b"),
    "heisenberg": ("a", "b", "s0", "lam", "eps"),
    "htype": ("a", "b", "s0"),
    "hermite": ("a", "b", "s0"),
}


def _gate_row(which, row):
    if which == "hankel":
        return row["a"] * row["b"] - 0.25, hardy_gate(row["a"], row["b"])
    if which == "heisenberg":
        margin, ok = uniqueness_gate(row["a"], row["b"], row["s0"], row["eps"], row["lam"])
    elif which == "htype":
        ok = htype_gate(row["a"], row["b"], row["s0"])
        # s0 * s0 overflows to inf where s0 ** 2 raises: _require_finite sees it
        margin = row["s0"] * row["s0"] - row["a"] * row["b"]
    else:
        margin, ok = hermite_gate(row["a"], row["b"], row["s0"])
    return margin, "supercritical" if ok else "subcritical"


def _cmd_gate(args):
    used = _GATE_COLUMNS[args.which]
    axes = {"a": args.a, "b": args.b, "s0": args.s0, "lam": args.lam,
            "eps": args.eps}
    for c in used:
        if axes[c] is None:     # only --a, --b and --s0 have no default
            args.parser.error(f"--{c} is required for --which {args.which}")
    lines = ["a,b,s0,lambda,eps,margin,decision"]
    for combo in itertools.product(*(axes[c] for c in used)):
        row = dict(zip(used, combo))
        margin, decision = _gate_row(args.which, row)
        _require_finite(margin, "gate margin")
        cells = [_fmt(row[c]) if c in row else "" for c in
                 ("a", "b", "s0", "lam", "eps")]
        lines.append(",".join(cells + [_fmt(margin), decision]))
    _emit(lines, args.out)
    return 0


@functools.cache
def _build_parser():
    """The one parser of every `run`, built on the first call: parsing
    leaves it unchanged, and string defaults are converted on each parse."""
    parser = argparse.ArgumentParser(
        prog="heisenkit",
        description="Heat and Schrodinger kernels on the Heisenberg group: "
                    "kernel evaluation, identity verification, decay gates.")
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="evaluate a kernel profile as CSV")
    pk.add_argument("--group", choices=("heisenberg", "htype", "hermite"),
                    required=True)
    pk.add_argument("--n", type=int, default=1, help="underlying dimension n")
    pk.add_argument("--s", type=_finite, required=True, help="time parameter")
    pk.add_argument("--slice-lambda", dest="slice_lambda", type=_finite,
                    default=None,
                    help="evaluate the lambda-slice instead of the t-kernel")
    pk.add_argument("--r", type=_finite_list, default="0",
                    help="comma-separated |z| values")
    pk.add_argument("--t", type=_finite, default=0.0, help="center coordinate")
    pk.add_argument("--k", type=int, default=1, help="center dimension (htype)")
    pk.add_argument("--v-norm", dest="v_norm", type=_finite_list, default=None,
                    help="comma-separated |v| values (htype)")
    pk.add_argument("--t-norm", dest="t_norm", type=_finite, default=0.0)
    pk.add_argument("--x", type=_finite_list, default=None,
                    help="comma-separated x values (hermite)")
    pk.add_argument("--y", type=_finite, default=0.0, help="y value (hermite)")
    pk.add_argument("--out", default=None, help="write CSV here, else stdout")
    pk.set_defaults(fn=_cmd_kernel, parser=pk)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=SUITE_NAMES, default="all")
    pv.add_argument("--json", default=None, help="write the JSON report here")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(fn=_cmd_verify, parser=pv)

    pg = sub.add_parser("gate", help="sweep a uniqueness gate as CSV")
    pg.add_argument("--which",
                    choices=("hankel", "heisenberg", "htype", "hermite"),
                    required=True)
    pg.add_argument("--a", type=_finite_list, default=None,
                    help="comma-separated decay rates")
    pg.add_argument("--b", type=_finite_list, default=None,
                    help="comma-separated decay rates")
    pg.add_argument("--s0", type=_finite_list, default=None,
                    help="comma-separated times")
    pg.add_argument("--lambda", dest="lam", type=_finite_list, default="0")
    pg.add_argument("--eps", type=_finite_list, default="0")
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=_cmd_gate, parser=pg)
    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(
            sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # NotImplementedError: an n without an engine; OSError: an output path that cannot be written
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
