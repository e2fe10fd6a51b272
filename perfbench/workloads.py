"""The benchmark's two workloads.

Each workload builds its inputs from the seed (`build`), runs one pass of
operations in a closed loop, timing each operation (`run_pass`), and checks
each result against an independent route after the timed region (`check`).

* verify        the package's own check suites through `run_suite`; twisted
                convolution does most of the work.
* kernel-tables vectorised kernel tables with a lot of shared structure
                (64 unique radii per table), no twisted convolution, and
                one round of single-point requests through `cli.run` and the
                pointwise API, malformed and out-of-domain ones included.

An operation's `known` flag marks the failures the package has today: the
input-contract defects listed in ROADMAP.md, the complex-time grid that
does not converge and the k = 3 h-type kernel's round-off stop at small s.
They are counted as failures like any other; the flag only separates them
from new failures when the run decides `correct`.
"""

import contextlib
import io
import math
import time
from dataclasses import dataclass

import numpy as np

_INF = float("inf")


@dataclass
class Op:
    label: str
    call: object                 # zero-argument callable, the timed part
    expect: object = None        # what the check needs besides the output
    known: bool = False
    seconds: float = 0.0
    out: object = None
    exc: BaseException | None = None


@dataclass
class Outcome:
    ok: bool
    err_ratio: float | None = None   # error / tolerance, when there is one
    note: str = ""
    wrong_exit: bool = False         # a CLI request ended with another exit code


def _timed(op):
    t0 = time.perf_counter()
    try:
        op.out = op.call()
    except Exception as exc:     # any exception is a failed operation
        op.exc = exc
    op.seconds = time.perf_counter() - t0
    return op


def _rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return _INF
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(got - ref))) / scale


def _graded(err, tol):
    return Outcome(err <= tol, err / tol)


# --------------------------------------------------------------------------
# verify

class Verify:
    """`run_suite` on the suites that fit one run: a full `--suite all` pass
    takes about 190 s on 2 cores, over the per-run limit, so hecke-bochner
    (95 s), gates (57 s) and radon (18 s) are left out.  Each check is one
    operation; its latency is the check's own `ms`."""
    SUITES = ("hankel", "hille-hardy", "semigroup", "theorem34", "hermite")

    def __init__(self, hk):
        self.hk = hk

    def build(self, seed):
        return [seed] * 8        # every pass reruns the same seeded suites

    def run_pass(self, seed):
        ops = []
        for name in self.SUITES:
            op = _timed(Op(f"suite {name}", lambda name=name: self.hk.run_suite(name, seed)))
            if op.exc is not None:
                ops.append(op)
                continue
            ops.extend(Op(c.id, None, out=c, seconds=c.ms / 1000.0) for c in op.out.checks)
        return ops

    def check(self, op):
        if op.exc is not None:
            return Outcome(False, None, f"{type(op.exc).__name__}: {op.exc}")
        c = op.out
        return Outcome(c.passed, c.error / c.tol if c.tol > 0 else None)


# --------------------------------------------------------------------------
# kernel-tables

def _axis(rng, lo, hi, size):
    """`size` sorted distinct values in [lo, hi] that include both ends, so
    the span (and with it every panel count) is the same for all seeds."""
    inner = np.sort(rng.uniform(lo, hi, size - 2))
    return np.concatenate([[lo], inner, [hi]])


class KernelTables:
    ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0)

    def __init__(self, hk):
        self.hk = hk
        self.plans = {}
        self.requests = Requests(hk)

    def build(self, seed):
        hk = self.hk
        self.plans = {a: hk.hankel_plan(a, r_max=9.0, s_max=5.0) for a in self.ORDERS}
        rng = np.random.default_rng(seed)
        return [self._ops(rng) + self.requests.build(rng, i) for i in range(32)]

    def _ops(self, rng):
        import oracles as O
        hk = self.hk
        r = _axis(rng, 0.0, 4.0, 64)
        t32, t16, t8 = (_axis(rng, -3.0, 3.0, m) for m in (32, 16, 8))
        ops = [
            Op("heat_kernel_grid real 64x32",
               lambda: hk.heat_kernel_grid(1.0, r[:, None], t32[None, :]),
               ("heat", 1.0, r, t32, 1e-8)),
            Op("heat_kernel_grid complex 64x16",
               lambda: hk.heat_kernel_grid(1.0 + 0.5j, r[:, None], t16[None, :]),
               ("heat", 1.0 + 0.5j, r, t16, 1e-8)),
            # QuadratureError today: the coarse/fine self-check fails at Re zeta = 0.3
            Op("heat_kernel_grid complex 64x8 at 0.3+1i",
               lambda: hk.heat_kernel_grid(0.3 + 1.0j, r[:, None], t8[None, :]),
               ("heat", 0.3 + 1.0j, r, t8, 1e-8), known=True),
        ]
        rho, tau = _axis(rng, 0.1, 3.0, 64), _axis(rng, 0.0, 3.0, 16)
        for k in (1, 2, 3):
            ops.append(Op(f"htype_heat_batch k={k} 64x16",
                          lambda k=k: hk.htype_heat_batch(1.0, 1, k, rho[:, None], tau[None, :]),
                          ("htype", k, rho, tau, 1e-7)))
        v, t = rng.uniform(0.4, 2.0, 1), rng.uniform(-1.5, 1.5, 1)
        ops.append(Op("radon_heat_profile k=2 1x1",
                      lambda: hk.radon_heat_profile(1.0, v, t, n=1, k=2),
                      ("heat", 1.0, v, t, 1e-4)))
        s = _axis(rng, 0.0, 5.0, 300)
        for alpha in self.ORDERS:
            plan, a = self.plans[alpha], rng.uniform(0.5, 2.0)
            f = np.exp(-a * plan.r_nodes ** 2)
            ops.append(Op(f"hankel_transform order {alpha}",
                          lambda plan=plan, f=f: hk.hankel_transform(plan, f, s).values,
                          ("hankel", alpha, a, s, 1e-8)))
        x = np.linspace(-8.0, 8.0, 512)
        near = math.pi / 2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.0095, 0.0105)
        for tag, sv in (("", rng.uniform(0.3, 1.2)), (" near caustic", near)):
            k = int(rng.integers(0, 5))
            ops.append(Op(f"hermite_evolve 1-d{tag}",
                          lambda k=k, sv=sv: hk.hermite_evolve(
                              lambda y: O.hermite_fn(k, y).astype(complex), sv, x=x),
                          ("hermite", sv, 2 * k + 1, O.hermite_fn(k, x), 1e-8)))
        # at these times the y-rule is refined past the samples, so the cubic
        # spline through them sets the accuracy: about 3e-5 on this grid
        x2, s2 = np.linspace(-8.0, 8.0, 112), rng.uniform(0.3, 0.55)
        f2 = np.outer(O.hermite_fn(2, x2), O.hermite_fn(3, x2)).astype(complex)
        ops.append(Op("hermite_evolve 2-d 112x112",
                      lambda: hk.hermite_evolve(f2, s2, x=x2),
                      ("hermite", s2, 12, f2, 1e-4)))
        return ops

    def run_pass(self, ops):
        return [_timed(op) for op in ops]

    def check(self, op):
        import oracles as O
        if op.exc is not None:
            return Outcome(False, None, f"{type(op.exc).__name__}: {op.exc}")
        if op.label.startswith("cli "):
            return self.requests.check_cli(op)
        if op.label.startswith("api "):
            return self.requests.check_api(op)
        kind, *args = op.expect
        if kind == "heat":
            zeta, r, t, tol = args
            ref = O.heat_kernel(zeta, r, t)
        elif kind == "htype":
            k, rho, tau, tol = args
            ref = O.htype_kernel(1.0, 1, k, rho, tau)
        elif kind == "hankel":
            alpha, a, s, tol = args
            ref = O.hankel_gaussian(alpha, a, s)
        else:
            s, phase_mult, f, tol = args
            ref = np.exp(-1j * phase_mult * s) * f
        return _graded(_rel_err(op.out, ref), tol)


# --------------------------------------------------------------------------
# single-point requests

def _f(x):
    return repr(float(x))


def _flist(xs):
    """A CLI list value.  Requests pass lists and signed numbers as
    --opt=VALUE, so a value starting with a minus sign is read as a value;
    the edge request "negative-list" covers the --opt VALUE form, which
    argparse reads as a flag."""
    return ",".join(_f(x) for x in xs)


def _cli(hk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hk.cli.run(argv)
    return code, out.getvalue()


def _csv(text):
    lines = text.strip().splitlines() or [""]
    return lines[0], [line.split(",") for line in lines[1:]]


# One round: every CLI kernel group and gate and every pointwise API
# function, each with fresh continuous parameters, then every edge kind.
_REQUESTS = ("slice", "tkernel", "htype", "hermite", "gate-heisenberg", "gate-hankel",
             "gate-htype", "gate-hermite", "heat_kernel", "htype_heat_kernel", "kernel_K",
             "hille_hardy", "gate_lambda_window")
_EDGE_KINDS = ("gate-nan", "gate-inf", "kernel-nan", "kernel-inf",
               "hermite-n2", "htype-k4", "negative-list", "htype-roundoff",
               "negative-rate", "caustic", "bad-token", "missing-arg")


class Requests:
    """Single-point requests, where per-call overhead dominates: argument
    parsing and CSV output in the CLI, scalar specfun calls and adaptive
    quadrature.  `build(rng, index)` makes one round; the index turns the
    discrete choices (h-type k, point dimension, Laguerre indices)."""

    def __init__(self, hk):
        self.hk = hk

    def build(self, rng, index):
        return ([self._request(rng, kind, index) for kind in _REQUESTS]
                + [self._edge(rng, kind) for kind in _EDGE_KINDS])

    def _request(self, rng, slot, index):
        u = rng.uniform
        if slot == "slice":
            s, lam, r = u(0.5, 1.5), u(0.2, 3.0), u(0.0, 3.0, 3)
            argv = ["kernel", "--group", "heisenberg", "--s", _f(s),
                    "--slice-lambda", _f(lam), "--r=" + _flist(r)]
            return self._cli(slot, argv, ("slice", s, lam, r, 1e-10))
        if slot == "tkernel":
            s, r, t = u(0.5, 1.5), u(0.0, 3.0, 2), u(-2.5, 2.5)
            argv = ["kernel", "--group", "heisenberg", "--s", _f(s),
                    "--r=" + _flist(r), "--t=" + _f(t)]
            return self._cli(slot, argv, ("tkernel", s, r, t, 1e-8))
        if slot == "htype":
            k = 1 + index % 3
            s, v, t = u(0.6, 1.4), u(0.1, 2.5, 2), u(0.0, 2.5)
            argv = ["kernel", "--group", "htype", "--s", _f(s), "--k", str(k),
                    "--v-norm=" + _flist(v), "--t-norm", _f(t)]
            return self._cli(slot, argv, ("htype", s, k, v, t, 1e-7))
        if slot == "hermite":
            s, x, y = u(0.1, 1.4), u(-3.0, 3.0, 3), u(-2.0, 2.0)
            argv = ["kernel", "--group", "hermite", "--s", _f(s),
                    "--x=" + _flist(x), "--y=" + _f(y)]
            return self._cli(slot, argv, ("hermite", s, x, y, 1e-10))
        if slot.startswith("gate-"):
            which = slot[5:]
            a, b, s0 = u(0.1, 2.0, 2), u(0.1, 2.0), u(0.2, 2.0)
            argv = ["gate", "--which", which, "--a=" + _flist(a), "--b", _f(b)]
            if which != "hankel":
                argv += ["--s0", _f(s0)]
            lam, eps = u(0.0, 3.0, 2), u(0.0, 0.1)
            if which == "heisenberg":
                argv += ["--lambda=" + _flist(lam), "--eps", _f(eps)]
            return self._cli(slot, argv, ("gate", which, a, b, s0, lam, eps))
        return self._api(rng, slot, index)

    def _cli(self, label, argv, expect, code=0, known=False):
        hk = self.hk
        return Op("cli " + label, lambda: _cli(hk, argv), (code, argv, expect), known)

    def _api(self, rng, slot, index):
        hk, u = self.hk, rng.uniform
        if slot == "heat_kernel":
            n = 1 + index % 2
            zeta = (u(0.6, 1.4) if index % 3 else complex(u(0.8, 1.2), u(-0.6, 0.6)))
            z = tuple(complex(u(-1.2, 1.2), u(-1.2, 1.2)) for _ in range(n))
            t = u(-2.0, 2.0)
            return Op("api " + slot, lambda: hk.heat_kernel(zeta, hk.HeisenbergPoint(z, t)),
                      (zeta, n, z, t, 1e-8))
        if slot == "htype_heat_kernel":
            # below s = 0.95 the k = 3 integral can stop on QUADPACK round-off
            # (rarely at these draws); the edge request "htype-roundoff" keeps
            # that failure in every pass
            k = 1 + index % 3
            s, v, t = u(0.6, 1.4), u(-1.5, 1.5, 2), u(-1.5, 1.5, k)
            return Op("api " + slot,
                      lambda: hk.htype_heat_kernel(s, hk.HTypePoint(tuple(v), tuple(t))),
                      (s, k, v, t, 1e-7), known=k == 3 and s < 0.95)
        if slot == "kernel_K":
            p0, q0 = ((0, 0), (1, 0), (0, 1))[index % 3]
            lam = u(0.5, 1.5)
            s0 = u(0.8, 2.3) / lam          # keeps w = e^{-2i lam s0} away from 1
            r, t = u(0.3, 1.8), u(0.3, 1.8)
            return Op("api " + slot, lambda: hk.kernel_K(lam, r, t, s0, 1, p0, q0),
                      (lam, r, t, s0, p0, q0))
        if slot == "hille_hardy":
            alpha, x, y = u(0.0, 2.5), u(0.0, 4.0), u(0.0, 4.0)
            w = u(0.0, 0.7) * np.exp(1j * u(0.0, 2.0 * math.pi))
            return Op("api " + slot, lambda: hk.hille_hardy(alpha, x, y, w), (alpha, x, y, w))
        a, b, s0, eps = u(0.1, 1.5), u(0.1, 1.5), u(0.3, 1.5), u(0.0, 0.05)
        return Op("api " + slot, lambda: hk.gate_lambda_window(a, b, s0, eps), (a, b, s0, eps))

    def _edge(self, rng, kind):
        """Malformed, out-of-domain or hard requests and what the README
        promises for each.  The first eight fail today: NaN and inf reach
        gates and kernels, hermite --n 2 flattens the x list, htype accepts
        k = 4, a list starting with a minus sign is read as a flag (all in
        ROADMAP.md), and the adaptive k = 3 h-type kernel stops on QUADPACK
        round-off at s = 0.7, |t| = 2.4."""
        u = rng.uniform
        if kind == "htype-roundoff":
            s, v = u(0.69, 0.71), (u(0.05, 0.3), 0.0)
            t = u(2.35, 2.55) * np.array([1.0, 0.0, 0.0])
            hk = self.hk
            return Op("api edge htype-roundoff",
                      lambda: hk.htype_heat_kernel(s, hk.HTypePoint(v, tuple(t))),
                      (s, 3, v, t, 1e-7), known=True)
        a, b, s0, s = u(0.1, 2.0), u(0.1, 2.0), u(0.2, 2.0), u(0.5, 1.5)
        if kind == "gate-nan":
            argv = ["gate", "--which", "heisenberg", "--a", "nan", "--b", _f(b), "--s0", _f(s0)]
        elif kind == "gate-inf":
            argv = ["gate", "--which", "hermite", "--a", _f(a), "--b", "inf", "--s0", _f(s0)]
        elif kind == "kernel-nan":
            argv = ["kernel", "--group", "heisenberg", "--s", "nan", "--r=" + _flist(u(0, 3, 2)),
                    "--t=" + _f(u(-2, 2))]
        elif kind == "kernel-inf":
            argv = ["kernel", "--group", "heisenberg", "--s", "inf", "--r=" + _flist(u(0, 3, 2)),
                    "--t=" + _f(u(-2, 2))]
        elif kind == "hermite-n2":
            argv = ["kernel", "--group", "hermite", "--n", "2", "--s", _f(u(0.1, 1.4)),
                    "--x=" + _flist(u(-2, 2, 3))]
        elif kind == "htype-k4":
            argv = ["kernel", "--group", "htype", "--k", "4", "--s", _f(s),
                    "--v-norm=" + _flist(u(0.1, 2.5, 2)), "--t-norm", _f(u(0, 2))]
        elif kind == "negative-list":
            # valid input: the contract asks for exit 0 and the right rows
            sv, x, y = u(0.1, 1.4), [-u(0.1, 3.0), u(-3.0, 3.0)], u(-2.0, 2.0)
            argv = ["kernel", "--group", "hermite", "--s", _f(sv), "--x", _flist(x),
                    "--y=" + _f(y)]
            return self._cli("edge " + kind, argv, ("hermite", sv, np.array(x), y, 1e-10),
                             known=True)
        elif kind == "negative-rate":
            argv = ["gate", "--which", "heisenberg", "--a", _f(-a), "--b", _f(b), "--s0", _f(s0)]
        elif kind == "caustic":
            sc = float(rng.integers(1, 3)) * math.pi / 2 + u(-4e-7, 4e-7)
            argv = ["kernel", "--group", "hermite", "--s", _f(sc), "--x=" + _flist(u(-2, 2, 2))]
            return self._cli("edge " + kind, argv, None, code=3)
        elif kind == "bad-token":
            argv = ["gate", "--which", "hankel", "--a", f"{_f(a)},{a:.3f}e", "--b", _f(b)]
        else:
            argv = ["kernel", "--group", "htype", "--s", _f(s), "--t-norm", _f(u(0, 2))]
        known = kind in _EDGE_KINDS[:7]
        return self._cli("edge " + kind, argv, None, code=2, known=known)

    def check_cli(self, op):
        import oracles as O
        want_code, argv, expect = op.expect
        code, text = op.out
        if code != want_code:
            return Outcome(False, None, f"exit {code}, want {want_code}: {' '.join(argv)}", True)
        if expect is None:
            return Outcome(True)
        header, rows = _csv(text)
        kind, *args = expect
        if kind == "gate":
            return self._check_gate(header, rows, *args)
        try:
            cells = np.array([[float(c) for c in row] for row in rows])
        except ValueError:
            return Outcome(False, None, "unparsable CSV")
        if header != "r,re,im" or cells.ndim != 2 or cells.shape[1] != 3:
            return Outcome(False, None, "bad CSV shape")
        got = cells[:, 1] + 1j * cells[:, 2]
        if kind == "slice":
            s, lam, r, tol = args
            axis, ref = r, O.heat_slice(s, lam, r)
        elif kind == "tkernel":
            s, r, t, tol = args
            axis, ref = r, O.heat_kernel(s, r, [t])[:, 0]
        elif kind == "htype":
            s, k, v, t, tol = args
            axis, ref = v, O.htype_kernel(s, 1, k, v, [t])[:, 0]
        else:
            s, x, y, tol = args
            axis, ref = x, O.mehler(s, x, y)
        if cells.shape[0] != len(axis) or not np.array_equal(cells[:, 0], axis):
            return Outcome(False, None, "rows do not match the requested points")
        return _graded(_rel_err(got, ref), tol)

    @staticmethod
    def _check_gate(header, rows, which, a, b, s0, lam, eps):
        import oracles as O
        if header != "a,b,s0,lambda,eps,margin,decision":
            return Outcome(False, None, "bad gate header")
        if which == "hankel":
            want = [(ai, ai * b - 0.25) for ai in a]
        elif which == "htype":
            want = [(ai, s0 * s0 - ai * b) for ai in a]
        elif which == "hermite":
            want = [(ai, ai * b * math.sin(2.0 * s0) ** 2 - 0.25) for ai in a]
        else:
            want = [(ai, O.heisenberg_margin(ai, b, s0, li, eps)) for ai in a for li in lam]
        if len(rows) != len(want):
            return Outcome(False, None, "gate rows do not cover the lattice")
        worst = 0.0
        for row, (ai, margin) in zip(rows, want):
            got = float(row[5])
            decision = "supercritical" if margin > 0 else "subcritical"
            if float(row[0]) != ai or row[6] != decision or not math.isfinite(got):
                return Outcome(False, None, f"gate row {row} disagrees")
            worst = max(worst, abs(got - margin) / max(abs(margin), 0.25))
        return _graded(worst, 1e-12)

    @staticmethod
    def check_api(op):
        import oracles as O
        label, e = op.label[4:], op.expect
        if label == "heat_kernel":
            zeta, n, z, t, tol = e
            rnorm = math.sqrt(sum(abs(c) ** 2 for c in z))
            return _graded(_rel_err(op.out, O.heat_kernel(zeta, [rnorm], [t], n)[0, 0]), tol)
        if label in ("htype_heat_kernel", "edge htype-roundoff"):
            s, k, v, t, tol = e
            ref = O.htype_kernel(s, 1, k, [np.hypot(*v)], [np.linalg.norm(t)])[0, 0]
            return _graded(_rel_err(op.out, ref), tol)
        # Both return (series, closed form).  The series is graded at the
        # tolerance of its verify check, the closed form at 1e-10.  Errors
        # are taken relative to the kernel's size with the Bessel factor at
        # its value at 0, since the kernels themselves pass through zeros.
        if label == "kernel_K":
            lam, r, t, s0, p0, q0 = e
            m = 1 + p0 + q0
            scale = abs(2.0 * math.sin(lam * s0)) ** -m / math.gamma(m)
            return _pair(op.out, O.kernel_K_closed(lam, r, t, s0, 1, p0, q0), scale, 1e-4)
        if label == "hille_hardy":
            alpha, x, y, w = e
            scale = abs((1.0 - w) ** -(alpha + 1.0) * np.exp(-w * (x + y) / (1.0 - w))) \
                / math.gamma(alpha + 1.0)
            return _pair(op.out, O.hille_hardy_closed(alpha, x, y, w), scale, 1e-6)
        a, b, s0, eps = e
        ref = O.lambda_window(a, b, s0, eps)
        if ref is None or op.out is None:
            return Outcome(ref is None and op.out is None, None)
        return _graded(abs(op.out - ref) / ref, 1e-9)


def _pair(out, ref, scale, tol):
    series, closed = out
    scale = max(scale, abs(ref))
    ratio = max(abs(series - ref) / tol, abs(closed - ref) / 1e-10) / scale
    return Outcome(bool(ratio <= 1.0), float(ratio))


WORKLOADS = {"verify": Verify, "kernel-tables": KernelTables}
