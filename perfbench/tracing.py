"""Span tracing of heisenkit's layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module (the
functions a module defines under a name without a leading underscore) and
rebinds the wrapper wherever a heisenkit module holds that function, so a
call between modules is traced as well as a call from the benchmark.
Calls to private helpers stay inside their caller's span.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, at the end, by `Tracer.save`.  A layer's self time is the
summed duration of its spans minus the part covered by their child spans.
An error is an exception that escapes the package, counted once, in the
layer it first left.  An exception the package handles itself (a verify
check that expects one, the CLI turning one into an exit code) is not an
error; the caller adds the CLI requests whose exit code is not the one they
expect to `errors["cli"]`.  Work counts
are taken at the same boundaries, from arguments and results, and skipped
directly inside a span that takes the same count (laguerre_fn calling
laguerre, gauss_interval calling gauss_panels), so no work counts twice.
"""

import functools
import inspect
import re
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specfun", "quadrature", "grids", "hankel", "heisenberg", "spherical",
          "twisted", "propagator", "hermite", "htype", "verify", "cli")

WORK_COUNTS = ("specfun.points", "quadrature.integrand_evals",
               "quadrature.panel_nodes", "hankel.kernel_entries",
               "heisenberg.grid_points", "htype.batch_points",
               "twisted.gather_pairs")

# the package's hand-written truncation warnings all say one of these
_TRUNCATION = re.compile(r"truncat|dropped by zero extension|has not decayed")


def _out_size(args, kwargs, out):
    return 1 if isinstance(out, tuple) else int(np.size(out))


def _panel_nodes(args, kwargs, out):
    return int(np.size(out[0]))


def _kernel_entries(args, kwargs, out):
    plan, s_grid = args[0], args[2] if len(args) > 2 else kwargs["s_grid"]
    return plan.r_nodes.size * int(np.size(s_grid))


def _gather_pairs(args, kwargs, out):
    grid = args[0].grid
    return (grid.r.size * grid.omega.shape[0]) ** 2


# function -> (work count, its value from (args, kwargs, result))
_COUNTERS = {
    "quadrature.gauss_panels": ("quadrature.panel_nodes", _panel_nodes),
    "quadrature.gauss_interval": ("quadrature.panel_nodes", _panel_nodes),
    "hankel.hankel_transform": ("hankel.kernel_entries", _kernel_entries),
    "heisenberg.heat_kernel_grid": ("heisenberg.grid_points", _out_size),
    "htype.htype_heat_batch": ("htype.batch_points", _out_size),
    "twisted.twisted_convolution": ("twisted.gather_pairs", _gather_pairs),
}


class Tracer:
    def __init__(self):
        self.names = []                 # span name table
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = Counter()
        self.errors = Counter()
        self.truncations = 0
        self._stack = []                # open span indices
        self._keys = []                 # the work count each of them takes
        self._last_exc = None
        self._exc_layer = None          # the layer _last_exc first left

    def install(self, package):
        """Wrap the layers' public functions in every loaded heisenkit module."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, layer, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        key, value = _COUNTERS.get(qualname, ("specfun.points", _out_size)
                                   if layer == "specfun" else (None, None))
        counts_evals = qualname == "quadrature.adaptive_quad"
        perf = time.perf_counter
        stack, keys = self._stack, self._keys

        def traced(*args, **kwargs):
            # work inside a span that counts the same thing is already counted
            counted = key is not None and (not keys or keys[-1] != key)
            if counts_evals:
                args = (self._counting(args[0]),) + args[1:]
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            keys.append(key)
            self.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc, self._exc_layer = exc, layer
                if len(stack) == 1:     # leaving the package's outermost call
                    self.errors[self._exc_layer] += 1
                raise
            finally:
                self.end[idx] = perf()
                stack.pop()
                keys.pop()
            if counted:
                self.counts[key] += value(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def _counting(self, f):
        counts = self.counts

        def integrand(*a):
            counts["quadrature.integrand_evals"] += 1
            return f(*a)
        return integrand

    def record_warnings(self, caught):
        """Count the truncation RuntimeWarnings among caught warning records."""
        self.truncations += sum(issubclass(w.category, RuntimeWarning)
                                and bool(_TRUNCATION.search(str(w.message))) for w in caught)

    def _arrays(self):
        return {"name": np.asarray(self.name), "start": np.asarray(self.start),
                "end": np.asarray(self.end), "parent": np.asarray(self.parent)}

    def layer_metrics(self):
        """Per-layer calls, self time and errors, the work counts, and the
        number of truncation warnings, as {name: (value, unit)}."""
        spans = self._arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names], dtype=int)
        span_layer = layer_of[spans["name"]]
        out = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            out[f"{layer}.calls"] = (int(mask.sum()), "count")
            out[f"{layer}.self_s"] = (float(self_time[mask].sum()), "s")
            out[f"{layer}.errors"] = (int(self.errors[layer]), "count")
        for key in WORK_COUNTS:
            out[key] = (int(self.counts[key]), "count")
        out["warnings.truncation"] = (self.truncations, "count")
        return out

    def save(self, path):
        """Write every span as compressed arrays: names[name], start, end, parent."""
        np.savez_compressed(path, names=np.array(self.names), **self._arrays())
