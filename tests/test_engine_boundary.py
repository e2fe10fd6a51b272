"""Who may use what, in one table of six parts, and one import rule that
keeps the engines apart from the two oracle modules, `twisted` and `oracles`."""

import ast
import functools
import pathlib

import pytest

import heisenkit

PACKAGE = pathlib.Path(heisenkit.__file__).parent
ENGINES = "specfun quadrature grids hankel heisenberg spherical propagator hermite htype".split()
CENTRAL = {"heisenberg._central_integral"}
ORACLES = {"oracles.heat_kernel", "oracles.htype_heat_kernel"}

# each guarded name -> the exact set of top-level functions whose code mentions
# it; a key "name()" counts calls only, as `np.fft.ifft`, a resynthesis, mentions fft
FREQUENCY_INTEGRALS = {
    # one central-frequency integral, and one theory of its sizing
    "even_trapezoid": CENTRAL, "_strip_step": CENTRAL, "_radius_cutoffs": CENTRAL,
    "envelope_cutoff": {"heisenberg._lam_cutoff"},
}
ANGULAR_DFT = {
    # one angular DFT, read by the engine and both halves of the grid oracle
    "fft()": {"grids.angular_modes"}, "fftfreq()": {"grids.angular_modes"},
    "rfft()": set(), "rfftfreq()": set(),
    "angular_modes": {"propagator.schrodinger_evolve", "twisted._interpolant",
                      "twisted._ring_sum"},
}
ORACLE_PROFILE = {
    # the engines' profile, integral and Bessel function, which no oracle may read
    "_hyperbolic_factors": {"heisenberg.heat_kernel_lambda", "heisenberg._central_integral"},
    "_central_integral": {"heisenberg.heat_kernel_grid", "htype.htype_heat_batch"},
    "bessel_j_tilde": {"hankel.hankel_transform", "htype.htype_heat_batch"},
    # the oracles' own scalar profile, and QUADPACK
    "_profile": ORACLES, "adaptive_quad": ORACLES | {"oracles.twisted_convolution_quad"},
}

GATE_RULE = {
    # one Hardy rule decides every gate (`htype_gate` is `uniqueness_gate` at
    # lam = 0); its critical band is the rule's alone (`hankel` is the band's definition)
    "_verdict": {"hankel.hardy_gate", "propagator.uniqueness_gate", "hermite.hermite_gate"},
    "_HARDY_TOL": {"hankel", "hankel._verdict"},
}

SECTOR_RULE = {
    # where a bidegree (p, q) sector starts on a lam-slice, read by the engine,
    # the series side of kernel_K and the factorized side of the grid check;
    # kernel_K's closed form and the grid lhs stay off it
    "_sector_shift": {"propagator.schrodinger_evolve", "propagator.kernel_K",
                      "twisted.hecke_bochner_check"},
}

SPECIAL_FUNCTIONS = {
    # scipy.special loads on first use, in the functions that call it: among the
    # engines only in specfun, and in each oracle module for its own factor
    "scipy.special": {"specfun._jtilde_series", "specfun._jtilde_power", "specfun._jtilde_upward",
                      "specfun.jtilde_of_square", "specfun._laguerre_basis",
                      "specfun._series_block", "twisted.hecke_bochner_check",
                      "oracles.htype_heat_kernel"},
}


def _used(node):
    """A name, attribute or call ("name()") used, a module imported from, or a
    name an import renames."""
    if isinstance(node, ast.ImportFrom):
        return node.module
    if isinstance(node, ast.Call):
        return f"{getattr(node.func, 'attr', getattr(node.func, 'id', ''))}()"
    if isinstance(node, ast.alias):
        return node.asname and node.name.rpartition(".")[2]
    return getattr(node, "id", None) or getattr(node, "attr", None)


@functools.cache
def _users():
    # an owner is a top-level function or class, or the module's own code
    seen = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{top.name}" if hasattr(top, "name") else path.stem
            for node in ast.walk(top):
                seen.setdefault(_used(node), set()).add(owner)
    return seen


def _assert_owned(table):
    assert {name: _users().get(name, set()) for name in table} == table


def test_only_heisenberg_drives_the_frequency_integrals():
    _assert_owned(FREQUENCY_INTEGRALS)


def test_only_grids_angular_modes_takes_an_angular_dft():
    _assert_owned(ANGULAR_DFT)


def test_pointwise_heat_kernel_oracle_has_its_own_profile():
    _assert_owned(ORACLE_PROFILE)


def test_one_hardy_rule_decides_every_gate():
    _assert_owned(GATE_RULE)


def test_one_sector_rule_places_every_bidegree():
    _assert_owned(SECTOR_RULE)


def test_scipy_special_enters_the_engines_through_specfun_on_first_use():
    _assert_owned(SPECIAL_FUNCTIONS)
    engines = {owner.partition(".")[0] for owner in SPECIAL_FUNCTIONS["scipy.special"]}
    assert engines & set(ENGINES) == {"specfun"}


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_does_not_import_twisted(engine):
    # nor `oracles`: an engine never reaches the code that checks it
    tree = ast.parse((PACKAGE / f"{engine}.py").read_text(encoding="utf-8"))
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]]
    assert not {name.rpartition(".")[2] for name in names} & {"twisted", "oracles"}, engine
