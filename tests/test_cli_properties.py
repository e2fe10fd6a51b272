"""Property test of the CLI exit-code contract over arbitrary number tokens."""

import math

from hypothesis import HealthCheck, event, given, settings, strategies as st

from heisenkit import cli

# any float as the CLI would see it typed, the spellings float() takes for
# the non-finite ones, and an empty token; moderate nonnegative values are
# drawn more often than the rest, so that many requests (times, radii and
# norms are nonnegative) get past the usage checks
_MODERATE = st.floats(0.0, 20.0).map(repr)
_NUMBER = st.one_of(
    _MODERATE, _MODERATE, _MODERATE,
    st.floats(-20.0, 20.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-0", "0", ""]),
)
# comma lists with signed values and empty items
_LIST = st.lists(st.one_of(_NUMBER, st.just(" ")), max_size=4).map(",".join)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["heisenberg", "slice", "htype", "hermite", "gate"]))
    if command == "gate":
        argv = ["gate", "--which",
                draw(st.sampled_from(["hankel", "heisenberg", "htype", "hermite"]))]
        for flag in ("--a", "--b", "--s0", "--lambda", "--eps"):
            argv += [flag, draw(_LIST)]
        return argv
    argv = ["kernel", "--group", "heisenberg" if command == "slice" else command,
            "--s", draw(_NUMBER)]
    if command == "slice":
        argv += ["--slice-lambda", draw(_NUMBER), "--r", draw(_LIST)]
    elif command == "heisenberg":
        argv += ["--r", draw(_LIST), "--t", draw(_NUMBER)]
    elif command == "htype":
        argv += ["--k", draw(st.sampled_from(["1", "2", "3"])),
                 "--v-norm", draw(_LIST), "--t-norm", draw(_NUMBER)]
    else:
        argv += ["--x", draw(_LIST), "--y", draw(_NUMBER)]
    return argv


def _numeric_cells(text):
    for line in text.strip().splitlines()[1:]:
        for cell in line.split(","):
            if cell not in ("", "supercritical", "critical", "subcritical"):
                yield float(cell)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_exit_codes_and_finite_rows_for_any_number_tokens(argv, capsys):
    capsys.readouterr()
    code = cli.run(argv)
    out = capsys.readouterr().out
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3), argv
    if code == 0:
        assert all(math.isfinite(x) for x in _numeric_cells(out)), (argv, out)
    else:
        assert out == "", argv
