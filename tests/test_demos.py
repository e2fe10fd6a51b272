"""Every narrative script in demos/ runs to completion in-process."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_to_completion(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
