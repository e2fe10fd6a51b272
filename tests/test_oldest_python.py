"""Every source file parses as the oldest Python that the project claims:
`requires-python` in pyproject.toml, which the CI matrix (tier1.yml) starts
from.  So a newer syntax fails on whichever interpreter runs the tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = ("src", "tests", "perfbench", "demos")


def _oldest():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def test_the_ci_matrix_starts_at_the_oldest_python():
    matrix = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    versions = re.search(r"python-version: \[(.*)\]", matrix).group(1)
    assert versions.split(",")[0].strip(' "') == "%d.%d" % _oldest()


def test_every_source_file_parses_as_the_oldest_python():
    paths = sorted(p for d in SOURCES for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 40
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_oldest())
