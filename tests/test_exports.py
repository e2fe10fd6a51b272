"""`heisenkit.__all__` is the package's public surface: every name in it
resolves, none is listed twice, and every public name that `__init__` binds
is listed."""

import ast
import pathlib

import heisenkit


def test_all_lists_every_public_name_of_init_once():
    tree = ast.parse(pathlib.Path(heisenkit.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    public = {name for name in bound if not name.startswith("_")}
    listed = heisenkit.__all__
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    assert set(listed) == public, (sorted(public - set(listed)), sorted(set(listed) - public))
    missing = [name for name in listed if not hasattr(heisenkit, name)]
    assert not missing, missing
