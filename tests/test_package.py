"""The package's export list names each public name its ``__init__`` imports."""

import ast
from pathlib import Path

import clonerestore


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(clonerestore.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(clonerestore.__all__) == len(set(clonerestore.__all__))
    assert set(clonerestore.__all__) == {name for name in imported if not name.startswith("_")}
