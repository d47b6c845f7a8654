"""The package's export list names each public name its ``__init__`` imports,
and the CLI uses only the public names of ``verify``."""

import ast
from pathlib import Path

import clonerestore


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(clonerestore.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(clonerestore.__all__) == len(set(clonerestore.__all__))
    assert set(clonerestore.__all__) == {name for name in imported if not name.startswith("_")}


def test_cli_uses_no_private_name_of_verify():
    # verify runs its own check loop; the CLI only calls into it
    path = Path(clonerestore.__file__).with_name("cli.py")
    private = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "verify" and node.attr.startswith("_")):
            private.append(node.attr)
        if isinstance(node, ast.ImportFrom) and node.module in ("verify", "clonerestore.verify"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []
