"""The package's export list names each public name its ``__init__`` imports,
the CLI uses only the public names of ``verify``, and every source file
parses at the ``requires-python`` floor, 3.10."""

import ast
from pathlib import Path

import pytest

import clonerestore

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "scripts", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


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


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "scripts",
                                                                     "demos"}


# grammar only: the 3.10 parser, not a 3.10 interpreter with its library
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_python_3_10(path):
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                    "type X = int\n", "def f[T](x):\n    pass\n"],
                         ids=["except-star", "type-alias", "type-parameters"])
def test_parser_rejects_newer_grammar(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
