"""The demos run only by hand: check that each compiles and that every
asianmc name it uses resolves, so a rename in the package cannot break them
silently."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of ``dotted`` and getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return
    raise ImportError(dotted)


def _asianmc_names(tree: ast.AST) -> set[str]:
    aliases: dict[str, str] = {}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "asianmc":
                    aliases[a.asname or a.name.split(".")[0]] = a.name if a.asname else "asianmc"
                    names.add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "asianmc":
            names.update(f"{node.module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        # every attribute chain on an asianmc alias, e.g. am.greeks.FD
        if isinstance(node, ast.Attribute):
            chain, inner = [], node
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in aliases:
                names.add(".".join([aliases[inner.id], *reversed(chain)]))
    return names


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_asianmc_names_resolve(demo):
    source = demo.read_text()
    compile(source, str(demo), "exec")
    names = _asianmc_names(ast.parse(source))
    assert names, "the demo uses no asianmc name"
    for name in sorted(names):
        _resolve(name)
