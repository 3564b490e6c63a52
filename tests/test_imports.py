"""Name guards. Unused imports, found with `ast`: a name a module imports
and never uses again is a leftover of deleted code. And the benchmark
tracer's bindings: a binding the program no longer has is skipped without
a word, and its span is lost."""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "merlib"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_guard_flags_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom .model import (Network,\n"
              "    load_checkpoint)\nnp.zeros(load_checkpoint)\n")
    assert unused_imports(source) == ["Network", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# Bindings the tracer still lists although the program dropped them; the
# mend belongs to the benchmark, and no other may join them.
STALE_BINDINGS = {"merlib.cli:save_checkpoint", "merlib.cli:run_stage"}


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [b for _, bs in tracing.SPANS for b in bs]
    assert {b for b in bindings if tracing.resolve(b) is None} <= STALE_BINDINGS
