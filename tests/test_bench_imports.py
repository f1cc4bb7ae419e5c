"""The benchmark under bench/ imports names from speclab and patches module
attributes to time each layer. A name it needs that speclab no longer has
must fail here, not only in the benchmark's own smoke run. Reads bench/ and
writes nothing there."""

import ast
import importlib
import types
from pathlib import Path

import pytest

from speclab import checkpoint, experiment, sampling, specdec, training

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolve(module: str, name: str):
    """`from module import name`: an attribute, or else a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_name_imported_from_speclab_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "speclab":
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    # attributes read off an imported module, such as `data.chat_prompt`
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_span_tracer_installs_and_restores_its_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    owners = (checkpoint, experiment, sampling, specdec, training, training.AdamW)
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer()
    tracer.install()
    patched = sum(vars(o)[k] is not v for o, b in zip(owners, before) for k, v in b.items())
    tracer.uninstall()
    assert patched == 18
    assert all(dict(vars(o)) == b for o, b in zip(owners, before))
