"""Every function and class the package defines has a caller in the package
or the benchmark; code only the tests reach gets deleted, not kept. The
names the traced benchmark rebinds exist, and are restored after it."""

import ast
import importlib.util
from pathlib import Path

from ddiqkd import cli, protocol

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ddiqkd").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _used_names(trees):
    """Every name a module reads: a bare name, an attribute, an imported
    name, or a string that spells an identifier, which covers the
    benchmark's getattr rebinding of a function by its name."""
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
    return used


def test_every_package_definition_has_a_caller():
    package = _trees(PACKAGE)
    used = _used_names(package + _trees(BENCH))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == [], f"defined but never used in src/ddiqkd or bench: {unused}"


def _namespaces():
    return {(module.__name__, name): value for module in (cli, protocol) for name, value in vars(module).items()}


def test_traced_benchmark_rebinds_package_names_and_restores_them():
    # bench/spans.py is loaded from its file: the benchmark is not a package
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _namespaces()
    with spans.installed(spans.Tracer()):
        during = _namespaces()
    after = _namespaces()
    rebound = [key for key, value in before.items() if during[key] is not value]
    assert rebound and all(during[key].__wrapped__ is before[key] for key in rebound)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
