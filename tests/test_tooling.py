"""Source hygiene: unused imports, the one row rule, and the names the benchmark
tracer binds."""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import logdiff
from logdiff.reporting import Row

PACKAGE = Path(logdiff.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _names_read(path: Path) -> set[str]:
    """The names and attribute names a source file reads."""
    tree = ast.parse(path.read_text())
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_exported_function_is_used_outside_its_module():
    """A function ``logdiff`` exports is read by another module, a demo or the benchmark,
    not by tests alone."""
    outside = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    unused = []
    for name, value in sorted(vars(logdiff).items()):
        if not inspect.isfunction(value):
            continue
        home = Path(inspect.getfile(value))
        readers = [p for p in PACKAGE.glob("*.py") if p not in (home, PACKAGE / "__init__.py")]
        if not any(name in _names_read(p) for p in readers + outside):
            unused.append(name)
    assert unused == []


def test_every_report_row_comes_from_the_row_rule():
    """A class defining ``to_row`` subclasses ``Row``; an override extends its row."""
    reports = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"logdiff.{path.stem}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__ or cls is Row:
                continue
            if "to_row" in vars(cls):
                assert issubclass(cls, Row), cls
                assert "super().to_row()" in inspect.getsource(cls.to_row), cls
            if issubclass(cls, Row):
                reports.add(cls.__name__)
    assert len(reports) == 14 and {"AnalyticityReport", "MSweepEntry"} <= reports


def test_tracer_finds_every_name_it_binds():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises RuntimeError when a required binding is gone
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("record", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_every_bench_record_parses(record):
    """A committed benchmark record is JSON with a ``label``."""
    assert "label" in json.loads((ROOT / record).read_text())
