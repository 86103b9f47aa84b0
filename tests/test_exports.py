from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lyrecon
from lyrecon.errors import LyreconError

MODULES = sorted(f"lyrecon.{info.name}" for info in pkgutil.iter_modules(lyrecon.__path__))

# Adding an error type is a decision. Besides the root and the line-error base,
# each one here is caught by name, written into an output, imported by the
# acceptance suite, or one on-disk format's type.
ERROR_TYPES = {
    "lyrecon.errors.LyreconError",
    "lyrecon.errors.LineError",
    "lyrecon.bow.BowParseError",
    "lyrecon.metadata.TableParseError",
    "lyrecon.mood.MoodTableError",
    "lyrecon.mood.IntervalOverlap",
    "lyrecon.mood.CoverageGap",
    "lyrecon.pipeline.RecordsFormatError",
    "lyrecon.pipeline.CorpusFormatError",
    "lyrecon.pipeline.ManifestMismatch",
    "lyrecon.backend.BackendUnavailable",
    "lyrecon.backend.AuthMissing",
    "lyrecon.backend.EmptyCompletion",
    "lyrecon.evaluation.InsufficientOverlap",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(lyrecon.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.asname or alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(lyrecon, name) is getattr(importlib.import_module(module), name)


def test_the_error_types_are_the_listed_ones():
    for name in MODULES:
        importlib.import_module(name)
    found, todo = set(), [LyreconError]
    while todo:
        cls = todo.pop()
        found.add(f"{cls.__module__}.{cls.__qualname__}")
        todo.extend(cls.__subclasses__())
    assert found == ERROR_TYPES
