from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lyrecon
from fixtures import src_env, write_aligned_fixtures, write_lexicons
from lyrecon import cli
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


def test_the_cli_loads_neither_statistics_nor_array():
    # join and reconstruct score nothing; evaluate imports both when it
    # builds its fidelity table
    code = ("import sys, lyrecon.cli; "
            "print(sorted({'statistics', 'array'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code],
                         env=src_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout == "[]\n"


def test_join_evaluate_and_report_load_no_hashing_thread_pool_or_datetime(tmp_path):
    # only reconstruct hashes, runs a thread pool and stamps times: hashlib
    # loads libcrypto and concurrent.futures loads logging
    paths = write_aligned_fixtures(tmp_path / "data", 6, seed=2)
    abstract, concrete = write_lexicons(tmp_path / "lex")
    records, corpus, stats = tmp_path / "r.jsonl", tmp_path / "corpus.jsonl", tmp_path / "eval"
    assert cli.main(["join", "--bow", str(paths["bow"]), "--mood", str(paths["mood"]),
                     "--genres", str(paths["genres"]), "--meta", str(paths["meta"]),
                     "-o", str(records)]) == 0
    assert cli.main(["reconstruct", "--records", str(records), "--backend", "mock",
                     "-o", str(corpus)]) == 0
    commands = [
        ["join", "--bow", paths["bow"], "--mood", paths["mood"],
         "--genres", paths["genres"], "--meta", paths["meta"], "-o", tmp_path / "j.jsonl"],
        ["evaluate", "--corpus", corpus, "--bow", paths["bow"],
         "--abstract-lexicon", abstract, "--concrete-lexicon", concrete, "-o", stats],
        ["report", "--left", stats / "stats.json", "--right", stats / "stats.json",
         "-o", tmp_path / "report"],
    ]
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "from lyrecon import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "watched = {'hashlib', '_hashlib', 'concurrent.futures', 'logging',\n"
              "           'datetime', '_datetime'}\n"
              "print(json.dumps([codes, sorted(watched & (set(sys.modules) - before))]))\n")
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps([list(map(str, c)) for c in commands])],
        env=src_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []


def test_only_decode_json_calls_the_json_decoder():
    # json.loads raises RecursionError on input nested too deep; decode_json
    # turns that into the ValueError every reader handles
    calls = []
    for path in sorted(Path(lyrecon.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "decode_json"]
        inside = {id(node) for top in helper for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                calls.append(f"{path.name}:{node.lineno}: from json import")
            elif isinstance(node, ast.Import) and any(
                    alias.name == "json" and alias.asname for alias in node.names):
                calls.append(f"{path.name}:{node.lineno}: json imported by another name")
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                where = "decode_json" if id(node) in inside else "elsewhere"
                calls.append(f"{path.name}: json.{node.attr} {where}")
    assert calls == ["pipeline.py: json.loads decode_json"]
