"""Damaged inputs end in a documented exit code and one line, never a traceback.

Every input file of every subcommand is damaged one way at a time: a 0xE9
byte on a random line, a cut at a random byte, or JSON of the wrong shape.
``cli.main`` must return 0, 2, 3 or 4 and raise nothing, and on exit 2 its
stderr must be one ``lyrecon: error: <file>: ...`` line that names the
damaged file.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fakeserver import FakeChatServer, refused_endpoint
from fixtures import make_bow_text, replace_line, write_aligned_fixtures, write_lexicons
from lyrecon import backend as be
from lyrecon import cli

# the command that reads each input, by name
COMMANDS = {
    "join": ["join", "--bow", "bow.txt", "--mood", "mood.csv",
             "--genres", "genres.tsv", "--meta", "meta.csv",
             "--mood-table", "mood_table.txt", "-o", "out/records.jsonl"],
    "reconstruct": ["reconstruct", "--records", "records.jsonl",
                    "--config", "config.json", "-o", "out/corpus.jsonl"],
    "resume": ["reconstruct", "--records", "records.jsonl",
               "--config", "config.json", "-o", "corpus.jsonl"],
    "evaluate": ["evaluate", "--corpus", "corpus.jsonl",
                 "--reference", "reference.jsonl", "--bow", "bow.txt",
                 "--abstract-lexicon", "abstract.txt",
                 "--concrete-lexicon", "concrete.txt", "-o", "out/eval"],
    "report": ["report", "--left", "left.json", "--right", "right.json",
               "-o", "out/report"],
}

# input file -> (the commands that read it, whether it is JSON)
INPUTS = {
    "bow.txt": (("join", "evaluate"), False),
    "mood.csv": (("join",), False),
    "genres.tsv": (("join",), False),
    "meta.csv": (("join",), False),
    "mood_table.txt": (("join",), False),
    "records.jsonl": (("reconstruct",), True),
    "config.json": (("reconstruct",), True),
    "corpus.jsonl.manifest": (("resume",), True),
    "corpus.jsonl": (("resume", "evaluate"), True),
    "reference.jsonl": (("evaluate",), True),
    "abstract.txt": (("evaluate",), False),
    "concrete.txt": (("evaluate",), False),
    "left.json": (("report",), True),
    "right.json": (("report",), True),
}

CASES = [
    (name, command, damage)
    for name, (commands, is_json) in INPUTS.items()
    for command in commands
    for damage in ("not-utf8", "truncated", *(("wrong-shape",) if is_json else ()))
]

# a value of each JSON type, to put where another type belongs
SHAPES = ([], {}, "x", 7, 0.5, True, None)


def _argv(command: str, work: Path) -> list[str]:
    return [arg if arg.startswith("-") or i == 0 else str(work / arg)
            for i, arg in enumerate(COMMANDS[command])]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """Every input of every command, taken from one finished run."""
    root = tmp_path_factory.mktemp("pristine")
    write_aligned_fixtures(root, 6, seed=3)
    write_lexicons(root)
    (root / "mood_table.txt").write_text(
        resources.files("lyrecon").joinpath("data/mood_octants.txt").read_text("utf-8"),
        encoding="utf-8",
    )
    (root / "config.json").write_text(
        json.dumps({"backend": "mock", "temperature": 0.5}), encoding="utf-8"
    )
    (root / "out").mkdir()
    assert cli.main(_argv("join", root)) == 0
    (root / "out" / "records.jsonl").rename(root / "records.jsonl")
    assert cli.main(_argv("resume", root)) == 0
    shutil.copy(root / "corpus.jsonl", root / "reference.jsonl")
    assert cli.main(_argv("evaluate", root)) == 0
    (root / "out" / "eval" / "stats.json").rename(root / "left.json")
    (root / "out" / "eval" / "stats_reference.json").rename(root / "right.json")
    shutil.rmtree(root / "out")
    (root / "out").mkdir()
    return root


def _reshaped(value, rng: random.Random):
    """``value`` with itself, or one of its fields, of another JSON type."""
    if isinstance(value, dict) and value and rng.random() < 0.5:
        key = rng.choice(sorted(value))
        return {**value, key: _reshaped(value[key], rng)}
    return rng.choice([s for s in SHAPES if type(s) is not type(value)])


def _damage(path: Path, damage: str, rng: random.Random) -> None:
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[: rng.randrange(len(data))])
        return
    if damage == "wrong-shape":
        try:  # a whole JSON document, or else JSON lines: reshape one line
            path.write_text(json.dumps(_reshaped(json.loads(data), rng)))
            return
        except ValueError:
            pass
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    line = lines[i]
    end = len(line.rstrip(b"\r\n"))
    if damage == "not-utf8":
        at = rng.randrange(end + 1)
        lines[i] = line[:at] + b"\xe9" + line[at:]
    else:
        lines[i] = json.dumps(_reshaped(json.loads(line), rng)).encode() + line[end:]
    path.write_bytes(b"".join(lines))


def _check(argv: list[str], blamed: str, capsys) -> int:
    capsys.readouterr()
    code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith(f"lyrecon: error: {blamed}"), err
        assert err.count("\n") == 1, err
    return code


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), rng=st.randoms(use_true_random=False))
def test_damaged_input_exits_with_a_documented_code(pristine, tmp_path, capsys,
                                                     case, rng):
    name, command, damage = case
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    try:
        shutil.copytree(pristine, work, dirs_exist_ok=True)
        _damage(work / name, damage, rng)
        _check(_argv(command, work), f"{work / name}: ", capsys)
    finally:
        shutil.rmtree(work)


# inputs read line by line to the end: a reshaped field is of another JSON
# type or, for a number swapped for 7, breaks the record's stored theta
READ_WHOLE = [("records.jsonl", "reconstruct"), ("corpus.jsonl", "evaluate"),
              ("reference.jsonl", "evaluate")]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(READ_WHOLE), rng=st.randoms(use_true_random=False))
def test_wrong_shape_in_a_file_read_whole_exits_2(pristine, tmp_path, capsys, case, rng):
    name, command = case
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    try:
        shutil.copytree(pristine, work, dirs_exist_ok=True)
        _damage(work / name, "wrong-shape", rng)
        assert _check(_argv(command, work), f"{work / name}: ", capsys) == 2
    finally:
        shutil.rmtree(work)


def _edit_line(name: str, line_no: int, edit):
    """A damage that rewrites one JSON line of ``name`` through ``edit``."""
    def damage(work: Path) -> None:
        line = (work / name).read_bytes().splitlines()[line_no - 1]
        replace_line(work / name, line_no, json.dumps(edit(json.loads(line))).encode() + b"\n")
    return damage


def _with_fields(name: str, **fields):
    """A damage that sets ``fields`` in the JSON object file ``name``."""
    def damage(work: Path) -> None:
        data = json.loads((work / name).read_text(encoding="utf-8"))
        (work / name).write_text(json.dumps({**data, **fields}))
    return damage


def _append_stray_corpus_line(work: Path) -> None:
    """A damage that appends a copy of the corpus's first line under a track
    id the records lack."""
    first = json.loads((work / "corpus.jsonl").read_bytes().splitlines()[0])
    with open(work / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**first, "track_id": "TRSTRAY"}) + "\n")


# id -> (damage to the copied run, command, extra flags, the file blamed and
# how its message goes on)
EXPLICIT = {
    "records-not-utf8": (
        lambda w: replace_line(w / "records.jsonl", 2, b"caf\xe9\n"),
        "reconstruct", [], "records.jsonl", ": line 2: not UTF-8"),
    "manifest-not-utf8-on-resume": (
        lambda w: replace_line(w / "corpus.jsonl.manifest", 3, b"caf\xe9\n"),
        "resume", [], "corpus.jsonl.manifest", ": line 3: not UTF-8"),
    "mood-table-not-utf8": (
        lambda w: replace_line(w / "mood_table.txt", 2, b"caf\xe9\n"),
        "join", [], "mood_table.txt", ": line 2: not UTF-8"),
    "join-out-dir-missing": (
        lambda w: shutil.rmtree(w / "out"),
        "join", [], "out/records.jsonl", ".report.json: No such file or directory"),
    "reconstruct-out-dir-missing": (
        lambda w: shutil.rmtree(w / "out"),
        "reconstruct", [], "out/corpus.jsonl", ": No such file or directory\n"),
    "mood-csv-field-too-long": (
        lambda w: replace_line(w / "mood.csv", 3, b"T," + b"1" * 131_073 + b",1\n"),
        "join", [], "mood.csv", ": line 3: field larger than field limit"),
    "meta-csv-field-too-long": (
        lambda w: replace_line(w / "meta.csv", 4, b"T,A," + b"t" * 131_073 + b"\n"),
        "join", [], "meta.csv", ": line 4: field larger than field limit"),
    "cache-dir-is-a-file": (
        lambda w: (w / "cache").write_text("a file\n"),
        "reconstruct", ["--cache-dir", "cache"], "cache", "/"),
    "records-artist-null": (
        _edit_line("records.jsonl", 2, lambda d: {**d, "artist": None}),
        "reconstruct", [], "records.jsonl", ": line 2: bad record object: artist"),
    "records-tags-a-string": (
        _edit_line("records.jsonl", 3, lambda d: {**d, "tags": "Rock"}),
        "reconstruct", [], "records.jsonl", ": line 3: bad record object: tags"),
    "records-vocabulary-element-a-number": (
        _edit_line("records.jsonl", 2, lambda d: {**d, "vocabulary": [1, *d["vocabulary"]]}),
        "reconstruct", [], "records.jsonl",
        ": line 2: bad record object: vocabulary[0]: expected str, got 1\n"),
    "records-tags-element-null": (
        _edit_line("records.jsonl", 3, lambda d: {**d, "tags": [*d["tags"], None]}),
        "reconstruct", [], "records.jsonl", ": line 3: bad record object: tags["),
    "records-vocabulary-word-empty": (
        _edit_line("records.jsonl", 2, lambda d: {**d, "vocabulary": [""]}),
        "reconstruct", [], "records.jsonl",
        ": line 2: track 'TRFIX00001X128F': needs genre tags and vocabulary words, "
        "none of them empty\n"),
    "records-vocabulary-word-has-comma": (
        _edit_line("records.jsonl", 2, lambda d: {**d, "vocabulary": [", "]}),
        "reconstruct", [], "records.jsonl",
        ": line 2: track 'TRFIX00001X128F': vocabulary word ', ' has whitespace, "
        "',' or ':'\n"),
    "records-tag-empty": (
        _edit_line("records.jsonl", 3, lambda d: {**d, "tags": [*d["tags"], ""]}),
        "reconstruct", [], "records.jsonl",
        ": line 3: track 'TRFIX00002X128F': needs genre tags and vocabulary words, "
        "none of them empty\n"),
    "records-zero-mood-vector": (
        _edit_line("records.jsonl", 2, lambda d: {**d, "valence": 0.0, "arousal": 0.0}),
        "reconstruct", [], "records.jsonl",
        ": line 2: track 'TRFIX00001X128F': mood angle undefined for valence=0, arousal=0\n"),
    "records-valence-as-text": (
        _edit_line("records.jsonl", 4, lambda d: {**d, "valence": str(d["valence"])}),
        "reconstruct", [], "records.jsonl", ": line 4: bad record object: valence"),
    "corpus-model-a-number-on-resume": (
        _edit_line("corpus.jsonl", 3, lambda d: {**d, "model": 5}),
        "resume", [], "corpus.jsonl", ": line 3: model"),
    "corrupt-corpus-line-on-resume": (
        lambda w: replace_line(w / "corpus.jsonl", 2, b"{broken\n"),
        "resume", [], "corpus.jsonl", ": line 2: not valid JSON"),
    "stats-not-json": (
        lambda w: (w / "left.json").write_text("{"),
        "report", [], "left.json", ": Expecting property name"),
    "stats-not-utf8": (
        lambda w: replace_line(w / "left.json", 3, b"caf\xe9\n"),
        "report", [], "left.json", ": line 3: not UTF-8"),
    "stats-field-of-wrong-type": (
        _with_fields("left.json", unique_bigrams="x"),
        "report", [], "left.json", ": stats fields missing or not finite"),
    "stats-count-too-large-for-a-float": (
        _with_fields("left.json", unique_unigrams=10 ** 400),
        "report", [], "left.json", ": stats fields missing or not finite"),
    "config-integer-too-large-for-a-float": (
        _with_fields("config.json", max_output_tokens=10 ** 400),
        "reconstruct", [], "config.json", ": max_output_tokens: expected a finite number"),
    "report-out-dir-is-a-file": (
        lambda w: (w / "out" / "report").write_text("keep\n"),
        "report", [], "out/report", ": File exists"),
    "records-empty": (
        lambda w: (w / "records.jsonl").write_bytes(b""),
        "reconstruct", [], "records.jsonl", ": no records to reconstruct\n"),
    "corpus-track-not-in-records-on-resume": (
        _append_stray_corpus_line,
        "resume", [], "corpus.jsonl", ": holds track(s) not in the records file"),
    "manifest-empty-on-resume": (
        lambda w: (w / "corpus.jsonl.manifest").write_bytes(b""),
        "resume", [], "corpus.jsonl.manifest", ": empty manifest\n"),
    "records-changed-on-resume": (
        lambda w: (w / "records.jsonl").write_bytes(
            b"".join((w / "records.jsonl").read_bytes().splitlines(keepends=True)[:-1])),
        "resume", [], "corpus.jsonl.manifest",
        ": manifest was written for a different records file\n"),
    "bow-track-id-empty": (
        lambda w: replace_line(w / "bow.txt", 3, b",SRC,1:1\n"),
        "join", [], "bow.txt", ": line 3: empty track_id\n"),
    "mood-csv-track-id-empty": (
        lambda w: replace_line(w / "mood.csv", 3, b",0.5,0.5\n"),
        "join", [], "mood.csv", ": line 3: empty track id\n"),
    "genres-track-id-empty": (
        lambda w: replace_line(w / "genres.tsv", 2, b"\tRock\n"),
        "join", [], "genres.tsv", ": line 2: empty track id\n"),
    "mood-table-gap-at-zero": (
        lambda w: (w / "mood_table.txt").write_text("0.25 2 a\n"),
        "join", [], "mood_table.txt", ": mood table leaves a gap at theta=0*pi\n"),
    "mood-table-gap-between-arcs": (
        lambda w: (w / "mood_table.txt").write_text("0 0.5 a\n1 2 b\n"),
        "join", [], "mood_table.txt", ": mood table leaves a gap at theta=0.5*pi\n"),
    "mood-table-start-past-2-pi": (
        lambda w: (w / "mood_table.txt").write_text("2.5 0.5 a\n"),
        "join", [], "mood_table.txt",
        ": mood table entry 0: start 2.5*pi outside [0, 2*pi)\n"),
}


@pytest.mark.parametrize("case", EXPLICIT)
def test_known_bad_input_exits_2_naming_its_file(pristine, tmp_path, capsys, case):
    damage, command, extra, blamed, then = EXPLICIT[case]
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    damage(tmp_path)
    argv = _argv(command, tmp_path) + [
        str(tmp_path / arg) if i % 2 else arg for i, arg in enumerate(extra)]
    assert _check(argv, f"{tmp_path / blamed}{then}", capsys) == 2


@pytest.mark.parametrize("flags", [["--timeout", "1e300"], ["--backoff-base", "1e300"],
                                   ["--max-attempts", "1100"]],
                         ids=["timeout", "backoff-base", "max-attempts"])
def test_a_wait_too_long_for_the_os_is_a_bad_configuration(pristine, tmp_path, capsys,
                                                           monkeypatch, flags):
    # checked before any thread starts or any request is sent
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    monkeypatch.setenv("LYRECON_API_KEY", "test-key")
    argv = _argv("reconstruct", tmp_path) + [
        "--backend", "live", "--endpoint", refused_endpoint(), "--max-in-flight", "1", *flags]
    assert _check(argv, "bad configuration: ", capsys) == 2
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("endpoint, workers", [
    ("http://127.0.0.1:1180591620717411303424/v1", "1"),
    ("http://127.0.0.1:65536/v1", "1"),
    ("http://a..b/v1", "1"),
    (None, str(be._MOST_IN_FLIGHT + 1)),
], ids=["port-past-a-c-long", "port-past-65535", "empty-host-label", "max-in-flight"])
def test_an_endpoint_or_pool_the_os_would_refuse_is_a_bad_configuration(
        pristine, tmp_path, capsys, monkeypatch, endpoint, workers):
    # checked before any file is written or any thread starts
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    monkeypatch.setenv("LYRECON_API_KEY", "test-key")
    argv = _argv("reconstruct", tmp_path) + [
        "--backend", "live", "--endpoint", endpoint or refused_endpoint(),
        "--max-attempts", "1", "--max-in-flight", workers]
    blamed = f"live endpoint {endpoint!r}: " if endpoint else "max_in_flight must be"
    assert _check(argv, f"bad configuration: {blamed}", capsys) == 2
    assert list((tmp_path / "out").iterdir()) == []


DEEP = b"[" * 100_000  # past the recursion limit of Python's JSON decoder


def _deep_line(name: str, line_no: int):
    return lambda work, endpoint: replace_line(work / name, line_no, DEEP + b"\n")


def _deep_file(name: str):
    return lambda work, endpoint: (work / name).write_bytes(DEEP)


def _deep_cache_entry(work: Path, endpoint: str) -> None:
    """A fresh run over a cache whose first line holds its digest and then
    JSON nested too deep."""
    (work / "corpus.jsonl").unlink()
    (work / "corpus.jsonl.manifest").unlink()
    segment = work / "corpus.jsonl.cache" / "0.log"
    digest = json.loads(segment.read_bytes().splitlines()[0])["prompt_digest"]
    replace_line(segment, 1, b'{"prompt_digest": "%s", "lyrics": %s\n' % (digest.encode(), DEEP))


def _regenerated(work: Path, pristine: Path, err: str) -> None:
    corpus = (work / "corpus.jsonl").read_text(encoding="utf-8")
    assert corpus == (pristine / "corpus.jsonl").read_text(encoding="utf-8")
    # the one entry generated again is appended to a segment of its own
    first = (pristine / "corpus.jsonl.cache" / "0.log").read_text(encoding="utf-8")
    assert (work / "corpus.jsonl.cache" / "1.log").read_text(encoding="utf-8") == (
        first.splitlines(keepends=True)[0])


def _event_skipped(work: Path, pristine: Path, err: str) -> None:
    assert (work / "corpus.jsonl").read_bytes() == (pristine / "corpus.jsonl").read_bytes()
    lost = json.loads((pristine / "corpus.jsonl.manifest").read_text().splitlines()[2])
    healed = json.loads((work / "corpus.jsonl.manifest").read_text().splitlines()[-1])
    assert healed == lost


def _deep_reply_config(work: Path, endpoint: str) -> None:
    (work / "config.json").write_text(json.dumps(
        {"backend": "live", "endpoint": endpoint, "max_attempts": 1, "max_in_flight": 1}))


def _each_item_failed(work: Path, pristine: Path, err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 7
    assert all("BackendUnavailable: unexpected response shape" in line
               and "nested too deep" in line for line in lines[:6])


TOO_DEEP = ": not valid JSON: nested too deep to decode\n"

# id -> (damage, given the endpoint of a server whose replies are nested too
# deep; command; exit code; for exit 2 the file blamed and how its message
# goes on, else a check of the outcome)
DEEP_INPUTS = {
    "records": (_deep_line("records.jsonl", 2), "reconstruct", 2,
                ("records.jsonl", ": line 2" + TOO_DEEP)),
    "evaluate-corpus": (_deep_line("corpus.jsonl", 3), "evaluate", 2,
                        ("corpus.jsonl", ": line 3" + TOO_DEEP)),
    "resume-corpus": (_deep_line("corpus.jsonl", 2), "resume", 2,
                      ("corpus.jsonl", ": line 2" + TOO_DEEP)),
    "cache-entry": (_deep_cache_entry, "resume", 0, _regenerated),
    "manifest-event": (_deep_line("corpus.jsonl.manifest", 3), "resume", 0, _event_skipped),
    "manifest-header": (_deep_line("corpus.jsonl.manifest", 1), "resume", 2,
                        ("corpus.jsonl.manifest", ": unreadable header: nested too deep")),
    "config": (_deep_file("config.json"), "reconstruct", 2,
               ("config.json", ": nested too deep to decode\n")),
    "stats": (_deep_file("left.json"), "report", 2,
              ("left.json", ": nested too deep to decode\n")),
    "live-reply": (_deep_reply_config, "reconstruct", 4, _each_item_failed),
}


@pytest.fixture(scope="module")
def deep_reply_server():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(DEEP), DEEP)
    with FakeChatServer(raw_reply=reply) as server:
        yield server


@pytest.mark.parametrize("case", DEEP_INPUTS)
def test_json_nested_too_deep_is_bad_input_not_a_crash(pristine, deep_reply_server, tmp_path,
                                                       capsys, monkeypatch, case):
    damage, command, code, then = DEEP_INPUTS[case]
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    monkeypatch.setenv("LYRECON_API_KEY", "test-key")
    damage(tmp_path, deep_reply_server.endpoint)
    argv = _argv(command, tmp_path)
    if isinstance(then, tuple):
        blamed, message = then
        assert _check(argv, f"{tmp_path / blamed}{message}", capsys) == code
    else:
        capsys.readouterr()
        assert cli.main(argv) == code
        then(tmp_path, pristine, capsys.readouterr().err)


# field -> a long value of the wrong type or out of range
LONG_VALUES = {"theta": 10 ** 400, "artist": list(range(1000)), "valence": "9" * 1000}


@pytest.mark.parametrize("key", LONG_VALUES)
def test_a_long_bad_value_is_echoed_cut_short(pristine, tmp_path, capsys, key):
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    _edit_line("records.jsonl", 2, lambda d: {**d, key: LONG_VALUES[key]})(tmp_path)
    capsys.readouterr()
    assert cli.main(_argv("reconstruct", tmp_path)) == 2
    err = capsys.readouterr().err
    named = f"lyrecon: error: {tmp_path / 'records.jsonl'}: line 2: bad record object: {key}: "
    assert err.startswith(named), err
    assert err.count("\n") == 1
    assert len(err) - len(named) < 100, err


LONG_ID = "T" * 600


def _long_id_record(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), "track_id": LONG_ID, **fields})


# id -> (input file, a change to its lines that the command reading the file
# refuses, the line blamed)
LONG_INPUTS = {
    "bow-pair-not-integer": (
        "bow.txt", lambda lines: [lines[0], lines[1] + ",1:" + "9" * 600 + "x", *lines[2:]], 2),
    "bow-pair-without-colon": (
        "bow.txt", lambda lines: [lines[0], lines[1] + "," + "9" * 600, *lines[2:]], 2),
    "bow-id-repeated": (
        "bow.txt", lambda lines: [lines[0], *[f"{LONG_ID},S,1:1"] * 2, *lines[1:]], 3),
    "mood-id-repeated": (
        "mood.csv", lambda lines: [lines[0], *[f"{LONG_ID},0.5,0.5"] * 2, *lines[1:]], 3),
    "meta-id-repeated": (
        "meta.csv", lambda lines: [lines[0], *[f"{LONG_ID},A,B"] * 2, *lines[1:]], 3),
    "meta-id-with-empty-artist": (
        "meta.csv", lambda lines: [lines[0], f"{LONG_ID},,B", *lines[1:]], 2),
    "mood-id-with-text-valence": (
        "mood.csv", lambda lines: [lines[0], f"{LONG_ID},x,0.5", *lines[1:]], 2),
    "mood-header-without-arousal": (
        "mood.csv",
        lambda lines: ["track_id,valence," + ",".join(f"c{i}" for i in range(200)),
                       *lines[1:]], 1),
    "genre-id-with-empty-genre": (
        "genres.tsv", lambda lines: [f"{LONG_ID}\t ", *lines], 1),
    "records-id-without-vocabulary": (
        "records.jsonl",
        lambda lines: [_long_id_record(lines[0], vocabulary=[]), *lines[1:]], 1),
    "records-id-repeated": (
        "records.jsonl", lambda lines: [*[_long_id_record(lines[0])] * 2, *lines[1:]], 2),
}


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_a_long_bad_input_is_echoed_cut_short(pristine, tmp_path, capsys, case):
    name, damage, line_no = LONG_INPUTS[case]
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
    (tmp_path / name).write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    capsys.readouterr()
    command = INPUTS[name][0][0]
    assert cli.main(_argv(command, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lyrecon: error: {tmp_path / name}: line {line_no}: "), err
    assert err.count("\n") == 1
    assert len(err) < 200, err


@pytest.mark.parametrize("flag", ["--mood-columns", "--meta-columns"])
def test_a_bad_column_map_is_blamed_on_its_flag(tmp_path, capsys, flag):
    # no input file exists: the flag is read before any of them is opened
    argv = _argv("join", tmp_path) + [flag, "id,v"]
    blamed = f"{flag}: column map must be 'id,first,second', got 'id,v'\n"
    assert _check(argv, blamed, capsys) == 2


BOW_TRACKS = 500  # line 1 is the header, lines 2 to 501 the tracks

# id -> (the damage to the BoW's lines, the line blamed)
BOW_DAMAGE = {
    "duplicate-id-after-many-tracks": (lambda lines: [*lines, lines[1]], BOW_TRACKS + 2),
    "second-header": (lambda lines: [*lines[:300], "%again,words", *lines[300:]], 301),
    "bad-pair-on-the-last-line": (
        lambda lines: [*lines[:-1], lines[-1] + ",7:x"], BOW_TRACKS + 1),
    "data-line-before-the-header": (lambda lines: ["# tracks", lines[1], *lines], 2),
}


@pytest.mark.parametrize("case", BOW_DAMAGE)
def test_a_damaged_bow_ends_the_join_before_any_output(pristine, tmp_path, capsys, case):
    damage, line_no = BOW_DAMAGE[case]
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    lines = make_bow_text(BOW_TRACKS, seed=3).splitlines()
    (tmp_path / "bow.txt").write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
    blamed = f"{tmp_path / 'bow.txt'}: line {line_no}: "
    assert _check(_argv("join", tmp_path), blamed, capsys) == 2
    out = tmp_path / "out" / "records.jsonl"
    assert not out.exists()
    assert not Path(f"{out}.report.json").exists()
