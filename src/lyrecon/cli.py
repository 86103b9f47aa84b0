"""Command-line entry point: join, reconstruct, evaluate, report.

Exit codes: 0 success; 2 any unusable input or unwritable output path, in
any command: one line naming the file, and the line where one is known (or
the bad flag or setting); 3 empty join intersection; 4 tracks still failed
after retries (partial output and manifest are kept for a retry); 130
interrupted (Ctrl-C): one line asks for a rerun. A rerun of ``reconstruct``
resumes, once the requests in flight have finished into the cache; any
other command starts over. Commands raise; ``main`` alone turns an error
into that one line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import typing
from pathlib import Path

from lyrecon import backend as be
from lyrecon import evaluation as ev
from lyrecon import metadata as md
from lyrecon import mood as mood_mod
from lyrecon.analysis import LyricDoc, load_lexicon, segment
from lyrecon.bow import iter_bow
from lyrecon.errors import LyreconError
from lyrecon.pipeline import (
    RunManifest,
    corpus_entry_line,
    decode_json,
    file_digest,
    iter_corpus,
    json_fields,
    read_corpus,  # not called here; bench/layertrace.py wraps it by name
    read_records,
    recover_corpus_file,
    rewrite_corpus_in_order,
    write_records,
)
from lyrecon.prompt import build_prompt


def _not_utf8(path: Path | str, exc: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8. A text stream decodes in
    blocks and cannot tell the line, so the file is scanned again for it."""
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    return f"{path}: line {line_no}: not UTF-8: {bad.reason}"
    except OSError:
        pass
    return f"{path}: not UTF-8: {exc.reason}"


def _os_message(exc: OSError, path: Path | str | None = None) -> str:
    filename = exc.filename or path
    return f"{filename}: {exc.strerror or exc}" if filename else str(exc)


@contextlib.contextmanager
def _reading(path: Path | str) -> typing.Iterator[None]:
    """Blame an error raised in the block on the file at ``path``. Wrap a
    whole file, never each line: the hot loops pay nothing per track."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise LyreconError(_not_utf8(path, exc)) from exc
    except OSError as exc:
        raise LyreconError(_os_message(exc, path)) from exc
    except (LyreconError, ValueError) as exc:
        raise LyreconError(f"{path}: {exc}") from exc


# --- join -------------------------------------------------------------------

def _column_map(flag: str, text: str) -> md.ColumnMap:
    try:
        return md.ColumnMap.parse(text)
    except ValueError as exc:
        raise LyreconError(f"{flag}: {exc}") from exc


def cmd_join(args: argparse.Namespace) -> int:
    mood_columns = _column_map("--mood-columns", args.mood_columns)
    meta_columns = _column_map("--meta-columns", args.meta_columns)
    mood_table = mood_mod.default_mood_table()
    if args.mood_table:
        with _reading(args.mood_table):
            mood_table = mood_mod.load_mood_table(args.mood_table)
    stages = [
        ("mood", args.mood, lambda fh: md.parse_mood_csv(fh, mood_columns)),
        ("genres", args.genres, lambda fh: md.parse_genre_table(fh)),
        ("meta", args.meta, lambda fh: md.parse_track_meta(fh, meta_columns)),
    ]
    parsed = {}
    for name, path, parse in stages:
        with _reading(path), open(path, encoding="utf-8", newline="") as fh:
            parsed[name] = parse(fh)
    # the BoW is read last, once, each track joined and dropped as it is parsed
    with _reading(args.bow), open(args.bow, encoding="utf-8", newline="") as fh:
        records, report = md.join_records(
            *iter_bow(fh), parsed["mood"], parsed["genres"], parsed["meta"], mood_table
        )
    print(report.render())
    Path(str(args.out) + ".report.json").write_text(
        json.dumps(dataclasses.asdict(report), indent=2) + "\n", encoding="utf-8"
    )
    if not records:
        print("lyrecon: no track appears in all four inputs", file=sys.stderr)
        return 3
    write_records(records, args.out)
    print(f"wrote {len(records)} record(s) to {args.out}")
    return 0


# --- reconstruct ------------------------------------------------------------

# settings of the CLI itself, not of BackendConfig
_CLI_SETTINGS = {"cache_dir": str, "max_vocabulary_words": int}
# config key -> its type; the key for BackendConfig's ``kind`` is "backend"
_CONFIG_TYPES = {("backend" if name == "kind" else name): ftype for name, ftype
                 in typing.get_type_hints(be.BackendConfig).items()} | _CLI_SETTINGS


def _build_backend_config(args: argparse.Namespace) -> tuple[be.BackendConfig, dict]:
    """Merge flags over the optional config file over BackendConfig's defaults."""
    settings: dict = {}
    if args.config:
        with _reading(args.config):
            data = decode_json(Path(args.config).read_text(encoding="utf-8"))
            settings = json_fields(data, _CONFIG_TYPES, required=False)
            unknown = [key for key in data if key not in settings]
            if unknown:
                raise LyreconError(f"unknown config key {unknown[0]!r}")
    for key in _CONFIG_TYPES:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    kwargs = {("kind" if key == "backend" else key): value
              for key, value in settings.items() if key not in _CLI_SETTINGS}
    cap = settings.get("max_vocabulary_words")
    try:
        # prompts are built during the run, so a cap that empties them fails here
        if cap is not None and cap < 1:
            raise ValueError(f"max_vocabulary_words must be >= 1, got {cap!r}")
        return be.BackendConfig(**kwargs), settings
    except ValueError as exc:
        raise LyreconError(f"bad configuration: {exc}") from exc


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from hashlib import sha256  # loads libcrypto: join and evaluate never hash

    config, settings = _build_backend_config(args)
    cap = settings.get("max_vocabulary_words")
    be.require_credential(config)  # before any state is created
    with _reading(args.records):
        records = read_records(args.records)
        if not records:
            raise LyreconError("no records to reconstruct")
        records_digest = file_digest(args.records)

    out = Path(args.out)
    manifest_path = Path(str(out) + ".manifest")
    # the vocabulary cap changes prompt text, so it is part of run identity
    config_digest = sha256(
        f"{config.digest()}:cap={cap}".encode("utf-8")
    ).hexdigest()
    if manifest_path.exists():
        with _reading(manifest_path):
            manifest = RunManifest.load(manifest_path, config_digest, records_digest)
        with _reading(out):
            found = recover_corpus_file(out)
    else:
        if out.exists() and out.stat().st_size > 0:
            raise LyreconError(
                f"{out}: exists without a manifest; refusing to append to it"
            )
        try:
            manifest = RunManifest.create(
                manifest_path, config_digest, records_digest, len(records)
            )
        except OSError as exc:  # blame the path given, not the manifest's temp file
            raise LyreconError(f"{out}: {exc.strerror or exc}") from exc
        found = []
    present = dict.fromkeys(found)

    record_ids = [r.track_id for r in records]
    known = set(record_ids)
    stray = [track_id for track_id in present if track_id not in known]
    if stray:
        raise LyreconError(f"{out}: holds track(s) not in the records file: {stray[:3]}")
    pending = len(records) - len(present)

    cache_dir = settings.get("cache_dir") or str(out) + ".cache"
    cache = be.LyricsCache(cache_dir)
    # built one at a time as run_batch's window takes them
    prompts = (build_prompt(r, cap) for r in records if r.track_id not in present)

    failed: list[be.BatchItem] = []
    with manifest:
        # heal the write-ahead gap: output line present, done line missing
        for track_id in (tid for tid in record_ids
                         if tid in present and manifest.status.get(tid) != "done"):
            manifest.done(track_id)
        with open(out, "a", encoding="utf-8") as fh:

            def write_item(item: be.BatchItem) -> None:
                if item.result is not None:
                    fh.write(corpus_entry_line(item.result) + "\n")
                    fh.flush()
                    manifest.done(item.track_id)
                else:
                    manifest.failed(item.track_id, item.error or "unknown")
                    failed.append(item)

            be.run_batch(prompts, config, cache, on_item=write_item)

    print(
        f"reconstructed {pending - len(failed)} track(s), "
        f"{len(present)} already done, {len(failed)} failed"
    )
    if failed:
        for item in failed:
            print(f"lyrecon: failed {item.track_id}: {item.error}", file=sys.stderr)
        print(
            f"lyrecon: {len(failed)} track(s) failed; manifest and partial "
            f"output kept at {out}",
            file=sys.stderr,
        )
        return 4
    # run_batch appended the rest in record order, so a corpus that held the
    # first tracks in order, and nothing else, is in order already
    if found != record_ids[:len(found)]:
        rewrite_corpus_in_order(out, record_ids)
    print(f"corpus complete: {len(record_ids)} record(s) in {out}")
    return 0


# --- evaluate ---------------------------------------------------------------

def _stats_json(stats: ev.CorpusStats) -> str:
    return json.dumps(dataclasses.asdict(stats), indent=2) + "\n"


def _read_stats_json(path: str) -> ev.CorpusStats:
    with _reading(path):
        data = decode_json(Path(path).read_text(encoding="utf-8"))
        try:
            fields = json_fields(data, typing.get_type_hints(ev.CorpusStats))
        except ValueError as exc:
            raise LyreconError(f"stats fields missing or not finite: {exc}") from exc
    return ev.CorpusStats(**fields)


# bench/layertrace.py wraps this name to time the bow.load layer
def load_bow(source: typing.IO[str]) -> ev.FidelityTable:
    """A BoW file parsed and validated once through ``iter_bow``, whole,
    into the flat table that evaluate scores from."""
    return ev.FidelityTable(*iter_bow(source))


def _segmented(path: str, score=None) -> typing.Iterator[LyricDoc]:
    """Each entry of a corpus file segmented, handed to ``score`` with its
    track id, and dropped once the consumer takes the next."""
    for entry in iter_corpus(path):
        doc = segment(entry.lyrics)
        if score is not None:
            score(entry.track_id, doc)
        yield doc


def _comparison(report: ev.ComparisonReport, left_label: str,
                right_label: str) -> dict[str, str]:
    return {
        "report.txt": ev.render_comparison_text(report, left_label, right_label),
        "report.tsv": ev.render_comparison_tsv(report),
    }


def _write_outputs(out_dir: Path, outputs: dict[str, str],
                   stale: typing.Iterable[str] = ()) -> None:
    """Write every output, each encoded before the first is written."""
    data = {name: text.encode("utf-8") for name, text in outputs.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in stale:
        if name not in data:
            (out_dir / name).unlink(missing_ok=True)
    for name, blob in data.items():
        (out_dir / name).write_bytes(blob)


# an earlier run in another mode must not leave its outputs behind
_EVALUATE_OUTPUTS = ("stats.json", "stats_reference.json", "report.txt",
                     "report.tsv", "fidelity.tsv", "fidelity_summary.json")


def cmd_evaluate(args: argparse.Namespace) -> int:
    """One streamed pass over each corpus; outputs are written only once
    every input has been read."""
    out_dir = Path(args.out_dir)
    with _reading(args.abstract_lexicon):
        abstract_lex = load_lexicon(args.abstract_lexicon, "abstract")
    with _reading(args.concrete_lexicon):
        concrete_lex = load_lexicon(args.concrete_lexicon, "concrete")
    fidelity = None
    if args.bow:
        with _reading(args.bow), open(args.bow, encoding="utf-8") as fh:
            fidelity = load_bow(fh)
    with _reading(args.corpus):
        stats = ev.corpus_stats(
            _segmented(args.corpus, fidelity.score if fidelity else None),
            abstract_lex, concrete_lex,
        )
    outputs = {"stats.json": _stats_json(stats)}
    if fidelity is not None:
        with _reading(args.bow):
            fidelity_outputs, mean_coverage = fidelity.outputs()
        outputs.update(fidelity_outputs)
        fidelity = None  # the BoW is released before the reference is read
    if args.reference:
        with _reading(args.reference):
            ref_stats = ev.corpus_stats(
                _segmented(args.reference), abstract_lex, concrete_lex
            )
        outputs["stats_reference.json"] = _stats_json(ref_stats)
        outputs.update(_comparison(
            ev.compare(stats, ref_stats), args.label, args.reference_label
        ))
    else:
        outputs["report.txt"] = ev.render_stats_text(stats, args.label)
    with _reading(args.out_dir):
        _write_outputs(out_dir, outputs, stale=_EVALUATE_OUTPUTS)

    print(f"lyric sets: {stats.lyric_set_count}")
    if args.bow:
        print(f"mean bow_coverage: {mean_coverage:.6f}")
    print(f"reports written to {out_dir}")
    return 0


# --- report -----------------------------------------------------------------

def cmd_report(args: argparse.Namespace) -> int:
    left = _read_stats_json(args.left)
    right = _read_stats_json(args.right)
    outputs = _comparison(ev.compare(left, right), args.left_label, args.right_label)
    with _reading(args.out_dir):
        _write_outputs(Path(args.out_dir), outputs)
    print(outputs["report.txt"], end="")
    return 0


# --- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyrecon",
        description="Rebuild lyric corpora from Bag-of-Words datasets and "
        "aligned metadata, then evaluate the result.",
    )
    sub = parser.add_subparsers(dest="command")

    p_join = sub.add_parser(
        "join", help="inner-join BoW + mood + genre + meta into records"
    )
    p_join.add_argument("--bow", required=True, help="BoW dataset file")
    p_join.add_argument("--mood", required=True, help="valence/arousal CSV")
    p_join.add_argument("--genres", required=True, help="track_id<TAB>genre file")
    p_join.add_argument("--meta", required=True, help="artist/title CSV")
    p_join.add_argument("--mood-table", default=None,
                        help="mood arc table (default: packaged octants)")
    p_join.add_argument("--mood-columns", default=str(md.MOOD_COLUMNS),
                        help="id,valence,arousal column names")
    p_join.add_argument("--meta-columns", default=str(md.META_COLUMNS),
                        help="id,artist,title column names")
    p_join.add_argument("--out", "-o", required=True, help="records file to write")
    p_join.set_defaults(func=cmd_join)

    p_rec = sub.add_parser("reconstruct", help="generate lyrics for joined records")
    p_rec.add_argument("--records", required=True, help="records file from join")
    p_rec.add_argument("--out", "-o", required=True, help="corpus file to write")
    p_rec.add_argument("--backend", choices=("mock", "live"), default=None)
    p_rec.add_argument("--endpoint", default=None, help="chat-completion URL")
    p_rec.add_argument("--model", default=None)
    p_rec.add_argument("--temperature", type=float, default=None)
    p_rec.add_argument("--max-output-tokens", type=int, default=None)
    p_rec.add_argument("--timeout", type=float, default=None)
    p_rec.add_argument("--max-attempts", type=int, default=None)
    p_rec.add_argument("--backoff-base", type=float, default=None)
    p_rec.add_argument("--max-in-flight", type=int, default=None)
    p_rec.add_argument("--cache-dir", default=None,
                       help="content-addressed result cache (default: <out>.cache)")
    p_rec.add_argument("--max-vocabulary-words", type=int, default=None,
                       help="truncate each prompt's vocabulary tail")
    p_rec.add_argument("--config", default=None,
                       help="JSON file with defaults for the flags above")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_eval = sub.add_parser("evaluate", help="corpus statistics and fidelity metrics")
    p_eval.add_argument("--corpus", required=True, help="corpus file to evaluate")
    p_eval.add_argument("--reference", default=None,
                        help="second corpus for a side-by-side report")
    p_eval.add_argument("--abstract-lexicon", required=True)
    p_eval.add_argument("--concrete-lexicon", required=True)
    p_eval.add_argument("--bow", default=None,
                        help="BoW file for per-track coverage/fidelity")
    p_eval.add_argument("--label", default=ev.LEFT_LABEL)
    p_eval.add_argument("--reference-label", default=ev.RIGHT_LABEL)
    p_eval.add_argument("--out-dir", "-o", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="render a comparison from saved stats")
    p_rep.add_argument("--left", required=True, help="stats.json")
    p_rep.add_argument("--right", required=True, help="stats.json")
    p_rep.add_argument("--left-label", default=ev.LEFT_LABEL)
    p_rep.add_argument("--right-label", default=ev.RIGHT_LABEL)
    p_rep.add_argument("--out-dir", "-o", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except OSError as exc:  # a write, or a read no command names
        message = _os_message(exc)
    except (LyreconError, UnicodeError) as exc:
        message = str(exc)
    except KeyboardInterrupt:
        print("lyrecon: interrupted; rerun the same command", file=sys.stderr)
        return 130
    print(f"lyrecon: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
