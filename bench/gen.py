"""Seeded musiXmatch-shaped inputs and the values the output checks expect.

The vocabulary has 5,000 made-up words. Each is two consonant-vowel
syllables and a closing consonant, with vowels drawn from ``a o u`` and the
closing consonant from ``b d f g k p v z``. No Porter rule matches such an
ending (no ``s``, ``y``, ``e``, ``ed``, ``ing``, ``l``, ``r``, ``t``, ``n``,
``c`` or ``m`` tail), so every word is its own stem and mock lyrics cover
their vocabulary exactly.

Word frequency follows Zipf's law over vocabulary rank, each track holds
tens to over a hundred distinct words, and counts have a heavy tail. A
fixed number of ids is missing from each side table (disjoint sets), so
the join drops the same number of tracks on every seed; the mood and meta
tables also carry a few ids that are not in the BoW file.

Nothing here imports the package: the expected values are computed from
what the generator chose, not from the program's output.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 5000
DROP_SHARE = 0.03  # of BoW ids, left out of each side table
EXTRA_SHARE = 0.01  # ids in the mood and meta tables that the BoW lacks
LEXICON_SIZE = 60

_ONSETS = "bdfgkmnptvz"
_VOWELS = "aou"
_CODAS = "bdfgkpvz"
_GENRES = (
    "Rock", "Pop", "Indie", "Electronic", "Folk", "Experimental",
    "Jazz", "Metal", "Country", "Blues", "Hip-Hop", "Soul",
)


@dataclass(frozen=True)
class Track:
    """What the join must produce for one track, from the generator's choices."""

    track_id: str
    artist: str
    title: str
    tags: tuple[str, ...]
    valence: float
    arousal: float
    counts: dict[str, int]  # word -> count
    vocabulary: tuple[str, ...]  # count descending, then vocabulary index ascending


@dataclass(frozen=True)
class Inputs:
    paths: dict[str, Path]
    tracks: tuple[Track, ...]  # the joined tracks, in track-id order
    bow_tracks: int
    abstract_words: frozenset[str]
    concrete_words: frozenset[str]


def make_vocabulary(rng: random.Random) -> list[str]:
    syllables = [c + v for c in _ONSETS for v in _VOWELS]
    words = [a + b + c for a in syllables for b in syllables for c in _CODAS]
    rng.shuffle(words)
    return words[:VOCAB_SIZE]


def _track_id(rng: random.Random) -> str:
    return "TR" + "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
                          for _ in range(16))


def _draw_counts(rng: random.Random, cum_weights: list[float]) -> dict[int, int]:
    """Distinct 1-based word indices with Zipf-distributed rank, and counts."""
    k = min(160, max(10, int(rng.lognormvariate(4.1, 0.5))))
    total = cum_weights[-1]
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.add(bisect.bisect(cum_weights, rng.random() * total) + 1)
    return {index: min(40, int(rng.paretovariate(1.3))) for index in sorted(chosen)}


def _reference_lyrics(rng: random.Random, counts: dict[str, int]) -> str:
    """Each BoW word exactly as often as its count, in 4-line sections."""
    tokens = [w for w, c in counts.items() for _ in range(c)]
    rng.shuffle(tokens)
    lines = []
    i = 0
    while i < len(tokens):
        width = rng.randint(5, 9)
        lines.append(" ".join(tokens[i : i + width]))
        i += width
    sections = ["\n".join(lines[j : j + 4]) for j in range(0, len(lines), 4)]
    return "\n\n".join(sections) + "\n"


def write_inputs(seed: int, n_tracks: int, out_dir: Path) -> Inputs:
    """Write the four join inputs, two lexicons and the reference corpus."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = make_vocabulary(rng)
    cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, VOCAB_SIZE + 1)))
    ids: list[str] = []
    seen: set[str] = set()
    while len(ids) < n_tracks:
        tid = _track_id(rng)
        if tid not in seen:
            seen.add(tid)
            ids.append(tid)
    bow = {tid: _draw_counts(rng, cum_weights) for tid in ids}

    drop = int(n_tracks * DROP_SHARE)
    dropped = rng.sample(ids, 3 * drop)
    no_mood, no_genre, no_meta = (set(dropped[i * drop:(i + 1) * drop]) for i in range(3))
    extras = [_track_id(rng) for _ in range(int(n_tracks * EXTRA_SHARE))]
    extras = [t for t in extras if t not in seen]

    paths = {name: out_dir / name for name in (
        "bow.txt", "moods.csv", "genres.tsv", "meta.csv",
        "abstract.txt", "concrete.txt", "original.jsonl")}

    with open(paths["bow.txt"], "w", encoding="utf-8") as fh:
        fh.write("# seeded musiXmatch-shaped BoW file\n# track_id,source_id,idx:cnt,...\n")
        fh.write("%" + ",".join(vocab) + "\n")
        for n, tid in enumerate(ids):
            pairs = ",".join(f"{i}:{c}" for i, c in bow[tid].items())
            fh.write(f"{tid},{1000000 + n},{pairs}\n")

    mood: dict[str, tuple[float, float]] = {}
    for tid in ids + extras:
        valence = round(rng.gauss(0.0, 1.0), 6)
        arousal = round(rng.gauss(0.0, 1.0), 6)
        if valence == 0.0 and arousal == 0.0:
            arousal = 0.5
        mood[tid] = (valence, arousal)
    mood_ids = [t for t in ids + extras if t not in no_mood]
    rng.shuffle(mood_ids)
    with open(paths["moods.csv"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "valence", "arousal"])
        for tid in mood_ids:
            writer.writerow([tid, repr(mood[tid][0]), repr(mood[tid][1])])

    tags = {tid: tuple(rng.sample(_GENRES, rng.randint(1, 3))) for tid in ids}
    with open(paths["genres.tsv"], "w", encoding="utf-8") as fh:
        fh.write("# track_id<TAB>genre\n")
        for tid in ids:
            if tid not in no_genre:
                for genre in tags[tid]:
                    fh.write(f"{tid}\t{genre}\n")

    def name(n_words: int) -> str:
        return " ".join(rng.choice(vocab).capitalize() for _ in range(n_words))

    meta: dict[str, tuple[str, str]] = {}
    for tid in ids + extras:
        title = name(rng.randint(1, 4))
        if rng.random() < 0.05:
            title += ', "Live"'  # exercises CSV quoting
        meta[tid] = (name(2), title)
    meta_ids = [t for t in ids + extras if t not in no_meta]
    rng.shuffle(meta_ids)
    with open(paths["meta.csv"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "artist", "title"])
        for tid in meta_ids:
            writer.writerow([tid, *meta[tid]])

    lexicon_words = rng.sample(vocab[:1000], 2 * LEXICON_SIZE)
    abstract, concrete = lexicon_words[:LEXICON_SIZE], lexicon_words[LEXICON_SIZE:]
    paths["abstract.txt"].write_text(
        "# abstract lexicon\n" + "\n".join(abstract) + "\n", encoding="utf-8")
    paths["concrete.txt"].write_text("\n".join(concrete) + "\n", encoding="utf-8")

    joined = sorted(set(ids) - no_mood - no_genre - no_meta)
    tracks = []
    with open(paths["original.jsonl"], "w", encoding="utf-8") as fh:
        for tid in joined:
            counts = {vocab[i - 1]: c for i, c in bow[tid].items()}
            order = sorted(bow[tid].items(), key=lambda item: (-item[1], item[0]))
            tracks.append(Track(
                track_id=tid, artist=meta[tid][0], title=meta[tid][1], tags=tags[tid],
                valence=mood[tid][0], arousal=mood[tid][1], counts=counts,
                vocabulary=tuple(vocab[i - 1] for i, _ in order),
            ))
            fh.write(json.dumps({
                "track_id": tid, "prompt_digest": "original", "model": "original",
                "created_at": "1970-01-01T00:00:00+00:00",
                "lyrics": _reference_lyrics(rng, counts),
            }) + "\n")
    return Inputs(
        paths=paths, tracks=tuple(tracks), bow_tracks=len(ids),
        abstract_words=frozenset(abstract), concrete_words=frozenset(concrete),
    )
