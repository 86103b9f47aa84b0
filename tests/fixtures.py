"""Synthetic aligned datasets for pipeline and acceptance tests.

The fixture vocabulary contains only words that are fixed points of the
stemmer (checked by a test), so mock-generated lyrics cover their BoW
vocabulary exactly and the coverage metric can be asserted to be 1.0.
"""

from __future__ import annotations

import csv
import json
import os
import random
from pathlib import Path

FIXTURE_WORDS: tuple[str, ...] = (
    "love", "night", "fire", "dream", "heart", "world", "time", "road",
    "light", "rain", "river", "stone", "star", "moon", "sun", "wind",
    "storm", "shadow", "echo", "silver", "gold", "blue", "black", "white",
    "red", "green", "wild", "free", "lost", "found", "home", "never",
    "again", "tomorrow", "midnight", "summer", "winter", "spring", "autumn",
    "ocean", "wave", "shore", "sand", "sky", "cloud", "thunder", "whisper",
    "scream", "sound", "music", "rhythm", "floor", "wall", "window", "door",
    "street", "town", "field", "mountain", "train", "car", "wheel", "glass",
    "chair", "bed", "room", "mirror", "photograph", "letter", "word", "page",
    "book", "song", "breath", "bone", "blood", "skin", "hand", "finger",
    "ear", "mouth", "lip", "smile", "tear", "laugh", "cry", "run", "walk",
    "fall", "fly", "rise", "stand", "sit", "wait", "return", "burn",
    "break", "build", "open", "close", "push", "pull", "give", "take",
    "keep", "hold", "drop", "catch", "throw", "young", "old", "new",
    "true", "real", "fake", "cold", "warm", "hot", "cool", "dark",
    "bright", "deep", "high", "low", "slow", "fast", "hard", "soft",
    "loud", "quiet", "sweet", "bitter", "full", "broken", "whole", "half",
)

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env(**extra: str) -> dict[str, str]:
    """This process's environment plus ``extra``, with this checkout's
    ``src`` put first on ``PYTHONPATH``, for a subprocess that imports
    lyrecon."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


GENRE_POOL = (
    "Rock", "Pop", "Indie", "Electronic", "Folk", "Experimental",
    "Jazz", "Metal", "Country", "Blues",
)

ABSTRACT_WORDS = ("dream", "free", "true", "never", "real", "lost")
CONCRETE_WORDS = ("stone", "glass", "sand", "wall", "door", "river", "train")


def track_ids(n: int) -> list[str]:
    return [f"TRFIX{i:05d}X128F" for i in range(n)]


def make_bow_text(n_tracks: int, vocab_size: int = 80, seed: int = 0) -> str:
    """A canonical-form BoW file over the fixture vocabulary."""
    rng = random.Random(seed)
    vocab = FIXTURE_WORDS[:vocab_size]
    lines = ["%" + ",".join(vocab)]
    for i, tid in enumerate(track_ids(n_tracks)):
        k = rng.randint(5, 18)
        indices = sorted(rng.sample(range(1, len(vocab) + 1), k))
        pairs = ",".join(f"{idx}:{rng.randint(1, 30)}" for idx in indices)
        lines.append(f"{tid},SRC{i:05d},{pairs}")
    return "\n".join(lines) + "\n"


def write_aligned_fixtures(
    directory: Path, n_tracks: int, seed: int = 0, vocab_size: int = 80
) -> dict[str, Path]:
    """BoW + mood + genres + meta files whose track ids all line up."""
    rng = random.Random(seed + 1)
    directory.mkdir(parents=True, exist_ok=True)
    ids = track_ids(n_tracks)
    paths = {
        "bow": directory / "bow.txt",
        "mood": directory / "mood.csv",
        "genres": directory / "genres.tsv",
        "meta": directory / "meta.csv",
    }
    paths["bow"].write_text(
        make_bow_text(n_tracks, vocab_size=vocab_size, seed=seed), encoding="utf-8"
    )

    with open(paths["mood"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "valence", "arousal"])
        for tid in ids:
            valence = round(rng.uniform(-3, 3), 3)
            arousal = round(rng.uniform(-3, 3), 3)
            if valence == 0 and arousal == 0:
                arousal = 0.5
            writer.writerow([tid, valence, arousal])

    with open(paths["genres"], "w", encoding="utf-8") as fh:
        for tid in ids:
            for genre in rng.sample(GENRE_POOL, rng.randint(1, 3)):
                fh.write(f"{tid}\t{genre}\n")

    with open(paths["meta"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "artist", "title"])
        for i, tid in enumerate(ids):
            artist = " ".join(
                w.capitalize() for w in rng.sample(FIXTURE_WORDS, 2)
            )
            title = " ".join(w.capitalize() for w in rng.sample(FIXTURE_WORDS, 3))
            if i % 17 == 3:
                title = f"{title}, Reprise"  # exercises CSV quoting
            writer.writerow([tid, artist, title])

    return paths


def write_lexicons(directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    abstract = directory / "abstract.txt"
    concrete = directory / "concrete.txt"
    abstract.write_text(
        "# fixture abstractness lexicon\n" + "\n".join(ABSTRACT_WORDS) + "\n",
        encoding="utf-8",
    )
    concrete.write_text("\n".join(CONCRETE_WORDS) + "\n", encoding="utf-8")
    return abstract, concrete


def replace_line(path: Path, line_no: int, text: bytes) -> None:
    """Put ``text`` in place of the file's 1-based line ``line_no``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = text
    path.write_bytes(b"".join(lines))


# the key order of the cache files of builds before a cache file held its
# entry as a corpus line
OLDER_KEY_ORDER = ("track_id", "prompt_digest", "lyrics", "model", "created_at")


def write_per_file_cache(root: Path, corpus: bytes, older: int | None = None) -> list[Path]:
    """A cache in the per-file layout of earlier builds, holding each line
    of ``corpus`` less its newline at ``<root>/<digest[:2]>/<digest>``, and
    line ``older`` (0-based) with its keys in ``OLDER_KEY_ORDER``. Returns
    the files in line order."""
    paths = []
    for i, line in enumerate(corpus.splitlines()):
        data = json.loads(line)
        if i == older:
            line = json.dumps({key: data[key] for key in OLDER_KEY_ORDER},
                              ensure_ascii=False).encode("utf-8")
        digest = data["prompt_digest"]
        path = root / digest[:2] / digest
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(line)
        paths.append(path)
    return paths
