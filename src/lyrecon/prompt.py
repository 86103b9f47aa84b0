"""Deterministic generation prompts from reconstruction records.

One fixed template, five slots, byte-reproducible output. Genre tags and
vocabulary words are joined with ", "; artist and title are substituted
verbatim (no escaping, no case changes) because the prompt is free text
for a language model, not a machine-parsed record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from lyrecon.errors import LyreconError
from lyrecon.metadata import ReconstructionRecord

PROMPT_TEMPLATE = (
    "Compose {genre} lyrics, in a style reminiscent of {artist} "
    "which represents a {mood} mood under the title of {title} "
    "using the following vocabulary {vocabulary}."
)


@dataclass(frozen=True)
class PromptFields:
    """The five substituted values, retained for audit."""

    genre: str
    artist: str
    mood: str
    title: str
    vocabulary: str

    def render(self) -> str:
        return PROMPT_TEMPLATE.format(
            genre=self.genre,
            artist=self.artist,
            mood=self.mood,
            title=self.title,
            vocabulary=self.vocabulary,
        )


@dataclass(frozen=True)
class Prompt:
    text: str
    track_id: str
    field_values: PromptFields


def genre_string(tags: Sequence[str]) -> str:
    if not tags:
        raise LyreconError("record has no genre tags")
    return ", ".join(tags)


def vocabulary_string(words: Sequence[str]) -> str:
    if not words:
        raise LyreconError("record has no vocabulary words")
    return ", ".join(words)


def build_prompt(
    record: ReconstructionRecord, max_vocabulary_words: int | None = None
) -> Prompt:
    """Instantiate the template for one record.

    ``max_vocabulary_words`` optionally truncates the tail of the
    frequency-sorted vocabulary for callers worried about model context
    limits; it is off by default and the full list is used.
    """
    words = record.vocabulary
    if max_vocabulary_words is not None:
        words = words[:max_vocabulary_words]
    fields = PromptFields(
        genre=genre_string(record.tags),
        artist=record.artist,
        mood=record.mood_label,
        title=record.title,
        vocabulary=vocabulary_string(words),
    )
    return Prompt(text=fields.render(), track_id=record.track_id, field_values=fields)
