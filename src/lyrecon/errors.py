"""Shared exception root for the lyrecon package.

Every error lyrecon raises on purpose is a :class:`LyreconError`. Each
line-oriented input format has one :class:`LineError` subclass:
``BowParseError`` (BoW file), ``TableParseError`` (mood, genre and meta
tables), ``MoodTableError`` (mood arc table), ``RecordsFormatError``
(records file) and ``CorpusFormatError`` (corpus file and cache entries);
the run manifest's is ``ManifestMismatch``. An error no caller tells
apart by type, such as an empty lexicon, corpus or prompt field, or a mood
point with no angle, is a plain ``LyreconError``.
"""


class LyreconError(Exception):
    """Base class for every error lyrecon raises on purpose."""


class LineError(LyreconError):
    """An error in one input line; the message starts with its 1-based number.

    Each on-disk format's parser raises its own subclass of this so the CLI
    can point at the offending input. ``line_no`` is None when no single
    line is to blame.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
