"""Shared exception root for the lyrecon package."""


class LyreconError(Exception):
    """Base class for every error lyrecon raises on purpose."""


class LineError(LyreconError):
    """An error in one input line; the message starts with its 1-based number.

    Parsers raise subclasses of this so the CLI can point at the offending
    input. ``line_no`` is None when no single line is to blame.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
