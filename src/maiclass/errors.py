"""Exception hierarchy shared across the package, and its input readers.

Every domain failure raises a subclass of :class:`MaiclassError`, so the CLI
can map any of them to exit code 1 while usage mistakes stay exit code 2.
A subclass whose constructor does not take the message alone defines
``__reduce__`` to rebuild itself from its constructor arguments, so every
error survives pickling (as a worker process needs) with the same message.
Every input file is read line by line through ``_read_lines``, so an
unreadable or non-UTF-8 file always ends as :class:`IoError` and every
reader counts lines the same way. Every number in a sample file or score
fixture is read through ``_parse_number``.
"""

import contextlib
from importlib import resources
from typing import Iterator, Optional


class MaiclassError(Exception):
    """Base class for all domain errors raised by this package."""


class IoError(MaiclassError):
    """A file could not be read or written."""


# Characters decoded per read while ``_read_lines`` checks a file; each read
# holds up to 4 bytes a character while it lives.
_CHECK_CHUNK = 1 << 13


def _read_lines(source, what: str) -> Iterator[str]:
    """Yield a UTF-8 text file's lines one at a time, without line ends.

    ``source`` is a filesystem path or a packaged resource (an
    ``importlib.resources`` traversable). A leading byte-order mark is
    dropped, and a missing or unreadable file and bytes that are not UTF-8
    raise :class:`IoError`. Lines end at LF, CRLF or a lone CR only, never
    at U+2028, U+0085, a vertical tab or a form feed (``str.splitlines``
    would end one there and shift every later line number); no empty last
    line follows a final line end. The whole file is decoded once, keeping
    nothing, before the first line is yielded, so a file that is not UTF-8
    raises before any line is read.
    """
    opened = resources.as_file(source) if hasattr(source, "read_text") \
        else contextlib.nullcontext(source)
    try:
        with opened as path, open(path, "r", encoding="utf-8-sig") as fh:
            while fh.read(_CHECK_CHUNK):
                pass
            fh.seek(0)
            for line in fh:
                yield line[:-1] if line.endswith("\n") else line
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {source}: {exc}") from exc


class ParseError(MaiclassError):
    """A record or cell in an input file is malformed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.line, self.message)


def _parse_number(text: str, line: int, message: str) -> float:
    """``float(text)`` for the ASCII spellings a number file holds.

    ``nan``, ``inf`` and exponents read as ``float`` reads them, but a
    digit separator (``1_0``) or any non-ASCII character, such as an
    Arabic-Indic or fullwidth digit, raises :class:`ParseError` at ``line``
    with ``message`` and ``text``: ``float`` would read them as a number
    the file never meant.
    """
    if not text.isascii() or "_" in text:
        raise ParseError(line, f"{message} {text!r}")
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(line, f"{message} {text!r}") from exc


class DuplicateId(MaiclassError):
    """Two corpus records share the same id."""

    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id {doc_id!r}")
        self.doc_id = doc_id

    def __reduce__(self):
        return type(self), (self.doc_id,)


class EmptyCorpus(MaiclassError):
    """No documents, or no tokens at all, where at least one is required."""


class ClassTooSmall(MaiclassError):
    """A class has too few documents to be split."""

    def __init__(self, label: str, size: int):
        super().__init__(f"class {label!r} has only {size} document(s); need at least 2")
        self.label = label
        self.size = size

    def __reduce__(self):
        return type(self), (self.label, self.size)


class DegenerateLabels(MaiclassError):
    """Training data contains fewer than two distinct labels."""


class DimensionMismatch(MaiclassError):
    """Vector or matrix dimensions do not agree."""


class LengthMismatch(MaiclassError):
    """Two sequences that must be aligned have different lengths."""


class NumericalFailure(MaiclassError):
    """A value is or became NaN or infinite: in input rows, an oracle, an
    optimizer or an estimator's arithmetic."""


class Unsupported(MaiclassError):
    """The requested operation is not available for this model type."""


class RunFailure(MaiclassError):
    """A repeated-evaluation run failed; wraps the original error with its run index.

    ``vector_model`` and ``algorithm`` name the grid cell the failure
    happened in; both are ``None`` before the run reaches a vector model
    (its split or vocabulary), and ``algorithm`` is ``None`` while the
    model's matrices are built.
    """

    def __init__(self, run: int, cause: Exception,
                 vector_model: Optional[str] = None,
                 algorithm: Optional[str] = None):
        where = ", ".join(filter(None, (vector_model, algorithm)))
        where = f" ({where})" if where else ""
        super().__init__(f"run {run}{where}: {type(cause).__name__}: {cause}")
        self.run = run
        self.cause = cause
        self.vector_model = vector_model
        self.algorithm = algorithm

    def __reduce__(self):
        return type(self), (self.run, self.cause, self.vector_model,
                            self.algorithm)


class EmptySample(MaiclassError):
    """A statistical operation received an empty sample."""


class EmptyTable(MaiclassError):
    """An agreement table has no rows or no columns."""


class MissingCell(MaiclassError):
    """The score fixture lacks a required (model, classifier, corpus, MaI) cell."""

    def __init__(self, model: str, classifier: str, corpus: str, mai: str):
        super().__init__(f"missing cell ({model}, {classifier}, {corpus}, {mai})")
        self.key = (model, classifier, corpus, mai)

    def __reduce__(self):
        return type(self), self.key


class RangeError(MaiclassError):
    """A score value lies outside [0, 1]."""
