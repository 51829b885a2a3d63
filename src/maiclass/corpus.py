"""Loading and normalization of labeled community-page texts.

A corpus file is JSON-lines: one UTF-8 record per line with string fields
``id``, ``network`` ("twitter" | "vkontakte"), ``language`` ("en" | "ru"),
``label`` and ``text``. Normalization lowercases with full Unicode case
folding, splits on whitespace, drops hashtag tokens whole, removes emoji
code points and strips punctuation-category characters.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field

from .errors import DuplicateId, ParseError, _read_lines

NETWORKS = ("twitter", "vkontakte")
LANGUAGES = ("en", "ru")

# Closed emoji definition: the SMP pictographic blocks, the BMP symbol and
# dingbat blocks that are overwhelmingly emoji, the handful of scattered
# U+2Bxx emoji, variation selectors, ZWJ and the combining keycap. The
# formal Unicode Emoji property is deliberately not used verbatim because it
# also covers ASCII digits, '#' and '*' (keycap bases), which must survive.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0xFE00, 0xFE0F),
)
_EMOJI_SINGLES = frozenset(
    [0x200D, 0x20E3, 0x2B05, 0x2B06, 0x2B07, 0x2B1B, 0x2B1C, 0x2B50, 0x2B55]
)


def is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    if cp in _EMOJI_SINGLES:
        return True
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


# Most code points a table remembers: about 5 MB of dict entries. Past it,
# a new code point is classified on every lookup instead of being stored.
_DROP_LIMIT = 1 << 16


class _DropTable(dict):
    """``str.translate`` table deleting emoji and punctuation code points.

    Each code point is classified on its first lookup and the answer kept,
    up to ``_DROP_LIMIT`` code points: ``None`` deletes it, the code point
    itself keeps it. The predicates are pure, so sharing one table across
    calls is safe.
    """

    def __missing__(self, cp: int):
        ch = chr(cp)
        keep = None if is_emoji_char(ch) or _is_punctuation(ch) else cp
        if len(self) < _DROP_LIMIT:
            self[cp] = keep
        return keep


_DROP = _DropTable()


def normalize_text(raw: str) -> list[str]:
    """Normalize raw page text into the token list used for vectorization.

    Case folds, splits on Unicode whitespace, drops any token that starts
    with '#' entirely, removes emoji code points, strips punctuation-category
    characters and discards tokens that end up empty. Total and
    deterministic; idempotent on the space-join of its own output.
    """
    return _normalize(raw, {})


def _normalize(raw: str, cleaned: dict[str, str]) -> list[str]:
    """:func:`normalize_text`, cleaning each distinct raw token once.

    ``cleaned`` maps a case-folded raw token to its cleaned form, "" when
    the token is dropped; callers share it across texts. A cleaned form
    holds no '#', emoji or punctuation, so it cleans to itself and is its
    own entry: equal cleaned forms of different raw tokens come back as
    one str object.
    """
    tokens = []
    for token in raw.casefold().split():
        clean = cleaned.get(token)
        if clean is None:
            clean = "" if token.startswith("#") else token.translate(_DROP)
            clean = cleaned[token] = cleaned.setdefault(clean, clean)
        if clean:
            tokens.append(clean)
    return tokens


@dataclass(frozen=True)
class Document:
    """One community page's text with its network/language/interest labels."""

    id: str
    network: str
    language: str
    label: str
    raw_text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_raw(cls, id: str, network: str, language: str, label: str, raw_text: str) -> "Document":
        return cls(id, network, language, label, raw_text, tuple(normalize_text(raw_text)))


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of documents plus the distinct label list."""

    name: str
    documents: tuple[Document, ...]
    classes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def per_class_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in self.classes}
        for doc in self.documents:
            counts[doc.label] += 1
        return counts


_REQUIRED_KEYS = ("id", "network", "language", "label", "text")


def load_corpus(path: str) -> Corpus:
    """Load a corpus file, normalizing every record's text.

    Preserves file order; ``classes`` lists labels in order of first
    appearance. Raises :class:`ParseError` with the 1-based line number on a
    malformed record, including a field holding a lone surrogate escape such
    as ``\\ud800`` (it cannot be written back out as UTF-8),
    :class:`DuplicateId` on a repeated id and :class:`IoError` when the file
    cannot be read or is not UTF-8, before any record is parsed. Records
    end at LF, CRLF or a lone CR, never at a raw U+2028 inside a JSON
    string. The file is read one line at a time, so the whole decoded text
    is never in memory at once.
    """
    documents: list[Document] = []
    classes: list[str] = []
    seen_ids: set[str] = set()
    # The table is local, so it dies with the call, not the process. Most
    # raw tokens repeat, and each distinct one is cleaned once; equal
    # tokens are one str object, so repeats share memory and their dict
    # lookups compare by identity.
    cleaned: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path, "corpus file"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:
            # An integer literal longer than sys.get_int_max_str_digits().
            raise ParseError(lineno, "integer literal too long") from exc
        except RecursionError as exc:
            raise ParseError(lineno, "JSON nested too deeply") from exc
        if not isinstance(record, dict):
            raise ParseError(lineno, "record is not a JSON object")
        for key in _REQUIRED_KEYS:
            if key not in record:
                raise ParseError(lineno, f"missing field {key!r}")
            if not isinstance(record[key], str):
                raise ParseError(lineno, f"field {key!r} is not a string")
            try:
                record[key].encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(lineno, f"field {key!r} holds a lone "
                                         "surrogate") from exc
        if record["network"] not in NETWORKS:
            raise ParseError(lineno, f"network must be one of {NETWORKS}")
        if record["language"] not in LANGUAGES:
            raise ParseError(lineno, f"language must be one of {LANGUAGES}")
        if not record["id"]:
            raise ParseError(lineno, "empty id")
        if record["id"] in seen_ids:
            raise DuplicateId(record["id"])
        seen_ids.add(record["id"])
        tokens = _normalize(record["text"], cleaned)
        documents.append(
            Document(
                record["id"], record["network"], record["language"],
                record["label"], record["text"],
                tuple(tokens),
            )
        )
        if record["label"] not in classes:
            classes.append(record["label"])
    return Corpus(name=path, documents=tuple(documents), classes=tuple(classes))


_LINE_BREAKS = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})


def one_line(text: str) -> str:
    """``text`` with each LF and CR written as the escape ``\\n``/``\\r``.

    A label or id is free text in a corpus record; printed raw, a line
    break in it would split the line it is printed on. A backslash is
    written as ``\\\\``, so a label holding a backslash and an ``n`` does
    not print like one holding a line feed.
    """
    return text.translate(_LINE_BREAKS)


@dataclass
class ValidationReport:
    """Balance and emptiness report for a corpus."""

    expected_per_class: int
    per_class_counts: dict[str, int]
    unbalanced_classes: list[str] = field(default_factory=list)
    empty_documents: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.per_class_counts) and not self.unbalanced_classes \
            and not self.empty_documents

    def summary(self) -> str:
        lines = [f"classes: {len(self.per_class_counts)}"]
        if not self.per_class_counts:
            lines.append("corpus has no documents")
        for label, count in self.per_class_counts.items():
            mark = "" if count == self.expected_per_class else f"  (expected {self.expected_per_class})"
            lines.append(f"  {one_line(label)}: {count}{mark}")
        if self.empty_documents:
            ids = ", ".join(map(one_line, self.empty_documents))
            lines.append(f"documents normalizing to no tokens: {ids}")
        lines.append("result: PASS" if self.passed else "result: FAIL")
        return "\n".join(lines)


def validate_corpus(corpus: Corpus, expected_per_class: int) -> ValidationReport:
    """Check the per-class balance constraint and flag empty-token documents.

    A corpus with no documents fails.
    """
    counts = corpus.per_class_counts()
    report = ValidationReport(expected_per_class=expected_per_class, per_class_counts=counts)
    report.unbalanced_classes = [
        label for label, count in counts.items() if count != expected_per_class
    ]
    report.empty_documents = [doc.id for doc in corpus.documents if not doc.tokens]
    return report
