"""Normalization rules, corpus loading, and balance validation."""

import json
import sys
import tracemalloc
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maiclass import corpus as corpus_module
from maiclass.corpus import (
    Corpus,
    Document,
    is_emoji_char,
    load_corpus,
    normalize_text,
    validate_corpus,
)
from maiclass.errors import DuplicateId, IoError, ParseError

from conftest import corpus_records, read_whole_text_lines, write_jsonl

# Mixed-script alphabet with every character class the normalizer deals
# with: plain letters, uppercase (Latin and Cyrillic), digits, punctuation,
# the hashtag marker, emoji, and whitespace.
_ALPHABET = list("ABCabc09 ЖжЯя!?.,;:—'\"()[]#*🌱🎸⚽❤\t\n")


def test_mixed_example():
    assert normalize_text("Go VEGAN!!! #health 🌱") == ["go", "vegan"]


def test_empty_input():
    assert normalize_text("") == []


def test_cyrillic_punctuation():
    assert normalize_text("Спартак — чемпион!") == ["спартак", "чемпион"]


def test_apostrophe_stripped_inside_word():
    assert normalize_text("don't stop") == ["dont", "stop"]


def test_hashtag_drops_whole_token():
    assert normalize_text("run #fast now") == ["run", "now"]
    # '#' later in a token is not a hashtag marker; it is just punctuation.
    assert normalize_text("a#b") == ["ab"]


def test_emoji_removed_mid_token():
    assert normalize_text("so⚽cool 🎸🎸") == ["socool"]


def test_casefold_not_just_lower():
    # The German sharp s only lowercases under full case folding.
    assert normalize_text("STRAßE") == ["strasse"]


def test_is_emoji_char_boundaries():
    assert is_emoji_char("🌱")
    assert is_emoji_char("⭐")
    assert not is_emoji_char("a")
    assert not is_emoji_char("#")
    assert not is_emoji_char("7")


def _per_character_normalize(raw):
    """Reference: the normalizer tests each character of each token."""
    tokens = []
    for token in raw.casefold().split():
        if token.startswith("#"):
            continue
        cleaned = "".join(
            ch for ch in token
            if not is_emoji_char(ch)
            and not unicodedata.category(ch).startswith("P"))
        if cleaned:
            tokens.append(cleaned)
    return tokens


# Characters on either side of every emoji range edge, lone surrogates,
# hashtag markers, whitespace and characters that casefold changes (some
# into several characters, or into a different category).
_EDGE_CHARS = [chr(cp) for cp in (
    0x1EFFF, 0x1F000, 0x1F600, 0x1FAFF, 0x1FB00, 0x25FF, 0x2600, 0x27BF,
    0x27C0, 0xFDFF, 0xFE00, 0xFE0F, 0xFE10, 0x200C, 0x200D, 0x20E3, 0x2B05,
    0x2B50, 0x2B55, 0x2B56, 0xD800, 0xDBFF, 0xDC00, 0xDFFF)]
_EDGE_CHARS += list("# \t\n\u3000ßẞİΣςǅŉﬁﬀΐ")


@given(st.text(alphabet=st.one_of(
    st.characters(exclude_categories=()), st.sampled_from(_EDGE_CHARS)),
    max_size=80))
def test_normalize_equals_per_character_reference(raw):
    assert normalize_text(raw) == _per_character_normalize(raw)


def test_drop_table_stops_growing_at_its_limit(monkeypatch):
    from maiclass import corpus
    table = corpus._DropTable()
    monkeypatch.setattr(corpus, "_DROP", table)
    # More distinct code points than the table keeps, from the ideograph
    # planes, where casefold changes nothing and nothing is whitespace.
    raw = "".join(map(chr, range(0x20000, 0x20000 + corpus._DROP_LIMIT + 500)))
    assert raw.casefold() == raw and raw.split() == [raw]
    assert normalize_text(raw) == _per_character_normalize(raw)
    assert len(table) == corpus._DROP_LIMIT
    assert normalize_text(raw) == _per_character_normalize(raw)


@given(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=80))
def test_normalize_idempotent_on_own_output(raw):
    tokens = normalize_text(raw)
    assert normalize_text(" ".join(tokens)) == tokens


@given(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=80))
def test_normalize_output_is_clean(raw):
    for token in normalize_text(raw):
        assert token
        assert not token.startswith("#")
        for ch in token:
            assert not ch.isupper()
            assert not is_emoji_char(ch)
            assert not unicodedata.category(ch).startswith("P")


def test_load_corpus_round_trip(corpus_jsonl_path, synthetic_corpus):
    corpus = load_corpus(corpus_jsonl_path)
    assert len(corpus) == 90
    assert corpus.classes == ("football", "rock", "vegetarianism")
    assert [d.id for d in corpus.documents] \
        == [d.id for d in synthetic_corpus.documents]
    assert corpus.documents[0].tokens == synthetic_corpus.documents[0].tokens


def test_load_corpus_deterministic(corpus_jsonl_path):
    assert load_corpus(corpus_jsonl_path) == load_corpus(corpus_jsonl_path)


# Repeats one raw token, two raw forms of one cleaned token and a hashtag.
_REPEATS = "Rock ROCK rock! #rock #rock Рок РОК foot00 🎸"


@given(st.lists(st.text(alphabet=_ALPHABET, max_size=40), max_size=6))
def test_load_corpus_tokens_are_normalized_and_pooled(tmp_path_factory,
                                                      texts):
    texts = [_REPEATS, *texts, _REPEATS]
    records = [{"id": str(i), "network": "twitter", "language": "en",
                "label": "x", "text": text} for i, text in enumerate(texts)]
    path = write_jsonl(tmp_path_factory.mktemp("pool") / "c.jsonl", records)
    corpus = load_corpus(path)
    first_seen = {}
    for doc, text in zip(corpus.documents, texts, strict=True):
        assert list(doc.tokens) == normalize_text(text)
        for token in doc.tokens:
            # Equal tokens anywhere in the corpus are one object.
            assert first_seen.setdefault(token, token) is token


def test_load_corpus_preserves_order(tmp_path):
    records = [
        {"id": "b", "network": "twitter", "language": "en",
         "label": "two", "text": "beta"},
        {"id": "a", "network": "vkontakte", "language": "ru",
         "label": "one", "text": "alpha"},
    ]
    corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records))
    assert [d.id for d in corpus.documents] == ["b", "a"]
    assert corpus.classes == ("two", "one")


def test_parse_error_reports_line(tmp_path, synthetic_corpus):
    lines = [json.dumps(r) for r in corpus_records(synthetic_corpus)]
    lines[6] = "{not json"
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 7


def test_deeply_nested_line_is_parse_error(tmp_path, synthetic_corpus):
    # Nesting past the interpreter's recursion limit must not escape as a
    # RecursionError.
    lines = [json.dumps(r) for r in corpus_records(synthetic_corpus)][:3]
    lines[1] = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="nested too deeply") as err:
        load_corpus(str(path))
    assert err.value.line == 2


@pytest.mark.parametrize("record, fragment", [
    ({"id": "x", "network": "twitter", "language": "en", "label": "l"},
     "missing field 'text'"),
    ({"id": "x", "network": "myspace", "language": "en", "label": "l",
      "text": "t"}, "network"),
    ({"id": "x", "network": "twitter", "language": "de", "label": "l",
      "text": "t"}, "language"),
    ({"id": "", "network": "twitter", "language": "en", "label": "l",
      "text": "t"}, "empty id"),
    ({"id": "x", "network": "twitter", "language": "en", "label": 3,
      "text": "t"}, "not a string"),
])
def test_malformed_records(tmp_path, record, fragment):
    path = write_jsonl(tmp_path / "bad.jsonl", [record])
    with pytest.raises(ParseError, match=fragment):
        load_corpus(path)


def test_duplicate_id(tmp_path):
    record = {"id": "p1", "network": "twitter", "language": "en",
              "label": "l", "text": "t"}
    path = write_jsonl(tmp_path / "dup.jsonl", [record, dict(record)])
    with pytest.raises(DuplicateId) as err:
        load_corpus(path)
    assert err.value.doc_id == "p1"


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_corpus(str(tmp_path / "nope.jsonl"))


def test_records_split_on_newlines_only(tmp_path):
    # A raw U+2028 inside a JSON string is not a record boundary, and a
    # CRLF line end reads like LF.
    records = [{"id": f"p{i}", "network": "vkontakte", "language": "ru",
                "label": "l", "text": "line\u2028sep"} for i in range(2)]
    path = tmp_path / "seps.jsonl"
    path.write_bytes("".join(json.dumps(r, ensure_ascii=False) + "\r\n"
                             for r in records).encode("utf-8"))
    corpus = load_corpus(str(path))
    assert [d.id for d in corpus.documents] == ["p0", "p1"]


@pytest.fixture(params=["line reader", "whole-text reader"])
def either_reader(request, monkeypatch):
    """Run a test with load_corpus's line reader, then with the whole-file
    read it replaced; both must give the same outcome."""
    if request.param == "whole-text reader":
        monkeypatch.setattr(corpus_module, "_read_lines",
                            read_whole_text_lines)


@pytest.mark.parametrize("gap", [b"", b"\n" * 100_000],
                         ids=["next line", "past the first block"])
def test_bad_byte_after_bad_record_is_io_error(tmp_path, either_reader, gap):
    # The encoding is checked before any record is parsed, so the broken
    # JSON on line 1 does not win over the non-UTF-8 byte after it, even
    # where that byte lies past the first block the file is read in.
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"bad json\n' + gap + b"\xff\n")
    with pytest.raises(IoError):
        load_corpus(str(path))


def test_bom_and_lone_cr_line_ends_load_every_record(tmp_path,
                                                     either_reader):
    records = [{"id": f"p{i}", "network": "twitter", "language": "en",
                "label": "l", "text": "t"} for i in range(2)]
    path = tmp_path / "cr.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + "".join(
        json.dumps(r) + "\r" for r in records).encode("utf-8"))
    assert [d.id for d in load_corpus(str(path)).documents] == ["p0", "p1"]


def test_load_corpus_holds_one_line_at_a_time(tmp_path):
    # Long pages from a few distinct tokens. The emoji are astral, so the
    # decoded text takes 4 bytes a character; holding the whole of it, or
    # a list of all its lines, during the call would show in the peak.
    words = np.array(["матч", "goal", "\U0001F3B8rock", "веган", "#tag",
                      "ok!", "\u26bd"])
    rng = np.random.default_rng(0)
    records = [{"id": f"p{i}", "network": "twitter", "language": "en",
                "label": "ab"[i % 2], "text": " ".join(rng.choice(words, 700))}
               for i in range(150)]
    path = write_jsonl(tmp_path / "long.jsonl", records)
    decoded = sys.getsizeof(Path(path).read_text(encoding="utf-8"))
    assert decoded > 1_000_000
    load_corpus(path)  # fill the shared normalization table untraced
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 150
    assert peak - retained < decoded / 4


@pytest.mark.parametrize("key", ["id", "network", "language", "label",
                                 "text"])
def test_lone_surrogate_is_parse_error(tmp_path, key):
    record = {"id": "p1", "network": "twitter", "language": "en",
              "label": "l", "text": "t"}
    path = tmp_path / "surrogate.jsonl"
    path.write_text(json.dumps(record) + "\n"
                    + json.dumps(record).replace('"p1"', '"p2"')
                    .replace(f'"{key}": "', f'"{key}": "\\ud800'),
                    encoding="utf-8")
    with pytest.raises(ParseError, match="surrogate") as err:
        load_corpus(str(path))
    assert err.value.line == 2


def test_escaped_surrogate_pair_loads(tmp_path):
    path = tmp_path / "pair.jsonl"
    path.write_text('{"id": "p1", "network": "twitter", "language": "en", '
                    '"label": "\\ud83d\\ude00", "text": "t"}\n',
                    encoding="utf-8")
    assert load_corpus(str(path)).classes == ("\U0001F600",)


def test_validate_balanced_passes(synthetic_corpus):
    report = validate_corpus(synthetic_corpus, 30)
    assert report.passed
    assert report.per_class_counts == {"football": 30, "rock": 30,
                                       "vegetarianism": 30}
    assert "PASS" in report.summary()


def test_validate_flags_unbalanced_class(synthetic_corpus):
    trimmed = Corpus(name="t", documents=synthetic_corpus.documents[1:],
                     classes=synthetic_corpus.classes)
    report = validate_corpus(trimmed, 30)
    assert not report.passed
    assert report.unbalanced_classes == ["football"]
    assert "FAIL" in report.summary()


def test_validate_flags_empty_document():
    docs = (
        Document.from_raw("e1", "twitter", "en", "a", "#only #tags"),
        Document.from_raw("e2", "twitter", "en", "b", "words here"),
    )
    report = validate_corpus(Corpus("t", docs, ("a", "b")), 1)
    assert not report.passed
    assert report.empty_documents == ["e1"]


def test_validate_fails_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    report = validate_corpus(load_corpus(str(path)), 30)
    assert not report.passed
    assert "FAIL" in report.summary()
