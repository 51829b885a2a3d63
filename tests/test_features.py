"""Vocabulary construction and the three bag-of-words vector models."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from maiclass import evaluate, features
from maiclass.classifiers import ClassifierSpec
from maiclass.corpus import Document
from maiclass.errors import EmptyCorpus
from maiclass.evaluate import run_grid
from maiclass.features import (
    DERIVE_ORDER,
    VECTOR_MODELS,
    InternedDocuments,
    Vocabulary,
    build_matrix,
    build_vocabulary,
    derive_matrix,
)

from conftest import make_synthetic_corpus


def doc(label, tokens, id="d"):
    return Document(id=id, network="twitter", language="en", label=label,
                    raw_text=" ".join(tokens), tokens=tuple(tokens))


def test_vocabulary_top_k_by_frequency():
    docs = [doc("x", ["a", "a", "a", "b", "b", "c"])]
    vocab = build_vocabulary(docs, 2)
    assert vocab.tokens == ("a", "b")


def test_vocabulary_tie_breaks_lexicographically():
    docs = [doc("x", ["b", "a", "b", "a"])]
    assert build_vocabulary(docs, 1).tokens == ("a",)


def test_vocabulary_smaller_than_k():
    docs = [doc("x", [f"t{i}" for i in range(500)])]
    vocab = build_vocabulary(docs, 1000)
    assert vocab.size == 500
    assert len(set(vocab.tokens)) == 500


def test_vocabulary_rejects_bad_k():
    with pytest.raises(ValueError):
        build_vocabulary([doc("x", ["a"])], 0)


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([doc("x", [])], 10)


def test_vocabulary_permutation_invariant():
    docs = [doc("x", ["a", "b"], id="1"), doc("x", ["b", "c"], id="2"),
            doc("x", ["c", "c"], id="3")]
    forward = build_vocabulary(docs, 10)
    backward = build_vocabulary(list(reversed(docs)), 10)
    assert forward == backward


def one_row(tokens, vocab, model):
    """The row of a one-document matrix."""
    return build_matrix([doc("x", tokens)], vocab, model)[0]


def test_vectorize_three_models():
    vocab = Vocabulary(tokens=("a", "b"))
    tokens = ["a", "a", "c"]
    assert one_row(tokens, vocab, "bernoulli").tolist() == [1.0, 0.0]
    assert one_row(tokens, vocab, "plain_freq").tolist() == [2.0, 0.0]
    norm = one_row(tokens, vocab, "norm_freq")
    assert norm.tolist() == [2.0 / 3.0, 0.0]


def test_vectorize_empty_document_norm_freq():
    vocab = Vocabulary(tokens=("a",))
    assert one_row([], vocab, "norm_freq").tolist() == [0.0]


def test_vectorize_rejects_unknown_model():
    vocab = Vocabulary(tokens=("a",))
    with pytest.raises(ValueError):
        one_row(["a"], vocab, "tfidf")


def test_vectorize_rejects_empty_vocab():
    with pytest.raises(ValueError):
        one_row(["a"], Vocabulary(tokens=()), "bernoulli")


def test_build_matrix_has_one_presence_row_per_document():
    docs = [doc("x", ["a"], id="1"), doc("y", ["b"], id="2"),
            doc("x", ["a", "b"], id="3")]
    vocab = build_vocabulary(docs, 10)
    rows = build_matrix(docs, vocab, "bernoulli")
    assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def test_build_matrix_zero_row_for_out_of_vocab_doc():
    vocab = Vocabulary(tokens=("a", "b"))
    docs = [doc("x", ["zzz"], id="1")]
    assert build_matrix(docs, vocab, "plain_freq").tolist() == [[0.0, 0.0]]


def test_build_matrix_empty_docs():
    vocab = Vocabulary(tokens=("a",))
    with pytest.raises(EmptyCorpus):
        build_matrix([], vocab, "bernoulli")


_token = st.text(alphabet=st.sampled_from("abcdef"), min_size=1, max_size=3)
_doc_tokens = st.lists(_token, min_size=0, max_size=12)


@given(st.lists(_doc_tokens, min_size=1, max_size=6).filter(
    lambda docs: any(docs)))
def test_model_relations_hold(all_tokens):
    docs = [doc("x", toks, id=str(i)) for i, toks in enumerate(all_tokens)]
    vocab = build_vocabulary(docs, 1000)
    for d in docs:
        plain = one_row(d.tokens, vocab, "plain_freq")
        bern = one_row(d.tokens, vocab, "bernoulli")
        norm = one_row(d.tokens, vocab, "norm_freq")
        assert np.array_equal(bern, (plain > 0).astype(float))
        if d.tokens:
            assert np.array_equal(norm, plain / len(d.tokens))
        assert np.all(norm >= 0.0) and np.all(norm <= 1.0)
        assert norm.sum() <= 1.0 + 1e-12
        assert np.all(plain == np.round(plain)) and np.all(plain >= 0)


@given(st.lists(_doc_tokens, min_size=1, max_size=6).filter(
    lambda docs: any(docs)),
    st.randoms(use_true_random=False))
def test_vocabulary_invariant_under_doc_order(all_tokens, rnd):
    docs = [doc("x", toks, id=str(i)) for i, toks in enumerate(all_tokens)]
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    assert build_vocabulary(docs, 4) == build_vocabulary(shuffled, 4)


def reference_row(tokens, vocab, model):
    """Per-token counting loop, the way a document vector is defined."""
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    vec = np.zeros(vocab.size)
    for tok in tokens:
        if tok in index:
            vec[index[tok]] += 1.0
    if model == "bernoulli":
        return (vec > 0).astype(np.float64)
    if model == "norm_freq" and tokens:
        return vec / len(tokens)
    return vec


def per_row_matrix(token_seqs, vocab, model):
    """One lookup list and one bincount per document, row by row."""
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    rows = np.zeros((len(token_seqs), vocab.size), dtype=np.float64)
    for r, tokens in enumerate(token_seqs):
        hits = [pos for pos in map(index.get, tokens) if pos is not None]
        rows[r] = np.bincount(np.array(hits, dtype=np.intp),
                              minlength=vocab.size)
    if model == "bernoulli":
        np.minimum(rows, 1.0, out=rows)
    elif model == "norm_freq":
        totals = np.array([len(tokens) for tokens in token_seqs],
                          dtype=np.float64)
        rows /= np.maximum(totals, 1.0)[:, None]
    return rows


def per_document_vocabulary(docs, k):
    """One ``Counter.update`` per document, then the same top-k order."""
    counter = Counter()
    for d in docs:
        counter.update(d.tokens)
    top = sorted(counter.items(), key=lambda item: (-item[1], item[0]))[:k]
    return Vocabulary(tokens=tuple(tok for tok, _ in top))


@given(st.lists(_doc_tokens, min_size=1, max_size=6).filter(
    lambda docs: any(docs)), st.integers(1, 8))
def test_build_matrix_rows_are_the_document_vectors(all_tokens, k):
    vocab = build_vocabulary(
        [doc("x", toks, id=str(i)) for i, toks in enumerate(all_tokens)], k)
    # Every example also vectorizes an empty document, one holding only
    # out-of-vocabulary tokens ("z" is outside the token alphabet) and one
    # repeating a keyword.
    seqs = list(all_tokens) + [[], ["zz", "zz"], [vocab.tokens[0]] * 3]
    docs = [doc("x", toks, id=str(i)) for i, toks in enumerate(seqs)]
    for model in VECTOR_MODELS:
        rows = build_matrix(docs, vocab, model)
        assert rows.tobytes() == per_row_matrix(seqs, vocab, model).tobytes()
        # Counted into a used buffer with spare values, the rows are its
        # first values and the spare ones are left alone.
        out = np.full(rows.size + 3, np.nan)
        into = build_matrix(docs, vocab, model, out=out)
        assert np.shares_memory(into, out)
        assert into.tobytes() == rows.tobytes()
        assert np.isnan(out[rows.size:]).all()
        expected = np.vstack([reference_row(d.tokens, vocab, model)
                              for d in docs])
        assert np.array_equal(rows, expected)
        for d, row in zip(docs, rows):
            assert one_row(d.tokens, vocab, model).tobytes() \
                == row.tobytes()


@given(st.lists(_doc_tokens, min_size=1, max_size=6).filter(
    lambda docs: any(docs)), st.integers(1, 8))
def test_vocabulary_matches_per_document_counting(all_tokens, k):
    docs = [doc("x", toks, id=str(i)) for i, toks in enumerate(all_tokens)]
    assert build_vocabulary(docs, k) == per_document_vocabulary(docs, k)


def test_build_matrix_rejects_an_unfit_buffer():
    docs = [doc("x", ["a", "b"]), doc("y", ["b"])]
    vocab = build_vocabulary(docs, 2)
    for out in (np.zeros(3), np.zeros(4, dtype=np.float32),
                np.zeros((2, 2))):
        with pytest.raises(ValueError, match="out"):
            build_matrix(docs, vocab, "plain_freq", out=out)


_counts = st.integers(0, 6).flatmap(lambda n: st.integers(1, 5).flatmap(
    lambda v: arrays(np.float64, (n, v), elements=st.sampled_from(
        [0.0, 0.0, 1.0, 2.0, 7.0]))))


@given(_counts, st.integers(0, 3))
def test_presence_pass_gives_the_bytes_of_sign(counts, extra):
    # Counts and frequencies, with empty documents (zero rows) and keywords
    # no document holds (zero columns) among the examples; ``extra`` adds
    # out-of-vocabulary tokens to every document's length.
    lengths = counts.sum(axis=1).astype(np.intp) + extra
    freqs = counts / np.maximum(lengths, 1)[:, None]
    for rows in (counts, freqs):
        presence = rows.copy()
        features._to_model(presence, lengths, "bernoulli")
        assert presence.tobytes() == np.sign(rows).tobytes()


def test_vector_models_constant():
    assert VECTOR_MODELS == ("bernoulli", "plain_freq", "norm_freq")


@pytest.fixture
def interns(monkeypatch):
    """Count the token -> id passes (one ``features._intern`` call each)."""
    calls = []
    intern = features._intern

    def counted(token_seqs):
        calls.append(token_seqs)
        return intern(token_seqs)

    monkeypatch.setattr(features, "_intern", counted)
    return calls


def _memo_docs():
    seqs = [["a", "b", "a"], [], ["zz"], ["c", "a", "c", "c"], ["b"]]
    return [doc("x", toks, id=str(i)) for i, toks in enumerate(seqs)]


def test_three_models_share_one_lookup_pass(interns):
    docs = InternedDocuments.of(_memo_docs())
    vocab = build_vocabulary(docs, 3)
    matrix = build_matrix(docs, vocab, DERIVE_ORDER[0])
    rows = {DERIVE_ORDER[0]: matrix.copy()}
    for source, model in zip(DERIVE_ORDER, DERIVE_ORDER[1:]):
        assert derive_matrix(matrix, docs, source, model) is None
        rows[model] = matrix.copy()
    assert len(interns) == 1
    seqs = [d.tokens for d in docs]
    for model in VECTOR_MODELS:
        assert rows[model].tobytes() \
            == per_row_matrix(seqs, vocab, model).tobytes()


def test_derive_matrix_only_moves_forward():
    docs = InternedDocuments.of(_memo_docs())
    vocab = build_vocabulary(docs, 3)
    for i, start in enumerate(DERIVE_ORDER):
        for source, model in [(start, m) for m in DERIVE_ORDER[:i + 1]] \
                + [(start, "tfidf"), ("tfidf", start)]:
            matrix = build_matrix(docs, vocab, start)
            before = matrix.tobytes()
            with pytest.raises(ValueError):
                derive_matrix(matrix, docs, source, model)
            assert matrix.tobytes() == before


def test_same_length_list_of_other_tuples_is_looked_up_again(interns):
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    build_matrix(docs, vocab, "plain_freq")
    # Same first tuple and length, then equal but distinct tuples, then
    # other tokens: a plain list is interned afresh on every call, so none
    # of it may come from the first list's ids.
    others = [docs[0]] + [doc("x", list(d.tokens), id=d.id)
                          for d in docs[1:3]] \
        + [doc("x", ["a"], id="8"), doc("x", ["c", "c"], id="9")]
    rows = build_matrix(others, vocab, "plain_freq")
    assert len(interns) == 3
    assert rows.tobytes() == per_row_matrix(
        [d.tokens for d in others], vocab, "plain_freq").tobytes()


def test_vocabulary_holds_no_state_between_calls():
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    fresh = build_vocabulary(docs, 3)
    text = repr(vocab)
    state = dict(vars(vocab))
    for _ in range(100):
        one_row(["a", "c"], vocab, "plain_freq")
    for i in range(len(docs)):
        build_matrix(docs[i:], vocab, "bernoulli")
        build_matrix(InternedDocuments.of(docs[i:]), vocab, "norm_freq")
    assert [f.name for f in dataclasses.fields(vocab)] == ["tokens"]
    assert vars(vocab) == state
    assert vocab == fresh
    assert repr(vocab) == text == repr(fresh)


def test_interned_half_gives_the_plain_list_vocabulary_and_rows():
    # The half's lexicon is the whole list's, so it holds tokens the half
    # lacks ("c", "zz"); they must count 0 and never reach the vocabulary.
    docs = _memo_docs()
    whole = InternedDocuments.of(docs)
    half = whole.select([4, 0, 1])
    plain = [docs[4], docs[0], docs[1]]
    assert len(half) == 3 and list(half) == plain and half[1] is docs[0]
    assert half.lexicon is whole.lexicon
    assert [half.lexicon[i] for i in half.ids.tolist()] \
        == ["b", "a", "b", "a"]
    vocab = build_vocabulary(half, 3)
    assert vocab == build_vocabulary(plain, 3)
    assert repr(vocab) == repr(build_vocabulary(plain, 3))
    assert vocab.tokens == ("a", "b")
    for model in VECTOR_MODELS:
        assert build_matrix(half, vocab, model).tobytes() \
            == build_matrix(plain, vocab, model).tobytes()
    assert len(whole.select([])) == 0


def test_run_grid_looks_each_half_up_once(interns, monkeypatch):
    # The corpus's tokens become ids once per grid; each run's halves are
    # gathered from those ids, and its models derived from one pair.
    corpus = make_synthetic_corpus(docs_per_class=6)
    runs = 3
    built = []
    build = evaluate.build_matrix

    def counted(docs, vocab, model, **kwargs):
        assert isinstance(docs, InternedDocuments)
        built.append(model)
        return build(docs, vocab, model, **kwargs)

    monkeypatch.setattr(evaluate, "build_matrix", counted)
    run_grid(corpus, VECTOR_MODELS,
             [ClassifierSpec(algorithm="nb_multinomial")], runs=runs,
             master_seed=1)
    assert len(interns) == 1
    assert built == ["plain_freq"] * 2 * runs


# Tokens "y" and "z" never occur in the half the vocabulary is built from,
# so they are out of vocabulary wherever they appear.
_half_token = st.text(alphabet=st.sampled_from("abcd"), min_size=1,
                      max_size=2)
_other_token = st.text(alphabet=st.sampled_from("abyz"), min_size=1,
                       max_size=2)


@given(st.lists(st.lists(_half_token, max_size=10), min_size=1, max_size=6)
       .filter(lambda docs: any(docs)),
       st.lists(st.lists(_other_token, max_size=6), max_size=4),
       st.integers(1, 6), st.randoms(use_true_random=False))
def test_derived_and_interned_rows_match_build_matrix(half_tokens,
                                                      other_tokens, k, rnd):
    # Empty documents, tokens outside the vocabulary, tied counts and k
    # below the number of distinct tokens all occur among the examples.
    docs = [doc("x", toks, id=str(i))
            for i, toks in enumerate(half_tokens + other_tokens)]
    order = list(range(len(docs)))
    rnd.shuffle(order)
    whole = InternedDocuments.of([docs[i] for i in order])
    half_at = [order.index(i) for i in range(len(half_tokens))]
    half = whole.select(half_at)
    plain = docs[:len(half_tokens)]
    vocab = build_vocabulary(plain, k)
    assert build_vocabulary(half, k) == vocab \
        == per_document_vocabulary(plain, k)
    every = whole.select([order.index(i) for i in range(len(docs))])
    for first_at, first in enumerate(DERIVE_ORDER):
        for interned, listed in ((half, plain), (every, docs)):
            matrix = build_matrix(interned, vocab, first)
            assert matrix.tobytes() == build_matrix(
                listed, vocab, first).tobytes() == per_row_matrix(
                    [d.tokens for d in listed], vocab, first).tobytes()
            source = first
            for model in DERIVE_ORDER[first_at + 1:]:
                derive_matrix(matrix, interned, source, model)
                source = model
                assert matrix.tobytes() == build_matrix(
                    listed, vocab, model).tobytes()
