"""Vocabulary construction and the three bag-of-words vector models."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maiclass.classifiers import ClassifierSpec
from maiclass.corpus import Document
from maiclass.errors import EmptyCorpus
from maiclass.evaluate import run_grid
from maiclass.features import (
    VECTOR_MODELS,
    Vocabulary,
    build_matrix,
    build_vocabulary,
    vectorize,
)

from conftest import make_synthetic_corpus


def doc(label, tokens, id="d"):
    return Document(id=id, network="twitter", language="en", label=label,
                    raw_text=" ".join(tokens), tokens=tuple(tokens))


def test_vocabulary_top_k_by_frequency():
    docs = [doc("x", ["a", "a", "a", "b", "b", "c"])]
    vocab = build_vocabulary(docs, 2)
    assert vocab.tokens == ("a", "b")
    assert vocab.counts == {"a": 3, "b": 2}


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


def test_vectorize_three_models():
    vocab = Vocabulary(tokens=("a", "b"), counts={"a": 2, "b": 1})
    tokens = ["a", "a", "c"]
    assert vectorize(tokens, vocab, "bernoulli").tolist() == [1.0, 0.0]
    assert vectorize(tokens, vocab, "plain_freq").tolist() == [2.0, 0.0]
    norm = vectorize(tokens, vocab, "norm_freq")
    assert norm.tolist() == [2.0 / 3.0, 0.0]


def test_vectorize_empty_document_norm_freq():
    vocab = Vocabulary(tokens=("a",), counts={"a": 1})
    assert vectorize([], vocab, "norm_freq").tolist() == [0.0]


def test_vectorize_rejects_unknown_model():
    vocab = Vocabulary(tokens=("a",), counts={"a": 1})
    with pytest.raises(ValueError):
        vectorize(["a"], vocab, "tfidf")


def test_vectorize_rejects_empty_vocab():
    with pytest.raises(ValueError):
        vectorize(["a"], Vocabulary(tokens=(), counts={}), "bernoulli")


def test_build_matrix_shapes_and_labels():
    docs = [doc("x", ["a"], id="1"), doc("y", ["b"], id="2"),
            doc("x", ["a", "b"], id="3")]
    vocab = build_vocabulary(docs, 10)
    matrix = build_matrix(docs, vocab, "bernoulli")
    assert matrix.rows.shape == (3, 2)
    assert matrix.labels == ("x", "y", "x")
    assert matrix.n_documents == 3
    assert set(np.unique(matrix.rows)) <= {0.0, 1.0}


def test_build_matrix_zero_row_for_out_of_vocab_doc():
    vocab = Vocabulary(tokens=("a", "b"), counts={"a": 1, "b": 1})
    docs = [doc("x", ["zzz"], id="1")]
    matrix = build_matrix(docs, vocab, "plain_freq")
    assert matrix.rows.tolist() == [[0.0, 0.0]]


def test_build_matrix_empty_docs():
    vocab = Vocabulary(tokens=("a",), counts={"a": 1})
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
        plain = vectorize(d.tokens, vocab, "plain_freq")
        bern = vectorize(d.tokens, vocab, "bernoulli")
        norm = vectorize(d.tokens, vocab, "norm_freq")
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
    index = vocab.index()
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
    return Vocabulary(tokens=tuple(tok for tok, _ in top), counts=dict(top))


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
        rows = build_matrix(docs, vocab, model).rows
        assert rows.tobytes() == per_row_matrix(seqs, vocab, model).tobytes()
        expected = np.vstack([reference_row(d.tokens, vocab, model)
                              for d in docs])
        assert np.array_equal(rows, expected)
        for d, row in zip(docs, rows):
            assert vectorize(d.tokens, vocab, model).tobytes() \
                == row.tobytes()


@given(st.lists(_doc_tokens, min_size=1, max_size=6).filter(
    lambda docs: any(docs)), st.integers(1, 8))
def test_vocabulary_matches_per_document_counting(all_tokens, k):
    docs = [doc("x", toks, id=str(i)) for i, toks in enumerate(all_tokens)]
    assert build_vocabulary(docs, k) == per_document_vocabulary(docs, k)


def test_vector_models_constant():
    assert VECTOR_MODELS == ("bernoulli", "plain_freq", "norm_freq")


@pytest.fixture
def lookups(monkeypatch):
    """Count the keyword-index lookup passes (one ``Vocabulary.index`` each)."""
    calls = []
    index = Vocabulary.index

    def counted(self):
        calls.append(self)
        return index(self)

    monkeypatch.setattr(Vocabulary, "index", counted)
    return calls


def _memo_docs():
    seqs = [["a", "b", "a"], [], ["zz"], ["c", "a", "c", "c"], ["b"]]
    return [doc("x", toks, id=str(i)) for i, toks in enumerate(seqs)]


def test_three_models_share_one_lookup_pass(lookups):
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    rows = {model: build_matrix(docs, vocab, model).rows
            for model in VECTOR_MODELS}
    assert len(lookups) == 1
    seqs = [d.tokens for d in docs]
    for model in VECTOR_MODELS:
        assert rows[model].tobytes() \
            == per_row_matrix(seqs, vocab, model).tobytes()


def test_same_length_list_of_other_tuples_is_looked_up_again(lookups):
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    build_matrix(docs, vocab, "plain_freq")
    # Same first tuple and length, then equal but distinct tuples, then
    # other tokens: none of it may come from the first list's lookup.
    others = [docs[0]] + [doc("x", list(d.tokens), id=d.id)
                          for d in docs[1:3]] \
        + [doc("x", ["a"], id="8"), doc("x", ["c", "c"], id="9")]
    rows = build_matrix(others, vocab, "plain_freq").rows
    assert len(lookups) == 2
    # Both lists are remembered now.
    build_matrix(docs, vocab, "bernoulli")
    build_matrix(others, vocab, "norm_freq")
    assert len(lookups) == 2
    assert rows.tobytes() == per_row_matrix(
        [d.tokens for d in others], vocab, "plain_freq").tobytes()


def test_memo_keeps_at_most_two_lists():
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    for _ in range(100):
        vectorize(["a", "c"], vocab, "plain_freq")
    assert vocab._lookups == {}
    for i in range(len(docs)):
        build_matrix(docs[i:], vocab, "bernoulli")
    assert len(vocab._lookups) == 2


def test_memo_leaves_equality_and_repr_alone():
    docs = _memo_docs()
    vocab = build_vocabulary(docs, 3)
    fresh = build_vocabulary(docs, 3)
    text = repr(vocab)
    build_matrix(docs, vocab, "norm_freq")
    assert vocab._lookups
    assert vocab == fresh
    assert repr(vocab) == text == repr(fresh)
    assert "_lookups" not in text


def test_run_grid_looks_each_half_up_once(lookups):
    corpus = make_synthetic_corpus(docs_per_class=6)
    runs = 3
    run_grid(corpus, VECTOR_MODELS, [ClassifierSpec(algorithm="nb_multinomial")],
             runs=runs, master_seed=1)
    assert len(lookups) == 2 * runs
