"""Top-K keyword vocabulary and the three bag-of-words vector models.

``bernoulli`` marks keyword presence with 0/1, ``plain_freq`` uses raw
occurrence counts, and ``norm_freq`` divides each count by the document's
total token count so every entry lands in [0, 1].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .errors import EmptyCorpus

VECTOR_MODELS = ("bernoulli", "plain_freq", "norm_freq")


@dataclass(frozen=True)
class Vocabulary:
    """Tokens ordered by descending corpus frequency, ties lexicographic."""

    tokens: tuple[str, ...]
    counts: dict[str, int]
    # The lookups of the last two lists of token tuples vectorized against
    # this vocabulary (a run's two halves); see ``_lookup_cells``.
    _lookups: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}


def build_vocabulary(docs: Sequence[Document], k: int) -> Vocabulary:
    """Pick the k most frequent tokens across ``docs``, stop-words included.

    Ties in frequency break by ascending lexicographic order so the result
    is deterministic and invariant under permutation of the documents. If
    fewer than k distinct tokens exist, all of them are returned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counter = Counter(chain.from_iterable(doc.tokens for doc in docs))
    if not counter:
        raise EmptyCorpus("no tokens in any document")
    ordered = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    top = ordered[:k]
    return Vocabulary(tokens=tuple(tok for tok, _ in top), counts=dict(top))


def _lookup(token_seqs: Sequence[Sequence[str]], vocab: Vocabulary,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and the flat cells of the in-vocabulary tokens.

    Every token of every sequence is looked up in one pass. A token's flat
    cell in the row-major (sequences x vocabulary) matrix is its row's
    offset plus its keyword position; a token outside the vocabulary looks
    up as -1 and is dropped.
    """
    n = len(token_seqs)
    # A matrix too large for int32 cells could not be allocated anyway, but
    # the cells must not wrap.
    cell_type = np.int32 if n * vocab.size <= np.iinfo(np.int32).max \
        else np.intp
    index = vocab.index()
    lengths = np.fromiter(map(len, token_seqs), dtype=np.intp, count=n)
    positions = np.fromiter(
        map(index.get, chain.from_iterable(token_seqs), repeat(-1)),
        dtype=cell_type, count=int(lengths.sum()))
    cells = np.repeat(np.arange(n, dtype=cell_type) * vocab.size, lengths)
    cells += positions
    return lengths, cells[positions >= 0]


def _lookup_cells(token_seqs: Sequence[Sequence[str]], vocab: Vocabulary,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``_lookup``, remembered on ``vocab`` for lists of token tuples.

    The three vector models of one run vectorize the same two halves, so
    each half is looked up once. A list matches a remembered one only when
    every tuple is the identical object: the memo is keyed by the tuples'
    ids and holds the tuples, so those ids cannot be reused. Lists holding
    a mutable sequence are never remembered, and the memo keeps at most
    two lists, dropping the older.
    """
    if not all(type(seq) is tuple for seq in token_seqs):
        return _lookup(token_seqs, vocab)
    memo = vocab._lookups
    key = tuple(map(id, token_seqs))
    if key in memo:
        return memo[key][1:]
    lengths, cells = _lookup(token_seqs, vocab)
    lengths.flags.writeable = cells.flags.writeable = False
    if len(memo) == 2:
        del memo[next(iter(memo))]
    memo[key] = (tuple(token_seqs), lengths, cells)
    return lengths, cells


def _vectorize_rows(token_seqs: Sequence[Sequence[str]], vocab: Vocabulary,
                    model: str) -> np.ndarray:
    """One row per token sequence, its hits added through one scatter-add."""
    if model not in VECTOR_MODELS:
        raise ValueError(f"unknown vector model {model!r}")
    if vocab.size == 0:
        raise ValueError("vocabulary is empty")
    lengths, cells = _lookup_cells(token_seqs, vocab)
    rows = np.zeros((len(token_seqs), vocab.size), dtype=np.float64)
    # Counts are small integers, exact in float64 in any summation order.
    np.add.at(rows.reshape(-1), cells, 1.0)
    if model == "bernoulli":
        # Counts are non-negative integers, so this is (count > 0) as 0/1.
        np.minimum(rows, 1.0, out=rows)
    elif model == "norm_freq":
        # A document without tokens has an all-zero row; dividing it by 1
        # leaves it as it is.
        rows /= np.maximum(lengths, 1)[:, None]
    return rows


def vectorize(tokens: Iterable[str], vocab: Vocabulary, model: str) -> np.ndarray:
    """Map a token sequence to a vector of length ``vocab.size``."""
    return _vectorize_rows([list(tokens)], vocab, model)[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """A vectorized corpus: one row per document, aligned labels."""

    model: str
    vocab: Vocabulary
    rows: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.rows.shape[0] != len(self.labels):
            raise ValueError("row count does not match label count")

    @property
    def n_documents(self) -> int:
        return self.rows.shape[0]


def build_matrix(docs: Sequence[Document], vocab: Vocabulary, model: str) -> FeatureMatrix:
    """Vectorize every document under ``model``, preserving order."""
    if not docs:
        raise EmptyCorpus("no documents to vectorize")
    rows = _vectorize_rows([doc.tokens for doc in docs], vocab, model)
    return FeatureMatrix(
        model=model, vocab=vocab, rows=rows, labels=tuple(doc.label for doc in docs)
    )

