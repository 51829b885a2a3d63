"""Top-K keyword vocabulary and the three bag-of-words vector models.

``bernoulli`` marks keyword presence with 0/1, ``plain_freq`` uses raw
occurrence counts, and ``norm_freq`` divides each count by the document's
total token count so every entry lands in [0, 1].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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


def _vectorize_rows(token_seqs: Sequence[Sequence[str]], vocab: Vocabulary,
                    model: str) -> np.ndarray:
    """One row per token sequence, all looked up in one keyword index.

    Every token of every sequence is looked up in one pass, and the hits
    land in ``rows`` through one scatter-add; a token outside the
    vocabulary looks up as -1 and is dropped.
    """
    if model not in VECTOR_MODELS:
        raise ValueError(f"unknown vector model {model!r}")
    if vocab.size == 0:
        raise ValueError("vocabulary is empty")
    index = vocab.index()
    lengths = np.fromiter(map(len, token_seqs), dtype=np.intp,
                          count=len(token_seqs))
    positions = np.fromiter(
        map(index.get, chain.from_iterable(token_seqs), repeat(-1)),
        dtype=np.intp, count=int(lengths.sum()))
    # Flat cell of each token in the row-major (documents x vocabulary)
    # matrix: its row's offset plus its keyword position.
    cells = np.repeat(np.arange(len(token_seqs), dtype=np.intp) * vocab.size,
                      lengths)
    cells += positions
    rows = np.zeros((len(token_seqs), vocab.size), dtype=np.float64)
    # Counts are small integers, exact in float64 in any summation order.
    np.add.at(rows.reshape(-1), cells[positions >= 0], 1.0)
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

