"""Top-K keyword vocabulary and the three bag-of-words vector models.

``bernoulli`` marks keyword presence with 0/1, ``plain_freq`` uses raw
occurrence counts, and ``norm_freq`` divides each count by the document's
total token count so every entry lands in [0, 1].

Documents are counted as token ids, not strings. :class:`InternedDocuments`
numbers the distinct tokens of a document list in lexicographic order and
keeps every document's tokens as one flat ``int32`` id array; ``select``
gathers a subset without looking any string up again. A vocabulary is then
a ``bincount`` of ids, and a matrix an id -> keyword-position gather plus
one scatter-add. :func:`build_vocabulary` and :func:`build_matrix` intern a
plain list of documents on entry, so both kinds of input take one path.

All three models come from one counts matrix. :func:`derive_matrix` turns
a matrix into a later model of ``DERIVE_ORDER`` in place: plain counts
into frequencies (divided by the row's length), either of them into 0/1
presence (a test for a value above 0).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import Document
from .errors import EmptyCorpus

VECTOR_MODELS = ("bernoulli", "plain_freq", "norm_freq")
# Each model is derivable in place from the rows of any model before it.
DERIVE_ORDER = ("plain_freq", "norm_freq", "bernoulli")


def _intern(token_seqs: Iterable[Sequence[str]]):
    """The sorted lexicon, its token -> id map, flat ``int32`` ids, lengths."""
    seqs = list(token_seqs)
    lexicon = tuple(sorted(set(chain.from_iterable(seqs))))
    index = dict(zip(lexicon, range(len(lexicon))))
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(seqs)),
                      dtype=np.int32, count=int(lengths.sum()))
    return lexicon, index, ids, lengths


class InternedDocuments(Sequence):
    """Documents whose tokens are held as ids into a shared sorted lexicon.

    It is a sequence of the documents themselves, in order. ``ids`` holds
    every document's token ids back to back and ``lengths`` each
    document's token count; id order is the lexicographic order of the
    tokens. Build one with :meth:`of`.
    """

    __slots__ = ("documents", "lexicon", "index", "ids", "lengths")

    def __init__(self, documents: tuple[Document, ...], lexicon, index,
                 ids: np.ndarray, lengths: np.ndarray):
        self.documents = documents
        self.lexicon = lexicon
        self.index = index
        self.ids = ids
        self.lengths = lengths

    @classmethod
    def of(cls, docs: Sequence[Document]) -> "InternedDocuments":
        """``docs`` as is when already interned, else interned once."""
        if isinstance(docs, cls):
            return docs
        docs = tuple(docs)
        return cls(docs, *_intern(doc.tokens for doc in docs))

    def __len__(self) -> int:
        return len(self.documents)

    def __getitem__(self, i):
        return self.documents[i]

    def __iter__(self):
        return iter(self.documents)

    def select(self, indices: Sequence[int]) -> "InternedDocuments":
        """The documents at ``indices``, in that order, sharing the lexicon."""
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        lengths = self.lengths[idx]
        starts = np.cumsum(self.lengths) - self.lengths
        # Each gathered token's position in ``ids``: its document's start
        # there, less that document's start in the gathered array, plus
        # its own position in the gathered array.
        shift = starts[idx] - (np.cumsum(lengths) - lengths)
        take = np.repeat(shift, lengths) + np.arange(int(lengths.sum()))
        return InternedDocuments(
            tuple(self.documents[i] for i in idx.tolist()), self.lexicon,
            self.index, self.ids[take], lengths)


@dataclass(frozen=True)
class Vocabulary:
    """Tokens ordered by descending corpus frequency, ties lexicographic."""

    tokens: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)


def build_vocabulary(docs: Sequence[Document], k: int) -> Vocabulary:
    """Pick the k most frequent tokens across ``docs``, stop-words included.

    Ties in frequency break by ascending lexicographic order so the result
    is deterministic and invariant under permutation of the documents. If
    fewer than k distinct tokens exist, all of them are returned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    docs = InternedDocuments.of(docs)
    counts = np.bincount(docs.ids, minlength=len(docs.lexicon))
    # A stable sort keeps equal counts in id order, which is lexicographic.
    top = np.argsort(-counts, kind="stable")[:k]
    # The lexicon may be a larger list's; its tokens absent here count 0.
    top = top[counts[top] > 0].tolist()
    if not top:
        raise EmptyCorpus("no tokens in any document")
    return Vocabulary(tokens=tuple(docs.lexicon[i] for i in top))


def _count_rows(docs: InternedDocuments, vocab: Vocabulary,
                out: np.ndarray | None) -> np.ndarray:
    """Keyword counts, one row per document, through one scatter-add.

    The rows are a fresh array, or a view of ``out``'s first values.
    """
    n = len(docs.lengths)
    position = np.full(len(docs.lexicon), -1, dtype=np.int32)
    for pos, tok in enumerate(vocab.tokens):
        token_id = docs.index.get(tok)
        if token_id is not None:
            position[token_id] = pos
    positions = position[docs.ids]
    hit = positions >= 0
    cells = np.repeat(np.arange(n, dtype=np.intp) * vocab.size,
                      docs.lengths)[hit]
    cells += positions[hit]
    if out is None:
        rows = np.zeros((n, vocab.size), dtype=np.float64)
    else:
        if out.dtype != np.float64 or out.ndim != 1 \
                or out.size < n * vocab.size:
            raise ValueError(f"out must be a flat float64 array of at least "
                             f"{n * vocab.size} values")
        rows = out[:n * vocab.size].reshape(n, vocab.size)
        rows.fill(0.0)
    # Counts are small integers, exact in float64 in any summation order.
    np.add.at(rows.reshape(-1), cells, 1.0)
    return rows


def _to_model(rows: np.ndarray, lengths: np.ndarray, model: str) -> None:
    """Turn ``rows`` into ``model`` in place.

    ``rows`` hold counts, or for ``bernoulli`` any non-negative rows with
    the counts' zeros, such as frequencies.
    """
    if model == "norm_freq":
        # A document without tokens has an all-zero row; dividing it by 1
        # leaves it as it is.
        rows /= np.maximum(lengths, 1)[:, None]
    elif model == "bernoulli":
        # 1.0 where a keyword occurs, else 0.0: (count > 0) as 0/1.
        np.greater(rows, 0.0, out=rows)


def build_matrix(docs: Sequence[Document], vocab: Vocabulary, model: str, *,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The rows of every document under ``model``, in document order.

    The rows are a fresh ``(len(docs), vocab.size)`` array, or, given a
    flat float64 buffer ``out`` of at least that many values, a view of
    its first values, zero-filled and counted into; the buffer's other
    values are left as they are. Either way the rows hold the same bytes.
    """
    if not docs:
        raise EmptyCorpus("no documents to vectorize")
    if model not in VECTOR_MODELS:
        raise ValueError(f"unknown vector model {model!r}")
    if vocab.size == 0:
        raise ValueError("vocabulary is empty")
    docs = InternedDocuments.of(docs)
    rows = _count_rows(docs, vocab, out)
    _to_model(rows, docs.lengths, model)
    return rows


def derive_matrix(rows: np.ndarray, docs: InternedDocuments, source: str,
                  model: str) -> None:
    """Turn ``rows`` of ``docs`` under ``source`` into ``model``, in place.

    ``model`` must come after ``source`` in ``DERIVE_ORDER``; ``rows`` then
    hold the bytes ``build_matrix(docs, vocab, model)`` would.
    """
    if source not in DERIVE_ORDER or model not in DERIVE_ORDER or \
            DERIVE_ORDER.index(model) <= DERIVE_ORDER.index(source):
        raise ValueError(f"cannot derive {model!r} from {source!r}")
    _to_model(rows, docs.lengths, model)
