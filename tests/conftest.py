"""Shared fixtures: a synthetic, cleanly separable three-class corpus.

The corpus follows the construction used by the acceptance suite: 30
documents per class, each class owning a disjoint 50-token vocabulary, plus
a pool of 200 noise tokens shared by everyone. Every document mixes its own
class's tokens with noise, so the classes are linearly separable under all
three vector models while the noise keeps the problem non-trivial.

``fit_digest`` fingerprints a trained estimator, so a test can see a
changed fit that leaves every prediction alone.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from maiclass.corpus import Corpus, Document
from maiclass.errors import IoError

CLASS_TOKENS = {
    "football": tuple(f"foot{i:02d}" for i in range(50)),
    "rock": tuple(f"rock{i:02d}" for i in range(50)),
    "vegetarianism": tuple(f"veg{i:02d}" for i in range(50)),
}
NOISE_TOKENS = tuple(f"noise{i:03d}" for i in range(200))


def make_synthetic_corpus(docs_per_class: int = 30, seed: int = 12345) -> Corpus:
    rng = np.random.default_rng(seed)
    networks = ("twitter", "vkontakte")
    languages = ("en", "ru")
    documents = []
    for label, words in CLASS_TOKENS.items():
        for j in range(docs_per_class):
            # words[0] is a class marker carried by every document, so even
            # single-feature learners can carve the classes exactly; the rest
            # of the class vocabulary varies from document to document.
            own = rng.choice(words, size=20)
            noise = rng.choice(NOISE_TOKENS, size=10)
            text = " ".join([words[0]] + list(own) + list(noise))
            documents.append(Document.from_raw(
                id=f"{label}-{j:02d}",
                network=networks[j % 2],
                language=languages[j % 2],
                label=label,
                raw_text=text,
            ))
    return Corpus(name="synthetic", documents=tuple(documents),
                  classes=tuple(CLASS_TOKENS))


def fit_digest(estimator) -> str:
    """sha256 over an estimator's fitted attributes in name order.

    An array contributes its dtype, shape and bytes; a list, tuple or
    dataclass (an SVM's pair machines, its kernel) its items in order;
    anything else its ``repr``.
    """
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}:".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif dataclasses.is_dataclass(value):
            feed([getattr(value, f.name) for f in dataclasses.fields(value)])
        elif isinstance(value, (list, tuple)):
            h.update(f"[{len(value)}:".encode())
            for item in value:
                feed(item)
        else:
            h.update(f"{value!r};".encode())

    for name, value in sorted(vars(estimator).items()):
        h.update(f"{name}=".encode())
        feed(value)
    return h.hexdigest()


def corpus_records(corpus: Corpus):
    for doc in corpus.documents:
        yield {"id": doc.id, "network": doc.network, "language": doc.language,
               "label": doc.label, "text": doc.raw_text}


def write_jsonl(path, records) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return str(path)


def read_whole_text_lines(path, what: str):
    """A corpus file's lines from one whole-file read, as load_corpus once
    read them; the reference for the line reader it uses now."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


@pytest.fixture(scope="session")
def synthetic_corpus() -> Corpus:
    return make_synthetic_corpus()


@pytest.fixture(scope="session")
def corpus_jsonl_path(tmp_path_factory, synthetic_corpus) -> str:
    path = tmp_path_factory.mktemp("corpus") / "synthetic.jsonl"
    return write_jsonl(path, corpus_records(synthetic_corpus))
