"""Repeated stratified split-half evaluation with per-class F1 scoring."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .classifiers import ClassifierSpec, predict, train
from .corpus import Corpus
from .errors import ClassTooSmall, LengthMismatch, MaiclassError, RunFailure
from .features import (
    DERIVE_ORDER,
    VECTOR_MODELS,
    InternedDocuments,
    build_matrix,
    build_vocabulary,
    derive_matrix,
)


def stratified_split(corpus: Corpus, seed: int
                     ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Shuffle each class and put the first ceil(n/2) documents in train.

    Returns the (train, test) document indices, class by class in
    ``corpus.classes`` order and ascending within a class. With the
    30-document classes used throughout this gives the 15/15 split-half
    design. Raises :class:`ClassTooSmall` when any class has fewer than two
    documents.
    """
    rng = np.random.default_rng(seed)
    train: List[int] = []
    test: List[int] = []
    for label in corpus.classes:
        idx = np.array([i for i, doc in enumerate(corpus.documents)
                        if doc.label == label])
        if idx.shape[0] < 2:
            raise ClassTooSmall(label, int(idx.shape[0]))
        shuffled = idx[rng.permutation(idx.shape[0])]
        n_train = math.ceil(idx.shape[0] / 2)
        train += sorted(int(i) for i in shuffled[:n_train])
        test += sorted(int(i) for i in shuffled[n_train:])
    return tuple(train), tuple(test)


def f1_scores(gold: Sequence[str], predicted: Sequence[str],
              classes: Sequence[str]) -> Dict[str, float]:
    """One-vs-rest F1 for each class; empty precision+recall counts as 0."""
    if len(gold) != len(predicted):
        raise LengthMismatch(
            f"gold has {len(gold)} labels, predictions {len(predicted)}")
    per_class: Dict[str, float] = {}
    for label in classes:
        tp = sum(g == p == label for g, p in zip(gold, predicted))
        # 2 tp + fp + fn: the label's gold count plus its predicted count.
        denom = gold.count(label) + predicted.count(label)
        per_class[label] = 2 * tp / denom if denom else 0.0
    return per_class


@dataclass(frozen=True)
class EvalResult:
    """F1 scores of one classifier/vector-model pair over repeated runs."""

    algorithm: str
    vector_model: str
    classes: Tuple[str, ...]
    runs: Tuple[Dict[str, float], ...]

    @property
    def mean_f1(self) -> Dict[str, float]:
        return {label: sum(r[label] for r in self.runs)
                / len(self.runs) for label in self.classes}


def run_seeds(master_seed: int, run: int) -> Tuple[int, int]:
    """Derive (split_seed, train_seed) for one run from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(run,))
    a, b = ss.generate_state(2)
    return int(a), int(b)


def _score_run(run: int, corpus: Corpus, docs: InternedDocuments,
               vector_models: Sequence[str], specs: Sequence[ClassifierSpec],
               vocab_size: int, master_seed: int,
               buffers: List[np.ndarray]
               ) -> Dict[str, List[Dict[str, float]]]:
    """Run ``run``'s F1 per vector model, for each of ``specs`` in order.

    The run draws its split and training seed from ``run_seeds(master_seed,
    run)`` and builds its vocabulary from its training half only, so no
    test token information leaks into the features. The first requested
    model in ``DERIVE_ORDER`` gets the run's one (train, test) pair of
    :func:`build_matrix` calls, counted into ``buffers`` (one flat array per
    half, replaced by a larger one when this run's vocabulary needs it);
    each later model is derived from the same two arrays in place. The
    matrices and the last trained classifier exist only inside this call,
    so nothing but the buffers outlives the run. A failure is re-raised as
    :class:`RunFailure` naming the run and, when it happened in a cell, the
    cell's vector model and algorithm.
    """
    split_seed, train_seed = run_seeds(master_seed, run)
    scores: Dict[str, List[Dict[str, float]]] = {}
    vector_model = algorithm = None
    try:
        train_idx, test_idx = stratified_split(corpus, split_seed)
        train_docs = docs.select(train_idx)
        test_docs = docs.select(test_idx)
        vocab = build_vocabulary(train_docs, vocab_size)
        for i, half in enumerate((train_docs, test_docs)):
            if buffers[i].size < len(half) * vocab.size:
                buffers[i] = np.empty(len(half) * vocab.size)
        labels = [d.label for d in train_docs]
        gold = [d.label for d in test_docs]
        for vector_model in DERIVE_ORDER:
            if vector_model not in vector_models:
                continue
            algorithm = None
            if not scores:
                train_rows = build_matrix(train_docs, vocab, vector_model,
                                          out=buffers[0])
                test_rows = build_matrix(test_docs, vocab, vector_model,
                                         out=buffers[1])
            else:
                derive_matrix(train_rows, train_docs, source, vector_model)
                derive_matrix(test_rows, test_docs, source, vector_model)
            source = vector_model
            cell = scores[vector_model] = []
            for spec in specs:
                algorithm = spec.algorithm
                model = train(spec, (train_rows, labels), seed=train_seed)
                cell.append(f1_scores(gold, predict(model, test_rows),
                                      corpus.classes))
    except MaiclassError as exc:
        raise RunFailure(run, exc, vector_model, algorithm) from exc
    return scores


def run_grid(corpus: Corpus, vector_models: Sequence[str],
             specs: Sequence[ClassifierSpec], runs: int = 5,
             vocab_size: int = 1000, master_seed: int = 0,
             ) -> List[EvalResult]:
    """Score every (vector model, classifier) cell over the same ``runs`` runs.

    Run ``r`` is one :func:`_score_run` call, seeded by
    ``run_seeds(master_seed, r)``, so all cells see the same splits (the
    paired design the U tests rely on). The corpus's tokens become ids
    once per grid, and the grid owns one flat buffer per split half, which
    every run's matrices reuse; a buffer grows only when a run's vocabulary
    is larger than every earlier one's, so memory faulted in once serves
    every run. Results come back model-major, in the order of
    ``vector_models`` (a repeated model repeats its cells),
    classifier-minor. A failure inside a run ends as :class:`RunFailure`.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for vector_model in vector_models:
        if vector_model not in VECTOR_MODELS:
            raise ValueError(f"unknown vector model {vector_model!r}")
    docs = InternedDocuments.of(corpus.documents)
    buffers = [np.empty(0), np.empty(0)]
    per_run = [_score_run(r, corpus, docs, vector_models, specs, vocab_size,
                          master_seed, buffers) for r in range(runs)]
    return [EvalResult(algorithm=spec.algorithm, vector_model=vector_model,
                       classes=tuple(corpus.classes),
                       runs=tuple(scores[vector_model][i]
                                  for scores in per_run))
            for vector_model in vector_models
            for i, spec in enumerate(specs)]


def run_experiment(corpus: Corpus, vector_model: str, spec: ClassifierSpec,
                   runs: int = 5, vocab_size: int = 1000,
                   master_seed: int = 0) -> EvalResult:
    """One cell of :func:`run_grid`: ``spec`` under ``vector_model``."""
    return run_grid(corpus, [vector_model], [spec], runs=runs,
                    vocab_size=vocab_size, master_seed=master_seed)[0]


def _csv_line(cells) -> str:
    # The writer quotes a field holding a character of its line terminator,
    # so ending rows in "\r\n" makes it quote a lone "\r" too.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def results_to_csv(results: Sequence[EvalResult]) -> str:
    """Flat CSV: one row per (algorithm, vector model, class).

    A field is quoted only when it needs to be, e.g. a class label holding a
    comma, a quote or a line break.
    """
    if not results:
        return "algorithm,vector_model,class,mean_f1\n"
    n_runs = len(results[0].runs)
    header = ["algorithm", "vector_model", "class"]
    header += [f"run_{i + 1}" for i in range(n_runs)]
    header.append("mean_f1")
    lines = [_csv_line(header)]
    for res in results:
        for label, mean in res.mean_f1.items():
            cells = [res.algorithm, res.vector_model, label]
            cells += [f"{r[label]:.6f}" for r in res.runs]
            cells.append(f"{mean:.6f}")
            lines.append(_csv_line(cells))
    return "".join(lines)
