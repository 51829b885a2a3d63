"""Spans around maiclass's public functions, installed from outside.

``Tracer.install`` wraps each function in ``TRACE_POINTS`` and rebinds
every ``maiclass.*`` module attribute that holds that function object, so
spans follow whatever call structure the program has. Optimizer wrappers
also count the calls made to the oracle callbacks passed in. Spans are
``[name, start, end, parent_index, attrs]`` lists kept in memory; the
caller writes them out after the timed work.

Nothing here imports maiclass at module level.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional

from catalog import ALGORITHMS

# (module, function, span name)
TRACE_POINTS = (
    ("maiclass.corpus", "load_corpus", "corpus.load"),
    ("maiclass.features", "build_vocabulary", "features.vocab"),
    ("maiclass.features", "build_matrix", "features.matrix"),
    ("maiclass.evaluate", "run_experiment", "evaluate.experiment"),
    ("maiclass.evaluate", "stratified_split", "evaluate.split"),
    ("maiclass.evaluate", "f1_scores", "evaluate.f1"),
    ("maiclass.evaluate", "results_to_csv", "cli.format"),
    ("maiclass.cli", "_emit", "cli.emit"),
    ("maiclass.classifiers", "train", "classifiers.fit"),
    ("maiclass.classifiers", "predict", "classifiers.predict"),
    ("maiclass.classifiers.kernels", "kernel_matrix",
     "classifiers.kernel_matrix"),
    ("maiclass.optim", "adam_minimize", "optim.adam"),
    ("maiclass.optim", "lbfgs_minimize", "optim.lbfgs"),
    ("maiclass.optim", "smo_solve", "optim.smo"),
    ("maiclass._core", "best_split", "core.best_split"),
    ("maiclass._core", "smo_optimize", "core.smo_optimize"),
    ("maiclass.stats", "mann_whitney_u", "stats.utest"),
    ("maiclass.report", "reproduce_stats", "report.reproduce"),
    ("maiclass.report", "render_report", "report.render"),
)

# Spans whose callable arguments (the oracles) are counted per parameter.
COUNT_CALLBACKS = frozenset({"optim.adam", "optim.lbfgs"})


def _fit_attrs(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return {"algo": spec.algorithm}


def _predict_attrs(args, kwargs):
    model = args[0] if args else kwargs["model"]
    return {"algo": model.spec.algorithm}


def _matrix_attrs(args, kwargs):
    docs, vocab, model = (list(args) + [None] * 3)[:3]
    docs = kwargs.get("docs", docs)
    vocab = kwargs.get("vocab", vocab)
    model = kwargs.get("model", model)
    key = hash((tuple(d.id for d in docs), vocab.tokens, model))
    return {"key": key, "rows": len(docs)}


def _load_result(attrs, corpus):
    attrs["docs"] = len(corpus.documents)
    attrs["chars"] = sum(len(d.raw_text) for d in corpus.documents)


def _opt_result(attrs, res):
    attrs["iterations"] = int(res.iterations)
    attrs["converged"] = bool(res.converged)


BEFORE: Dict[str, Callable] = {
    "classifiers.fit": _fit_attrs,
    "classifiers.predict": _predict_attrs,
    "features.matrix": _matrix_attrs,
}
AFTER: Dict[str, Callable] = {
    "corpus.load": _load_result,
    "optim.adam": _opt_result,
    "optim.lbfgs": _opt_result,
    "optim.smo": _opt_result,
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.installed: Dict[str, int] = {}
        self._bindings: List[tuple] = []

    def _open(self, name: str, attrs: dict) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself, e.g. around one command."""
        record = self._open(name, {})
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable) -> Callable:
        before = BEFORE.get(name)
        after = AFTER.get(name)
        sig = inspect.signature(fn) if name in COUNT_CALLBACKS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            if sig is not None:
                args, kwargs = _count_callbacks(sig, args, kwargs, attrs)
            record = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                if hasattr(exc, "iterations"):
                    attrs["iterations"] = int(exc.iterations)
                    attrs["converged"] = False
                raise
            finally:
                self._close(record)
            if after:
                after(attrs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every trace point that exists in the imported program."""
        for module_name, func_name, span_name in TRACE_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, func_name, None)
            if fn is None:
                continue
            wrapper = self.wrap(span_name, fn)
            sites = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "maiclass" and not mod_name.startswith(
                        "maiclass."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, fn))
                        sites += 1
            self.installed[span_name] = sites

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._bindings.clear()


def _count_callbacks(sig, args, kwargs, attrs):
    """Replace each callable argument by a wrapper counting its calls."""
    bound = sig.bind(*args, **kwargs)
    evals: Counter = Counter()
    attrs["evals"] = evals
    for param, value in bound.arguments.items():
        if callable(value) and not isinstance(value, type):
            bound.arguments[param] = _counted(value, param, evals)
    return bound.args, bound.kwargs


def _counted(callback, key, evals):
    def inner(*args, **kwargs):
        evals[key] += 1
        return callback(*args, **kwargs)
    return inner


class SpanIndex:
    """Totals, self times and attributes of a finished span list."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name[name].append(i)
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - child_time[i]
                          for i, s in enumerate(spans)]

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str, where: Optional[Callable] = None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.by_name[name]
                   if where is None or where(self.spans[i]))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name[name])

    def attrs(self, name: str) -> List[dict]:
        return [self.spans[i][4] for i in self.by_name[name]]

    def attr_sum(self, name: str, key: str) -> int:
        return sum(a.get(key, 0) for a in self.attrs(name))

    def ratio(self, name: str, key: str) -> float:
        values = [bool(a.get(key)) for a in self.attrs(name)]
        return sum(values) / len(values) if values else 0.0

    def evals(self, name: str, param: Optional[str] = None) -> int:
        return sum(sum(a.get("evals", {}).values()) if param is None
                   else a.get("evals", {}).get(param, 0)
                   for a in self.attrs(name))

    def table(self) -> List[dict]:
        """One row per span name: calls, total and self time."""
        return sorted(({"name": name, "calls": len(idx),
                        "total_s": self.total(name),
                        "self_s": self.self_total(name)}
                       for name, idx in self.by_name.items()),
                      key=lambda row: -row["self_s"])


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one traced sample (without ``trace.overhead_s``)."""
    ix = SpanIndex(spans)
    m: Dict[str, float] = {}
    m["corpus.load_s"] = ix.total("corpus.load")
    m["corpus.docs"] = ix.attr_sum("corpus.load", "docs")
    m["corpus.chars"] = ix.attr_sum("corpus.load", "chars")

    m["features.vocab_calls"] = ix.calls("features.vocab")
    m["features.vocab_s"] = ix.total("features.vocab")
    calls = ix.calls("features.matrix")
    distinct = len({a["key"] for a in ix.attrs("features.matrix")})
    m["features.matrix_calls"] = calls
    m["features.matrix_distinct"] = distinct
    m["features.matrix_useful_ratio"] = distinct / calls if calls else 0.0
    m["features.matrix_rows"] = ix.attr_sum("features.matrix", "rows")
    m["features.matrix_s"] = ix.total("features.matrix")

    m["evaluate.experiment_calls"] = ix.calls("evaluate.experiment")
    m["evaluate.experiment_self_s"] = ix.self_total("evaluate.experiment")
    m["evaluate.split_calls"] = ix.calls("evaluate.split")
    m["evaluate.split_s"] = ix.total("evaluate.split")
    m["evaluate.f1_s"] = ix.total("evaluate.f1")

    for algo in ALGORITHMS:
        def of_algo(span, algo=algo):
            return span[4].get("algo") == algo
        m[f"classifiers.fit_s.{algo}"] = ix.total("classifiers.fit", of_algo)
        m[f"classifiers.predict_s.{algo}"] = ix.total("classifiers.predict",
                                                      of_algo)
    m["classifiers.fit_calls"] = ix.calls("classifiers.fit")
    m["classifiers.kernel_matrix_s"] = ix.total("classifiers.kernel_matrix")

    m["optim.adam_s"] = ix.total("optim.adam")
    m["optim.adam_iterations"] = ix.attr_sum("optim.adam", "iterations")
    m["optim.adam_grad_evals"] = ix.evals("optim.adam", "gradient")
    m["optim.adam_objective_evals"] = ix.evals("optim.adam", "objective")
    m["optim.adam_oracle_evals"] = ix.evals("optim.adam")
    m["optim.adam_converged_ratio"] = ix.ratio("optim.adam", "converged")
    m["optim.lbfgs_s"] = ix.total("optim.lbfgs")
    m["optim.lbfgs_iterations"] = ix.attr_sum("optim.lbfgs", "iterations")
    m["optim.lbfgs_oracle_evals"] = ix.evals("optim.lbfgs")
    m["optim.lbfgs_linesearch_failures"] = sum(
        a.get("error") == "LineSearchFailure" for a in ix.attrs("optim.lbfgs"))
    m["optim.smo_s"] = ix.total("optim.smo")
    m["optim.smo_iterations"] = ix.attr_sum("optim.smo", "iterations")
    m["optim.smo_converged_ratio"] = ix.ratio("optim.smo", "converged")

    m["core.best_split_calls"] = ix.calls("core.best_split")
    m["core.best_split_s"] = ix.total("core.best_split")
    m["core.smo_optimize_s"] = ix.total("core.smo_optimize")

    m["stats.utest_calls"] = ix.calls("stats.utest")
    m["stats.utest_s"] = ix.total("stats.utest")
    m["report.reproduce_s"] = ix.total("report.reproduce")
    m["report.render_s"] = ix.total("report.render")

    def under_eval(span):
        return span[3] >= 0 and spans[span[3]][0] == "cli.eval"
    m["cli.output_s"] = (ix.total("cli.format", under_eval)
                         + ix.total("cli.emit", under_eval))
    m["trace.spans"] = len(spans)
    return m


def merge_samples(samples: List[Dict[str, float]], units: Dict[str, str]):
    """Median of each time metric; counts and ratios must repeat exactly.

    Returns ``(merged, mismatched_names)``.
    """
    merged: Dict[str, float] = {}
    mismatched = []
    for name in samples[0]:
        values = [s[name] for s in samples]
        if units.get(name) == "s":
            merged[name] = median(values)
        else:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
    return merged, mismatched
