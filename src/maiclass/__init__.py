"""maiclass: interest classification of social-network pages.

Normalises page text into bag-of-words vectors, trains a bank of twelve
classifiers from scratch, evaluates them with repeated stratified split-half
F1, and reproduces the reference study's published statistics from a shipped
score fixture.
"""

from .classifiers import (
    ALGORITHMS,
    ClassifierSpec,
    TrainedModel,
    predict,
    train,
)
from .corpus import Corpus, Document, load_corpus, normalize_text, validate_corpus
from .evaluate import (
    EvalResult,
    f1_scores,
    run_experiment,
    run_grid,
    stratified_split,
)
from .features import (
    VECTOR_MODELS,
    Vocabulary,
    build_matrix,
    build_vocabulary,
)
from .report import (
    ScoreTable,
    load_scores,
    render_report,
    reproduce_stats,
    select_scores,
)
from .stats import mann_whitney_u, percent_agreement

__version__ = "0.1.0"
# The only kernel implementation; benchmark samples record it.
BACKEND = "python"

__all__ = [
    "ALGORITHMS",
    "BACKEND",
    "ClassifierSpec",
    "Corpus",
    "Document",
    "EvalResult",
    "ScoreTable",
    "TrainedModel",
    "VECTOR_MODELS",
    "Vocabulary",
    "__version__",
    "build_matrix",
    "build_vocabulary",
    "f1_scores",
    "load_corpus",
    "load_scores",
    "mann_whitney_u",
    "normalize_text",
    "percent_agreement",
    "predict",
    "render_report",
    "reproduce_stats",
    "run_experiment",
    "run_grid",
    "select_scores",
    "stratified_split",
    "train",
    "validate_corpus",
]
