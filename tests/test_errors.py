"""Every domain error survives pickling with its message and attributes."""

import inspect
import pickle

import pytest

from maiclass import errors

ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if inspect.isclass(cls) and issubclass(cls, errors.MaiclassError)),
    key=lambda cls: cls.__name__)

# Constructor arguments for the classes that take more than a message.
EXAMPLE_ARGS = {
    errors.ParseError: (3, "missing field 'id'"),
    errors.DuplicateId: ("x",),
    errors.ClassTooSmall: ("rock", 1),
    errors.RunFailure: (2, errors.ClassTooSmall("rock", 1), "bernoulli",
                        "knn"),
    errors.MissingCell: ("bernoulli", "knn", "twitter_en", "music"),
}

ATTRIBUTES = ("line", "label", "size", "run", "key", "doc_id",
              "vector_model", "algorithm")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_pickle_round_trip(cls):
    original = cls(*EXAMPLE_ARGS.get(cls, ("something went wrong",)))
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert str(clone) == str(original)
    assert clone.args == original.args
    for name in ATTRIBUTES:
        assert getattr(clone, name, None) == getattr(original, name, None)


def test_run_failure_keeps_its_cause_through_pickling():
    cause = errors.ParseError(7, "invalid JSON")
    clone = pickle.loads(pickle.dumps(errors.RunFailure(4, cause)))
    assert type(clone.cause) is errors.ParseError
    assert clone.cause.line == 7
    assert str(clone) == "run 4: ParseError: line 7: invalid JSON"


def test_run_failure_names_its_cell():
    cause = errors.NumericalFailure("a feature variance is 0")
    clone = pickle.loads(pickle.dumps(
        errors.RunFailure(1, cause, "norm_freq", "nb_gaussian")))
    assert (clone.vector_model, clone.algorithm) == ("norm_freq",
                                                     "nb_gaussian")
    assert str(clone) == ("run 1 (norm_freq, nb_gaussian): NumericalFailure:"
                          " a feature variance is 0")
    building = errors.RunFailure(3, cause, "bernoulli")
    assert str(building) == "run 3 (bernoulli): NumericalFailure: " \
        "a feature variance is 0"
    assert building.algorithm is None
