"""Hand-derived posteriors for the three Naive Bayes variants."""

import numpy as np
import pytest

from maiclass.errors import NumericalFailure
from maiclass.classifiers.naive_bayes import (
    BernoulliNaiveBayes,
    GaussianNaiveBayes,
    MultinomialNaiveBayes,
    softmax_rows,
)


def posteriors(est, X):
    return softmax_rows(est.log_joint(X))


def test_bernoulli_hand_posterior():
    # Train docs [1,0] -> class 0 and [0,1] -> class 1, alpha = 1:
    #   theta_0 = ((1+1)/(1+2), (0+1)/(1+2)) = (2/3, 1/3), theta_1 mirrored.
    # Query [1,0]: P(x|0) = 2/3 * (1 - 1/3) = 4/9, P(x|1) = 1/3 * 1/3 = 1/9.
    # Equal priors give posterior (4/9) / (5/9) = 0.8.
    est = BernoulliNaiveBayes(alpha=1.0)
    est.fit(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
    post = posteriors(est, np.array([[1.0, 0.0]]))
    assert np.allclose(post, [[0.8, 0.2]], atol=1e-12)
    assert est.predict_codes(np.array([[1.0, 0.0]])).tolist() == [0]


def test_bernoulli_binarizes_input():
    counts = np.array([[5.0, 0.0], [0.0, 3.0]])
    ones = (counts > 0).astype(float)
    y = np.array([0, 1])
    a = BernoulliNaiveBayes().fit(counts, y, 2)
    b = BernoulliNaiveBayes().fit(ones, y, 2)
    query = np.array([[2.0, 0.0], [0.0, 9.0]])
    assert np.array_equal(a.log_joint(query), b.log_joint(query))


def test_multinomial_hand_posterior():
    # Train docs [2,0] -> class 0 and [0,2] -> class 1, alpha = 1:
    #   theta_0 = ((2+1)/(2+2), (0+1)/(2+2)) = (3/4, 1/4).
    # Query [1,0]: likelihood theta_c0^1, so posterior (3/4, 1/4).
    est = MultinomialNaiveBayes(alpha=1.0)
    est.fit(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 1]), 2)
    post = posteriors(est, np.array([[1.0, 0.0]]))
    assert np.allclose(post, [[0.75, 0.25]], atol=1e-12)
    assert est.predict_codes(np.array([[1.0, 0.0]])).tolist() == [0]


def test_multinomial_rejects_negative_features():
    est = MultinomialNaiveBayes()
    with pytest.raises(ValueError):
        est.fit(np.array([[1.0, -0.5], [0.0, 1.0]]), np.array([0, 1]), 2)


def test_gaussian_symmetric_posterior():
    # Mirror-image classes; the midpoint carries no information.
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    est = GaussianNaiveBayes()
    est.fit(X, y, 2)
    post = posteriors(est, np.array([[0.0]]))
    assert np.allclose(post, [[0.5, 0.5]], atol=1e-12)


def test_gaussian_recovers_separated_means():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-3.0, 0.5, size=(40, 2)),
                        rng.normal(3.0, 0.5, size=(40, 2))])
    y = np.repeat([0, 1], 40)
    est = GaussianNaiveBayes()
    est.fit(X, y, 2)
    assert est.predict_codes(np.array([[-3.0, -3.0], [3.0, 3.0]])) \
        .tolist() == [0, 1]


def test_gaussian_handles_constant_feature():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    est = GaussianNaiveBayes()
    est.fit(X, y, 2)
    out = est.log_joint(X)
    assert np.all(np.isfinite(out))
    assert est.predict_codes(X).tolist() == [0, 0, 1, 1]


def test_gaussian_all_constant_features_raise():
    # The variance floor scales with the widest feature spread, which is 0
    # here, so every log density would divide by zero.
    with pytest.raises(NumericalFailure):
        GaussianNaiveBayes().fit(np.ones((6, 3)), np.array([0, 0, 0, 1, 1, 1]),
                                 2)


@pytest.mark.parametrize("cls", [BernoulliNaiveBayes, MultinomialNaiveBayes,
                                 GaussianNaiveBayes])
def test_posteriors_are_distributions(cls):
    rng = np.random.default_rng(17)
    X = rng.integers(0, 4, size=(30, 5)).astype(float)
    y = rng.integers(0, 3, size=30)
    y[:3] = [0, 1, 2]  # keep every class populated
    est = cls()
    est.fit(X, y, 3)
    post = posteriors(est, X)
    assert post.shape == (30, 3)
    assert np.all(post >= 0.0)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("cls", [BernoulliNaiveBayes, MultinomialNaiveBayes,
                                 GaussianNaiveBayes])
def test_round_trip_serialization(cls):
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, size=(20, 4)).astype(float)
    y = rng.integers(0, 2, size=20)
    est = cls()
    est.fit(X, y, 2)
    clone = cls.from_dict(est.to_dict())
    assert np.array_equal(est.log_joint(X), clone.log_joint(X))


def test_alpha_validation():
    with pytest.raises(ValueError):
        BernoulliNaiveBayes(alpha=0.0)
    with pytest.raises(ValueError):
        MultinomialNaiveBayes(alpha=-1.0)
