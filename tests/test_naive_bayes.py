"""Hand-derived posteriors for the three Naive Bayes variants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maiclass.errors import NumericalFailure
from maiclass.classifiers.naive_bayes import (
    BernoulliNaiveBayes,
    GaussianNaiveBayes,
    MultinomialNaiveBayes,
)


def posteriors(est, X):
    """Row-wise softmax of the joint log-likelihoods."""
    joint = est.log_joint(X)
    e = np.exp(joint - joint.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_bernoulli_hand_posterior():
    # Train docs [1,0] -> class 0 and [0,1] -> class 1, alpha = 1:
    #   theta_0 = ((1+1)/(1+2), (0+1)/(1+2)) = (2/3, 1/3), theta_1 mirrored.
    # Query [1,0]: P(x|0) = 2/3 * (1 - 1/3) = 4/9, P(x|1) = 1/3 * 1/3 = 1/9.
    # Equal priors give posterior (4/9) / (5/9) = 0.8.
    est = BernoulliNaiveBayes()
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
    est = MultinomialNaiveBayes()
    est.fit(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 1]), 2)
    post = posteriors(est, np.array([[1.0, 0.0]]))
    assert np.allclose(post, [[0.75, 0.25]], atol=1e-12)
    assert est.predict_codes(np.array([[1.0, 0.0]])).tolist() == [0]


def test_multinomial_rejects_negative_features():
    est = MultinomialNaiveBayes()
    with pytest.raises(ValueError):
        est.fit(np.array([[1.0, -0.5], [0.0, 1.0]]), np.array([0, 1]), 2)
    # A NaN does not hide the negative entry.
    with pytest.raises(ValueError):
        est.fit(np.array([[np.nan, -0.5], [0.0, 1.0]]), np.array([0, 1]), 2)


def gathered_multinomial_fit(X, y, n_classes, alpha=1.0):
    """Each class's rows gathered into a copy and summed: the reference."""
    n, d = X.shape
    counts = np.zeros(n_classes)
    log_theta = np.zeros((n_classes, d))
    for c in range(n_classes):
        rows = X[y == c]
        counts[c] = rows.shape[0]
        feature_total = rows.sum(axis=0)
        denom = feature_total.sum() + alpha * d
        log_theta[c] = np.log((feature_total + alpha) / denom)
    return np.log(counts / n), log_theta


@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(0, k - 1), min_size=20, max_size=60),
    st.integers(1, 5), st.booleans(), st.booleans(),
    st.randoms(use_true_random=False))))
def test_multinomial_fit_matches_gathered_sums(case):
    # Labels come interleaved, or grouped into one block per class as in a
    # split half; a class may hold one row; zero rows and frequency-like
    # fractions occur. On Fortran-ordered rows a view of a class block
    # sums to other bytes than its gathered copy once it holds 8 rows.
    k, labels, d, grouped, fortran, rnd = case
    y = np.array(list(range(k)) + labels)
    rnd.shuffle(y)
    if grouped:
        y.sort()
    rng = np.random.default_rng(rnd.getrandbits(32))
    counts = rng.integers(0, 4, size=(y.size, d)) \
        * (rng.random((y.size, 1)) < 0.8)
    X = counts / rng.integers(1, 1000, size=(y.size, 1))
    if fortran:
        X = np.asfortranarray(X)
    est = MultinomialNaiveBayes().fit(X, y, k)
    log_prior, log_theta = gathered_multinomial_fit(X, y, k)
    assert est.log_prior.tobytes() == log_prior.tobytes()
    assert est.log_theta.tobytes() == log_theta.tobytes()


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
