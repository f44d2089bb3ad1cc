"""The package's own log-sum-exp against scipy's, bit for bit."""

import numpy as np
import pytest
from scipy.special import logsumexp

from efxkit.extension import _logsumexp

NEG = -np.inf

EDGE_CASES = {
    "all -inf, flat": (np.array([NEG, NEG, NEG]), None),
    "all -inf column": (np.array([[NEG, 1.0], [NEG, NEG], [NEG, 2.0]]), 0),
    "all -inf row": (np.array([[NEG, NEG], [0.0, NEG]]), 1),
    "ties at the maximum": (np.array([2.0, 2.0, 1.0, 2.0]), None),
    "ties along an axis": (np.array([[3.0, 3.0], [3.0, -1.0], [0.5, 3.0]]), 0),
    "single element": (np.array([0.5]), None),
    "single element along an axis": (np.array([[-7.25]]), 1),
    "axis None on 2-D": (np.array([[1.0, -2.0, 0.0], [4.0, 4.0, NEG]]), None),
    "infinite maximum": (np.array([np.inf, 1.0]), None),
    "nan entry": (np.array([np.nan, 1.0]), None),
    "huge entries": (np.array([1e308, 1e308, -1e308]), None),
}


def _assert_same_bits(a, axis):
    with np.errstate(all="ignore"):
        expected = np.asarray(logsumexp(a, axis=axis))
        got = np.asarray(_logsumexp(a, axis=axis))
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_scipy(name):
    _assert_same_bits(*EDGE_CASES[name])


def test_random_stacks_match_scipy():
    rng = np.random.default_rng(11)
    for _ in range(300):
        shape = tuple(int(k) for k in rng.integers(1, 6, size=rng.integers(1, 4)))
        a = rng.normal(size=shape) * rng.choice([1.0, 30.0, 1e3])
        a[rng.random(shape) < 0.3] = NEG
        if rng.random() < 0.5:
            a = np.round(a)  # ties
        for axis in (None, *range(a.ndim)):
            _assert_same_bits(a, axis)
