"""Shared fixtures: the worked 3-item/2-agent instance and random factories."""

import numpy as np
import pytest

from efxkit import Instance, generate_instance, make_instance, normalize


@pytest.fixture
def i0_raw() -> Instance:
    """Three items, two agents; values chosen so agent sums are 8 and 4."""
    return make_instance([[4.0, 1.0], [2.0, 1.0], [2.0, 2.0]])


@pytest.fixture
def i0_norm(i0_raw) -> Instance:
    return normalize(i0_raw)


def random_instance(seed: int, m: int, n: int, dist: str = "uniform01") -> Instance:
    """Seeded instance factory used across the suite."""
    return generate_instance(m, n, dist, seed)


def random_polytope_point(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """A random fractional allocation with rows on the simplex."""
    x = rng.random((m, n)) + 1e-3
    return x / x.sum(axis=1, keepdims=True)
