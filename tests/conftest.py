"""Shared fixtures: the worked 3-item/2-agent instance, random factories,
and a poisoned transfer gain that forces escapes from the score box."""

import numpy as np
import pytest

from efxkit import Instance, fixedpoint, generate_instance, normalize


@pytest.fixture
def i0_raw() -> Instance:
    """Three items, two agents; values chosen so agent sums are 8 and 4."""
    return Instance([[4.0, 1.0], [2.0, 1.0], [2.0, 2.0]])


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


def poison_gain(monkeypatch, points, amount: float) -> list[int]:
    """Add ``amount`` to the transfer gain wherever the clamp maps and the
    Picard step compute it at one of the (m, n) score matrices ``points``.

    Returns the list that records the stack size of every gain computed
    from then on.  The gain reaches ``fixedpoint._gain`` as an (..., n, m)
    base, so each matrix is matched by its transpose's bytes.
    """
    gain_of = fixedpoint._gain
    marked = {np.asarray(point, dtype=float).tobytes() for point in points}
    calls = []

    def poisoned(yt, *args):
        gain = gain_of(yt, *args)
        calls.append(len(yt))
        shape = yt.shape[-2:]
        for point, point_gain in zip(yt.reshape(-1, *shape), gain.reshape(-1, *shape)):
            if point.T.tobytes() in marked:
                point_gain += amount
        return gain

    monkeypatch.setattr(fixedpoint, "_gain", poisoned)
    return calls
