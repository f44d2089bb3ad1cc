"""Shared fixtures: the worked 3-item/2-agent instance, random factories,
a fixed-length walk of the Lovász descent, and a poisoned transfer gain
that forces escapes from the score box."""

import numpy as np
import pytest

from efxkit import Instance, fixedpoint, generate_instance, lovasz, normalize


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


def descend_to(inst: Instance, iters: int, step0: float) -> tuple[np.ndarray, float, list[float]]:
    """Walk ``lovasz.descend`` to step ``iters`` and return the best point,
    its value and every iterate's value, as the per-pair reference's
    ``minimize_relaxation`` does."""
    trace = []
    for step, value, best_x, best_value in lovasz.descend(inst, step0):
        trace.append(value)
        if step == iters:
            return best_x, best_value, trace


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
