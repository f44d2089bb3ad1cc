"""Score-matrix kernels against the per-pair reference loops, bit for bit."""

import numpy as np
import pytest

import reference_shift as ref
from conftest import random_instance
from efxkit import Allocation, dc_objective, encode_allocation, generate_instance, transfer_gain
from efxkit.extension import convex_part

AGENT_COUNTS = (2, 3, 4, 6)


def _tied_scores(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Integer scores whose rows carry two or three tied maxima."""
    y = rng.integers(-4, 0, size=(m, n)).astype(float)
    for k in range(m):
        ties = rng.choice(n, size=min(n, int(rng.integers(2, 4))), replace=False)
        y[k, ties] = 0.0
    return y


def _score_matrices(inst, rng: np.random.Generator):
    m, n = inst.m, inst.n
    yield _tied_scores(rng, m, n)
    yield encode_allocation(inst, Allocation(rng.integers(0, n, size=m)))
    yield rng.integers(-2, 1, size=(m, n)).astype(float)
    yield rng.uniform(-3.0, 0.0, size=(m, n))


def _instances(seed: int, n: int):
    yield random_instance(seed, 5, n)
    yield generate_instance(9, n, "integer", seed, kmax=2)
    yield generate_instance(4, n, "identical", seed)


@pytest.mark.parametrize("n", AGENT_COUNTS)
def test_score_kernels_match_per_pair_reference_exactly(n):
    rng = np.random.default_rng(n)
    for seed in range(6):
        for inst in _instances(seed, n):
            for y in _score_matrices(inst, rng):
                gain = transfer_gain(inst, y)
                expected = ref.transfer_gain(inst, y)
                assert gain.tobytes() == expected.tobytes()
                assert convex_part(inst, y) == ref.convex_part(inst, y)
                assert dc_objective(inst, y) == ref.dc_objective(inst, y)
