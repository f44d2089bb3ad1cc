"""Lovász envy extensions, the descent and the rounding bound against the
per-pair reference loops, bit for bit."""

import numpy as np
import pytest

import reference_lovasz as ref
from conftest import descend_to, random_instance, random_polytope_point
from efxkit import (
    envy_gap_extension,
    generate_instance,
    monotone_envy_gap_extension,
    normalize,
    relaxation_objective,
    rounding_bound,
)
from efxkit.cli import ANYTIME_STEP0
from efxkit.lovasz import _relaxation

AGENT_COUNTS = (2, 3, 4, 6)
LAMBDAS = (1.0, 10.0, 100.0, 1000.0)


def _instances(seed: int, n: int):
    yield normalize(random_instance(seed, 5, n))
    yield normalize(generate_instance(7, n, "integer", seed, kmax=1))
    yield normalize(generate_instance(6, n, "integer", seed, kmax=2))
    yield normalize(generate_instance(4, n, "identical", seed))


def _points(inst, rng: np.random.Generator):
    """An integral point, an interior point and one with zero entries."""
    m, n = inst.m, inst.n
    yield np.eye(n)[rng.integers(0, n, size=m)]
    yield random_polytope_point(rng, m, n)
    x = random_polytope_point(rng, m, n)
    x[rng.random((m, n)) < 0.4] = 0.0
    x[np.arange(m), rng.integers(0, n, size=m)] += 0.5
    yield x / x.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", AGENT_COUNTS)
def test_pair_extensions_match_per_pair_reference_exactly(n):
    rng = np.random.default_rng(n)
    for seed in range(3):
        for inst in _instances(seed, n):
            for x in _points(inst, rng):
                for i in range(n):
                    for j in range(n):
                        assert envy_gap_extension(inst, i, j, x) == ref.envy_gap_extension(inst, i, j, x)
                        assert monotone_envy_gap_extension(inst, i, j, x) == (
                            ref.monotone_envy_gap_extension(inst, i, j, x)
                        )
                assert relaxation_objective(inst, x) == ref.relaxation_objective(inst, x)
                for lam in LAMBDAS:
                    assert rounding_bound(inst, x, lam) == ref.rounding_bound(inst, x, lam)


@pytest.mark.parametrize("n", AGENT_COUNTS)
def test_descent_matches_per_pair_reference_exactly(n):
    runs = [(inst, 120, 0.5) for seed in range(2) for inst in _instances(seed, n)]
    # A compare-sized instance at the lovasz command's step0, for 500 of its
    # budget's steps, and 20 items, which take OpenBLAS's unit-stride dot
    # past its short-vector path.
    runs.append((normalize(random_instance(3, 5, n)), 500, ANYTIME_STEP0))
    runs.append((normalize(generate_instance(20, n, "integer", 3, kmax=2)), 120, 0.5))
    for inst, iters, step0 in runs:
        best_x, value, trace = descend_to(inst, iters, step0)
        ref_x, ref_value, ref_trace = ref.minimize_relaxation(inst, iters=iters, step0=step0)
        assert best_x.tobytes() == ref_x.tobytes()
        assert value == ref_value
        assert trace == ref_trace


def test_stacked_dots_match_lone_dots_past_the_short_vector_path():
    # From 16 items on, OpenBLAS's unit-stride dot adds blocks in parallel
    # lanes instead of one running sum; at 40 items each stacked dot must
    # still equal the lone dot of the per-pair reference.
    rng = np.random.default_rng(40)
    for seed in range(2):
        for inst in (
            normalize(random_instance(seed, 40, 3)),
            normalize(generate_instance(40, 3, "integer", seed, kmax=2)),
        ):
            for x in _points(inst, rng):
                for monotone, pair_ref in (
                    (False, ref.envy_gap_extension),
                    (True, ref.monotone_envy_gap_extension),
                ):
                    expected = np.array([[pair_ref(inst, i, j, x) for j in range(3)] for i in range(3)])
                    assert _relaxation(inst)[0](x, monotone)[2].tobytes() == expected.tobytes()
            best_x, value, trace = descend_to(inst, 20, 0.5)
            ref_x, ref_value, ref_trace = ref.minimize_relaxation(inst, iters=20)
            assert best_x.tobytes() == ref_x.tobytes()
            assert value == ref_value
            assert trace == ref_trace
