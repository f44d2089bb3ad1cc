"""The descent from one shared phase-1 start, and its dense row builder,
against the per-step reference loop, byte for byte."""

import numpy as np
import pytest

import reference_dca as ref
from conftest import random_instance
from efxkit import Instance, box_radius, build_lp, dca_solve, generate_instance, normalize

# Items per agent count, small enough for the cold reference to stay quick.
ITEMS = {2: 5, 3: 4, 4: 3}


def _instances(seed: int, n: int):
    m = ITEMS[n]
    yield normalize(random_instance(seed, m, n))
    yield normalize(generate_instance(m, n, "integer", seed, kmax=1))
    yield normalize(generate_instance(m, n, "integer", seed, kmax=2))
    yield normalize(generate_instance(m, n, "identical", seed))


def _fingerprint(result):
    """Every field of a result; the reference's trace has no pivot counts."""
    return (
        result.y.tobytes(),
        result.objective,
        result.iterations,
        result.converged,
        result.status,
        [{k: v for k, v in entry.items() if k != "lp_pivots"} for entry in result.trace],
        result.allocation.owner.tobytes(),
        result.efx,
    )


@pytest.mark.parametrize("n", sorted(ITEMS))
def test_dca_matches_per_step_reference_exactly(n):
    for seed in range(2):
        for inst in _instances(seed, n):
            lp = build_lp(inst)
            for y0 in [None, np.random.default_rng(seed).uniform(-lp.m_const, 0.0, size=(inst.m, n))]:
                assert _fingerprint(dca_solve(lp, y0=y0)) == _fingerprint(ref.dca_solve(inst, y0=y0))


def test_trace_counts_phase_two_pivots_and_zero_on_a_repeat():
    repeats = 0
    for n in sorted(ITEMS):
        for inst in _instances(0, n):
            box = box_radius(inst)
            lp = build_lp(inst, box)
            phase1 = lp.phase_one.pivots
            y0 = np.random.default_rng(n).uniform(-box, 0.0, size=(inst.m, n))
            out = dca_solve(lp, y0=y0)
            assert out.phase1_pivots == phase1
            y, previous = y0, None
            for entry in out.trace:
                selection = np.argmax(y, axis=1)
                cold = ref.solve_lp(ref.build_lp(inst, selection, box))
                if previous is not None and np.array_equal(selection, previous):
                    repeats += 1
                    assert entry["lp_pivots"] == 0
                else:
                    assert entry["lp_pivots"] == cold.pivots - phase1
                y, previous = cold.y, selection
    assert repeats > 0


def test_dense_rows_match_the_sparse_reference_builder():
    zero_value = Instance([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    negative_zeros = 0
    for inst in [zero_value, *(inst for n in sorted(ITEMS) for seed in range(2) for inst in _instances(seed, n))]:
        for box in (box_radius(inst), 3.5 * box_radius(inst)):
            lp = build_lp(inst, box)
            model = ref.build_lp(inst, np.zeros(inst.m, dtype=int), box)
            a, b = ref._dense_rows(model)
            assert lp.a.tobytes() == a.tobytes() and lp.a.shape == a.shape
            assert lp.b.tobytes() == b.tobytes()
            assert lp.lower.tobytes() == model.lower.tobytes()
            assert lp.upper.tobytes() == model.upper.tobytes()
            negative_zeros += int(np.sum((b == 0.0) & np.signbit(b)))
    # A zero value makes a family-3 right-hand side -0.0, whose sign bit
    # the byte comparison above checks.
    assert negative_zeros > 0
