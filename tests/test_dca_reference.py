"""The descent from one shared phase-1 start against the per-step
reference loop, byte for byte."""

import numpy as np
import pytest

import reference_dca as ref
from conftest import random_instance
from efxkit import build_lp, dca_solve, default_box_bound, generate_instance, lp_start, normalize, solve_lp
from efxkit.dc import greedy_allocation

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


def _shared_start(inst, box):
    return lp_start(build_lp(inst, greedy_allocation(inst).owner, box))


@pytest.mark.parametrize("n", sorted(ITEMS))
def test_dca_matches_per_step_reference_exactly(n):
    for seed in range(2):
        for inst in _instances(seed, n):
            box = default_box_bound(inst)
            start = _shared_start(inst, box)
            for y0 in [None, np.random.default_rng(seed).uniform(-box, 0.0, size=(inst.m, n))]:
                expected = _fingerprint(ref.dca_solve(inst, y0=y0))
                assert _fingerprint(dca_solve(inst, y0=y0)) == expected
                assert _fingerprint(dca_solve(inst, y0=y0, m_const=box, start=start)) == expected


def test_trace_counts_phase_two_pivots_and_zero_on_a_repeat():
    repeats = 0
    for n in sorted(ITEMS):
        for inst in _instances(0, n):
            box = default_box_bound(inst)
            phase1 = _shared_start(inst, box).phase_one.pivots
            y0 = np.random.default_rng(n).uniform(-box, 0.0, size=(inst.m, n))
            out = dca_solve(inst, y0=y0)
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


def test_start_for_another_instance_or_box_is_rejected():
    inst = normalize(random_instance(0, 4, 2))
    other = normalize(random_instance(1, 4, 2))
    box = default_box_bound(inst)
    with pytest.raises(ValueError, match="another instance or box"):
        dca_solve(inst, start=_shared_start(other, box))
    with pytest.raises(ValueError, match="another instance or box"):
        dca_solve(inst, start=_shared_start(inst, 2 * box))
    model = build_lp(inst, [0, 1, 0, 1])
    with pytest.raises(ValueError, match="other rows or bounds"):
        solve_lp(model, _shared_start(other, box))
