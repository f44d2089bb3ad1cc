"""Score-matrix kernels against the per-pair reference loops, and stacked
calls against one call per matrix, bit for bit."""

import numpy as np
import pytest

import reference_shift as ref
from conftest import poison_gain, random_instance
from efxkit import (
    Allocation,
    SelfMapViolation,
    box_radius,
    clamp_map,
    dc_objective,
    encode_allocation,
    generate_instance,
    rowmax_clamp_map,
    smooth_clamp_map,
    transfer_gain,
)
from efxkit.extension import _shifted_rowmax, convex_part

AGENT_COUNTS = (2, 3, 4, 6, 7)


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


@pytest.mark.parametrize("n", AGENT_COUNTS)
def test_stacked_kernels_match_one_call_per_matrix(n):
    # n = 2 has no bystander column; the tied scores of _score_matrices
    # put ties among the bystanders for n >= 3.
    rng = np.random.default_rng(n + 100)
    for seed in range(4):
        for inst in _instances(seed, n):
            box = box_radius(inst) + 4.0
            stack = np.array([*_score_matrices(inst, rng), *_score_matrices(inst, rng)])
            kernels = [
                lambda y: _shifted_rowmax(inst, y)[2],
                lambda y: transfer_gain(inst, y),
                lambda y: clamp_map(inst, y),
                lambda y: rowmax_clamp_map(inst, y, box),
                lambda y: smooth_clamp_map(inst, y, box),
            ]
            for kernel in kernels:
                expected = np.array([kernel(y) for y in stack])
                assert kernel(stack).tobytes() == expected.tobytes()
                # Any number of leading axes maps matrix by matrix.
                nested = kernel(stack.reshape(2, -1, inst.m, n))
                assert nested.tobytes() == expected.tobytes()
                assert nested.shape == (2, len(stack) // 2, *expected.shape[1:])
            i, j, _ = _shifted_rowmax(inst, stack)
            i2, j2, _ = _shifted_rowmax(inst, stack[0])
            assert i.tolist() == i2.tolist() and j.tolist() == j2.tolist()


@pytest.mark.parametrize("n", (3, 4, 7))
def test_stacked_rescan_matches_the_reference_on_tied_rows(n):
    # Three or more equal scores per row, at the row maximum or below it,
    # so that for pairs inside the tie the bystander is one of the tied.
    rng = np.random.default_rng(n + 200)
    for seed in range(3):
        for inst in _instances(seed, n):
            stack = rng.integers(-4, 0, size=(6, inst.m, n)).astype(float)
            for row in stack.reshape(-1, n):
                tied = rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False)
                row[tied] = rng.choice([0.0, -2.0])
            _, _, shifted = _shifted_rowmax(inst, stack)
            gain = transfer_gain(inst, stack)
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            for y, rows, g in zip(stack, shifted, gain):
                expected = np.array([ref._pair_shift_max(inst.values, y, a, b) for a, b in pairs])
                assert rows.tobytes() == expected.tobytes()
                assert g.tobytes() == ref.transfer_gain(inst, y).tobytes()


def test_stacked_smooth_map_raises_the_first_escape_of_the_stack(monkeypatch):
    # A poisoned gain lets some images escape the box.
    inst = generate_instance(4, 3, "uniform01", 5)
    radius = box_radius(inst)
    rng = np.random.default_rng(17)
    points = rng.uniform(-radius, 0.0, size=(40, 4, 3))
    poison_gain(monkeypatch, points[[6, 13, 29]], 2.0 * radius * np.exp(radius))
    messages = []
    for y in points:
        try:
            smooth_clamp_map(inst, y, radius)
            messages.append(None)
        except SelfMapViolation as exc:
            messages.append(str(exc))
    first = next(k for k, message in enumerate(messages) if message)
    assert first > 0 and len(messages) - messages.count(None) > 1
    with pytest.raises(SelfMapViolation) as caught:
        smooth_clamp_map(inst, points, radius)
    assert str(caught.value) == messages[first]
