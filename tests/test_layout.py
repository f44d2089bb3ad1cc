"""Agents-major stacks, the layout the Picard loop keeps, against
C-contiguous ones byte for byte; stacked clamp slacks against one call per
matrix; and the vectorised stuck-row diagnostics against the per-row loop."""

import numpy as np
import pytest

import reference_stuck_rows as ref
from conftest import random_instance
from efxkit import (
    box_radius,
    clamp_map,
    constraint_slacks,
    generate_instance,
    rowmax_clamp_map,
    smooth_clamp_map,
    stuck_row_diagnostics,
    transfer_gain,
)
from efxkit.fixedpoint import MAPS, _clamp_step
from test_score_kernels import AGENT_COUNTS, _instances, _score_matrices, _shifted_rowmax


def _agents_major(stack: np.ndarray) -> np.ndarray:
    """The same scores as an (..., m, n) view of (..., n, m) memory."""
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(stack, -1, -2)), -1, -2)


def _tied_stack(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Rows whose two or more equal scores sit at the row maximum or below
    it, with zeros of either sign among them."""
    stack = rng.integers(-4, 0, size=(6, m, n)).astype(float)
    for row in stack.reshape(-1, n):
        tied = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        row[tied] = rng.choice([0.0, -2.0])
        if row[tied[0]] == 0.0:
            row[tied[rng.integers(0, 2, size=len(tied)) == 1]] = -0.0
    return stack


def _kernels(inst, box):
    kernels = {
        "shifted_rowmax": lambda y: _shifted_rowmax(inst, y)[2],
        "transfer_gain": lambda y: transfer_gain(inst, y),
        "clamp_map": lambda y: clamp_map(inst, y),
        "rowmax_clamp_map": lambda y: rowmax_clamp_map(inst, y),
        "smooth_clamp_map": lambda y: smooth_clamp_map(inst, y),
        "constraint_slacks": lambda y: constraint_slacks(inst, y),
    }
    # The Picard loop's step of each map, on the (..., n, m) base of y.
    for name in MAPS:
        step = _clamp_step(inst, name, box)
        kernels[f"step_{name}"] = lambda y, step=step: step(np.swapaxes(y, -1, -2)).swapaxes(-1, -2)
    return kernels


@pytest.mark.parametrize("n", AGENT_COUNTS)
def test_agents_major_stacks_give_the_same_bytes(n):
    rng = np.random.default_rng(n + 300)
    for seed in range(3):
        for inst in _instances(seed, n):
            kernels = _kernels(inst, box_radius(inst) + 4.0)
            stacks = [np.array([*_score_matrices(inst, rng), *_score_matrices(inst, rng)])]
            if n > 2:
                stacks.append(_tied_stack(rng, inst.m, n))
            for stack in stacks:
                major = _agents_major(stack)
                assert major.tobytes() == stack.tobytes() and not major.flags.c_contiguous
                for name, kernel in kernels.items():
                    assert kernel(major).tobytes() == kernel(stack).tobytes(), name
                # The gain and the maps come back laid out like their input.
                for name in ("transfer_gain", "clamp_map", "smooth_clamp_map", "step_T", "step_Ttilde"):
                    assert np.swapaxes(kernels[name](major), -1, -2).flags.c_contiguous, name
                    assert kernels[name](stack).flags.c_contiguous, name


@pytest.mark.parametrize("n", (2, 3, 5))
def test_stacked_constraint_slacks_match_one_call_per_matrix(n):
    inst = random_instance(n, 4, n)
    stack = np.random.default_rng(n).uniform(-3.0, 0.0, size=(2, 4, n))
    expected = np.array([constraint_slacks(inst, y) for y in stack])
    assert constraint_slacks(inst, stack).tobytes() == expected.tobytes()
    assert constraint_slacks(inst, stack.reshape(1, 2, 4, n)).tobytes() == expected.tobytes()


def _stuck_points(inst, rng: np.random.Generator):
    """Scores with rows stuck below zero, moderately or far enough down
    that exp(-rowmax) overflows, beside rows holding coordinates within
    the tolerance of zero or exactly zero, which are never stuck."""
    m, n = inst.m, inst.n
    yield rng.uniform(-3.0, 0.0, size=(m, n))
    deep = rng.uniform(-760.0, -700.0, size=(m, n))
    deep[::2] = rng.uniform(-2.0, -0.5, size=(len(deep[::2]), n))
    yield deep
    near = rng.uniform(-1.5, -0.2, size=(m, n))
    near[rng.random((m, n)) < 0.3] = -1e-12
    near[0] = 0.0
    near[1, 0] = -1e-9
    yield near
    yield rng.choice([0.0, -1e-12, -0.5, -800.0], size=(m, n))


@pytest.mark.parametrize("n", (2, 3, 5))
def test_stuck_row_diagnostics_match_the_per_row_loop(n):
    rng = np.random.default_rng(n + 400)
    count, skipped = 0, 0
    for inst in (random_instance(n, 6, n), generate_instance(7, n, "integer", n), generate_instance(5, n, "identical", n)):
        for y in _stuck_points(inst, rng):
            rows = stuck_row_diagnostics(inst, y)
            expected = ref.stuck_row_diagnostics(inst, y)
            # repr tells apart every distinct float, and the signs of zero.
            assert repr(rows) == repr(expected)
            count += len(rows)
            skipped += sum(entry["skipped"] for row in rows for entry in row["entries"])
    assert count > 0 and skipped > 0
    # Rows far below zero overflow exp(-rowmax) and skip every entry.
    deep = np.full((3, n), -800.0)
    rows = stuck_row_diagnostics(random_instance(1, 3, n), deep)
    assert repr(rows) == repr(ref.stuck_row_diagnostics(random_instance(1, 3, n), deep))
    assert len(rows) == 3 and all(entry["skipped"] for row in rows for entry in row["entries"])
