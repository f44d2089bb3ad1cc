"""Embedded dense simplex against hand-built LPs and the vertex oracle."""

import numpy as np
import pytest

import reference_dca
from efxkit.simplex import phase_one, phase_two, solve_standard
from reference_lp import random_bounded_lp, vertex_minimize


def test_small_known_optimum():
    res = solve_standard([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)
    assert res.x.sum() == pytest.approx(1.0)


def test_two_constraints():
    res = solve_standard([-1.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [3.0, 5.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0)
    assert res.x[0] == pytest.approx(3.0)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0
    res = solve_standard([1.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_standard([-1.0, 0.0], [[-1.0, 1.0]], [1.0])
    assert res.status == "unbounded"


def test_negative_rhs_phase_one():
    # x >= 2 via -x <= -2, minimized at the phase-one-found vertex
    res = solve_standard([1.0], [[-1.0], [1.0]], [-2.0, 5.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)
    assert res.pivots > 0


def test_equality_via_opposing_rows():
    res = solve_standard(
        [1.0, 0.0],
        [[1.0, 1.0], [-1.0, -1.0]],
        [1.0, -1.0],
    )
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0)


def test_redundant_and_degenerate_rows():
    a = [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]]
    b = [1.0, 2.0, 1.0, 1.0]
    res = solve_standard([-1.0, -1.0], a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)


def test_beale_cycling_example_terminates():
    # classic degenerate example that cycles under a naive Dantzig rule;
    # the Bland fallback must still reach the optimum of -1/20
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_standard(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_matches_vertex_enumeration():
    for seed in range(12):
        c, a, b = random_bounded_lp(seed, n_vars=4, n_rows=5)
        res = solve_standard(c, a, b)
        status, _, best = vertex_minimize(c, a, b)
        assert res.status == "optimal" and status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-8)


def test_solution_satisfies_constraints():
    for seed in range(12):
        c, a, b = random_bounded_lp(seed + 100, n_vars=5, n_rows=6)
        res = solve_standard(c, a, b)
        assert res.status == "optimal"
        assert np.all(np.asarray(a) @ res.x <= np.asarray(b) + 1e-9)
        assert np.all(res.x >= -1e-9)


def _same_result(a, b):
    return (
        a.status == b.status
        and a.pivots == b.pivots
        and a.objective == b.objective
        and (a.x is None) == (b.x is None)
        and (a.x is None or a.x.tobytes() == b.x.tobytes())
    )


def test_phase_two_from_one_start_matches_solve_standard():
    """One phase-1 start finished with many objectives gives what a cold
    two-phase solve of each gives, pivot count included."""
    rng = np.random.default_rng(3)
    # Rows with negative right-hand sides need phase-1 pivots; the point
    # x_star keeps the region feasible and the cap row keeps it bounded.
    a = rng.normal(0.0, 1.0, size=(8, 6))
    x_star = rng.uniform(0.5, 1.5, size=6)
    b = a @ x_star + rng.uniform(0.0, 0.3, size=8)
    a = np.vstack([a, np.ones(6)])
    b = np.concatenate([b, [12.0]])
    assert np.any(b < 0)
    cases = [
        (a, b, rng.normal(0.0, 1.0, size=(12, 6))),
        # x0 + x1 >= 1 and x1 <= x0 + 1: unbounded for some objectives.
        ([[-1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0], [0.0, -1.0], [1.0, -0.5]]),
        # x0 + x1 >= 1 and x0 <= -2: infeasible.
        ([[-1.0, -1.0], [1.0, 0.0]], [-1.0, -2.0], [[1.0, 0.0], [-1.0, 1.0]]),
    ]
    statuses = set()
    for a_ub, b_ub, objectives in cases:
        start = phase_one(a_ub, b_ub)
        tableau = None if start.tableau is None else start.tableau.copy()
        for c in objectives:
            shared = phase_two(c, start)
            cold = reference_dca.solve_standard(c, a_ub, b_ub)
            assert _same_result(shared, cold)
            assert _same_result(solve_standard(c, a_ub, b_ub), cold)
            statuses.add(shared.status)
        if tableau is not None:
            assert start.tableau.tobytes() == tableau.tobytes()
    assert {"optimal", "unbounded", "infeasible"} <= statuses
    assert phase_one(a, b).pivots > 0
