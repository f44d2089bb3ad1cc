"""Embedded dense simplex against hand-built LPs, the vertex oracle and
the full-tableau reference."""

from collections import Counter

import numpy as np
import pytest

import reference_dca
from efxkit import build_lp, generate_instance, simplex
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


# Beale's LP: (c, a, b).
BEALE = (
    [-0.75, 150.0, -0.02, 6.0],
    [[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_beale_cycling_example_terminates():
    # classic degenerate example that cycles under a naive Dantzig rule;
    # the Bland fallback must still reach the optimum of -1/20
    res = solve_standard(*BEALE)
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


def test_shape_mismatches_are_rejected():
    # A length-1 b_ub used to broadcast over both rows and report x = [1, 1]
    # as optimal; a short c died in a matmul.
    with pytest.raises(ValueError, match="1 entries for the 2 rows"):
        solve_standard([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match="2-D"):
        solve_standard([-1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="3 entries for 2 variables"):
        solve_standard([-1.0, -1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="1 entries for 2 variables"):
        phase_two([1.0], phase_one([[-1.0, -1.0], [1.0, 0.0]], [-1.0, -2.0]))


def _descent_lps(m, n, seeds):
    """Standard-form rows of integer DescentLP models with step objectives."""
    for seed in seeds:
        lp = build_lp(generate_instance(m, n, "integer", seed, kmax=3))
        a = np.vstack([lp.a, np.eye(lp.a.shape[1])])
        b = np.concatenate([lp.b - lp.a @ lp.lower, lp.upper - lp.lower])
        rng = np.random.default_rng(seed)
        objectives = []
        for _ in range(6):
            c = np.zeros(lp.a.shape[1])
            c[-1] = 1.0
            c[np.arange(m) * n + rng.integers(0, n, size=m)] -= 1.0
            objectives.append(c)
        yield a, b, objectives


def _branch_probe(monkeypatch):
    """Count, at each compact pivot, the branches where a column position
    and a variable index could pick differently."""
    seen = Counter()
    # [enter_vars, Dantzig budget, pivot count, inside the pivot loop]; a
    # pivot outside the loop drives out an artificial after phase 1's loop.
    state = [0, 0, 0, False]
    pivot, pivot_loop = simplex._pivot, simplex._pivot_loop

    def probe_loop(tableau, basis, nonbasic, enter_vars, budget, pivots):
        state[:] = [enter_vars, budget, pivots, True]
        try:
            return pivot_loop(tableau, basis, nonbasic, enter_vars, budget, pivots)
        finally:
            state[3] = False

    def probe_pivot(tableau, basis, nonbasic, row, pos):
        enter_vars, budget, count, in_loop = state
        if not in_loop:
            usable = np.flatnonzero((np.abs(tableau[row, :-1]) > simplex.PIVOT_TOL) & (nonbasic < enter_vars))
            seen["drive-out off the first position"] += pos != usable[0]
        else:
            reduced = tableau[-1, :-1]
            eligible = np.flatnonzero((reduced < -simplex.PIVOT_TOL) & (nonbasic < enter_vars))
            if count < budget:
                ties = eligible[reduced[eligible] == reduced[eligible].min()]
                seen["dantzig tie off the first position"] += ties.size > 1 and pos != ties[0]
            else:
                seen["bland pick off the first position"] += pos != eligible[0]
            state[2] += 1
        pivot(tableau, basis, nonbasic, row, pos)

    monkeypatch.setattr(simplex, "_pivot_loop", probe_loop)
    monkeypatch.setattr(simplex, "_pivot", probe_pivot)
    return seen


def _phase_one_lp(seed, n_vars, n_rows):
    """Rows with some negative right-hand sides around a feasible point,
    capped so that the region is bounded."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_rows, n_vars))
    b = a @ rng.uniform(0.5, 1.5, size=n_vars) + rng.uniform(0.0, 0.3, size=n_rows)
    return np.vstack([a, np.ones(n_vars)]), np.append(b, 2.0 * n_vars), rng.normal(0.0, 1.0, size=(4, n_vars))


def test_compact_tableau_matches_the_full_tableau_on_every_branch(monkeypatch):
    """The compact simplex against the full-tableau reference, byte for
    byte, on each branch where a column position and a variable index could
    pick differently.

    Phase 1 never drops a redundant row: a row still basic in its
    artificial has never been a pivot row, so its own slack keeps the entry
    -1 there and drives the artificial out.  The test checks that every row
    is kept.
    """
    seen = _branch_probe(monkeypatch)
    statuses = Counter()

    def check(a, b, objectives):
        start = phase_one(a, b)
        assert start.basis is None or start.basis.size == len(b)
        for c in objectives:
            result = phase_two(c, start)
            assert _same_result(result, reference_dca.solve_standard(c, a, b))
            statuses[result.status] += 1

    for shape, seeds in (((4, 4), [0]), ((6, 3), [0, 1])):
        for case in _descent_lps(*shape, seeds):
            check(*case)
    ties = seen["dantzig tie off the first position"]
    check(BEALE[1], BEALE[2], [BEALE[0]])
    # Artificials that end phase 1 basic at zero level.
    check([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    check([[-1.0, -1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [-1.0, -1.0, 1.0, -2.0],
          [[1.0, 2.0, 1.0], [-1.0, 0.0, 1.0]])
    check([[-1.0, -1.0], [1.0, 0.0]], [-1.0, -2.0], [[1.0, 0.0]])  # infeasible
    check([[-1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0]])  # unbounded for the first
    bland_beale = seen["bland pick off the first position"]

    monkeypatch.setattr(simplex, "DANTZIG_PIVOTS_PER_DIM", 0)
    monkeypatch.setattr(reference_dca, "DANTZIG_PIVOTS_PER_DIM", 0)
    for seed in range(4):
        check(*_phase_one_lp(seed, 6, 8))
    for case in _descent_lps(3, 2, [0]):
        check(*case)

    assert ties > 0
    assert bland_beale > 0 and seen["bland pick off the first position"] > bland_beale
    assert seen["drive-out off the first position"] > 0
    assert statuses["optimal"] and statuses["infeasible"] and statuses["unbounded"]
