"""Embedded dense simplex against hand-built LPs, the vertex oracle and
the full-tableau reference."""

from collections import Counter

import numpy as np
import pytest

import reference_dca
from efxkit import build_lp, generate_instance, simplex
from efxkit.simplex import phase_one, phase_two
from reference_lp import random_bounded_lp, vertex_minimize


def test_small_known_optimum():
    res = phase_two([-1.0, -1.0], phase_one([[1.0, 1.0]], [1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)
    assert res.x.sum() == pytest.approx(1.0)


def test_two_constraints():
    res = phase_two([-1.0, 0.0], phase_one([[1.0, 0.0], [1.0, 1.0]], [3.0, 5.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0)
    assert res.x[0] == pytest.approx(3.0)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0
    res = phase_two([1.0], phase_one([[1.0]], [-1.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = phase_two([-1.0, 0.0], phase_one([[-1.0, 1.0]], [1.0]))
    assert res.status == "unbounded"


def test_negative_rhs_phase_one():
    # x >= 2 via -x <= -2, minimized at the phase-one-found vertex
    res = phase_two([1.0], phase_one([[-1.0], [1.0]], [-2.0, 5.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)
    assert res.pivots > 0


def test_equality_via_opposing_rows():
    res = phase_two([1.0, 0.0], phase_one([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0)


def test_redundant_and_degenerate_rows():
    a = [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]]
    b = [1.0, 2.0, 1.0, 1.0]
    res = phase_two([-1.0, -1.0], phase_one(a, b))
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
    res = phase_two(BEALE[0], phase_one(*BEALE[1:]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_matches_vertex_enumeration():
    for seed in range(12):
        c, a, b = random_bounded_lp(seed, n_vars=4, n_rows=5)
        res = phase_two(c, phase_one(a, b))
        status, _, best = vertex_minimize(c, a, b)
        assert res.status == "optimal" and status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-8)


def test_solution_satisfies_constraints():
    for seed in range(12):
        c, a, b = random_bounded_lp(seed + 100, n_vars=5, n_rows=6)
        res = phase_two(c, phase_one(a, b))
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
            statuses.add(shared.status)
        if tableau is not None:
            assert start.tableau.tobytes() == tableau.tobytes()
    assert {"optimal", "unbounded", "infeasible"} <= statuses
    assert phase_one(a, b).pivots > 0


def test_shape_mismatches_are_rejected():
    # A length-1 b_ub used to broadcast over both rows and report x = [1, 1]
    # as optimal; a short c died in a matmul.
    with pytest.raises(ValueError, match="1 entries for the 2 rows"):
        phase_two([-1.0, -1.0], phase_one([[1.0, 0.0], [0.0, 1.0]], [1.0]))
    with pytest.raises(ValueError, match="2-D"):
        phase_two([-1.0], phase_one([1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="3 entries for 2 variables"):
        phase_two([-1.0, -1.0, 0.0], phase_one([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]))
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


def test_phase_one_verdict_does_not_depend_on_the_scale():
    """Scaling b by a power of two scales every right-hand side of the
    tableau exactly and changes no pivot, so phase 1's verdict and phase 2's
    vertex must not change either.  Phase 1 of the second LP leaves a
    residual of 8e-14, a third of an ulp of max |b|, which an absolute
    feasibility tolerance called infeasible from 2**14 on."""
    for a, b, objectives in _descent_lps(6, 3, [0, 1]):
        start = phase_one(a, b)
        result = phase_two(objectives[0], start)
        assert start.status == "feasible" and result.status == "optimal"
        for power in (10, 20, 30):
            scaled = phase_one(a, b * 2.0**power)
            assert scaled.status == "feasible" and scaled.pivots == start.pivots, power
            assert phase_two(objectives[0], scaled).x.tobytes() == (result.x * 2.0**power).tobytes()


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

    def probe_pivot(tableau, basis, nonbasic, row, pos, live):
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
        pivot(tableau, basis, nonbasic, row, pos, live)

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

    Phase 1 keeps every row, redundant ones too: a row still basic in its
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
    for case in DRIVE_OUTS:  # artificials that end phase 1 basic at zero level
        check(*case)
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


def _update_probe(monkeypatch):
    """Count the pivots whose update scatters into the pivot row's nonzero
    columns ("row-sparse") and those that update the whole tableau
    ("dense"), by watching the tableau through a view that sees every
    store made with an index array; every pivot's tableau is column-major."""
    seen = Counter()
    scattered = []

    class Watched(np.ndarray):
        def __setitem__(self, key, value):
            if isinstance(key, np.ndarray):
                scattered.append(key.size)
            super().__setitem__(key, value)

    pivot = simplex._pivot

    def probe_pivot(tableau, basis, nonbasic, row, pos, live):
        assert tableau.flags.f_contiguous
        before = len(scattered)
        pivot(tableau.view(Watched), basis, nonbasic, row, pos, live)
        if len(scattered) > before:
            assert len(scattered) == before + 1 and 2 * scattered[-1] < tableau.shape[1]
            seen["row-sparse"] += 1
        else:
            seen["dense"] += 1

    monkeypatch.setattr(simplex, "_pivot", probe_pivot)
    return seen


def test_row_sparse_and_dense_updates_match_the_full_tableau(monkeypatch):
    """Phase 1 of the dense-row LPs of ``_phase_one_lp`` takes both updates,
    and phase 1 of the descent LPs only the row-sparse one, since it skips
    the columns of departed artificials; every result is the full
    tableau's, byte for byte, with and without the Dantzig opening, and the
    shared column-major start is never written."""
    seen = _update_probe(monkeypatch)
    families = (
        (list(_descent_lps(6, 3, [2, 3])), 3, {"row-sparse"}),
        (list(_descent_lps(12, 3, [0])), 1, {"row-sparse"}),
        ([_phase_one_lp(seed, 4, 20) for seed in (0, 2)], 4, {"row-sparse", "dense"}),
    )
    for budget in (simplex.DANTZIG_PIVOTS_PER_DIM, 0):
        monkeypatch.setattr(simplex, "DANTZIG_PIVOTS_PER_DIM", budget)
        monkeypatch.setattr(reference_dca, "DANTZIG_PIVOTS_PER_DIM", budget)
        for cases, n_objectives, updates in families:
            for a, b, objectives in cases:
                before = seen.copy()
                start = phase_one(a, b)
                assert (seen - before).keys() == updates, (a.shape, budget)
                assert start.tableau.flags.f_contiguous and not start.tableau.flags.writeable
                tableau = start.tableau.tobytes()
                for c in objectives[:n_objectives]:
                    assert _same_result(phase_two(c, start), reference_dca.solve_standard(c, a, b))
                assert start.tableau.tobytes() == tableau


# LPs whose phase 1 drives artificials out after its pivot loop.
DRIVE_OUTS = [
    ([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
    ([[-1.0, -1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [-1.0, -1.0, 1.0, -2.0],
     [[1.0, 2.0, 1.0], [-1.0, 0.0, 1.0]]),
]


def test_departed_artificials_columns_are_never_read(monkeypatch):
    """Once an artificial leaves the basis its column is dead: pivots no
    longer update it, pricing and the drive-outs mask it and the end of
    phase 1 drops it.  Overwriting every dead column with a finite
    sentinel after each pivot, drive-outs included, changes neither a
    result nor the final phase-1 tableau, and both stay the full
    tableau's."""
    cases = [*_descent_lps(6, 3, [0, 1]), *_descent_lps(3, 2, [1]), *DRIVE_OUTS, (*BEALE[1:], [BEALE[0]])]
    cases += [_phase_one_lp(seed, 4, 20) for seed in (0, 2)]
    poisoned = Counter()
    state = [0, False]  # [structurals and slacks, inside the pivot loop]
    pivot, pivot_loop = simplex._pivot, simplex._pivot_loop

    def probe_loop(*args):
        state[1] = True
        try:
            return pivot_loop(*args)
        finally:
            state[1] = False

    def poisoning_pivot(tableau, basis, nonbasic, row, pos, live):
        pivot(tableau, basis, nonbasic, row, pos, live)
        dead = np.flatnonzero(nonbasic >= state[0])
        tableau[:, dead] = -1e300
        poisoned["in the loop" if state[1] else "drive-out"] += dead.size > 0

    monkeypatch.setattr(simplex, "_pivot_loop", probe_loop)

    def solve(a, b, objectives, poison):
        state[0] = np.shape(a)[0] + np.shape(a)[1]
        monkeypatch.setattr(simplex, "_pivot", poisoning_pivot if poison else pivot)
        # The sentinel overflows inside dead columns only.
        with np.errstate(over="ignore", invalid="ignore"):
            start = phase_one(a, b)
            return start, [phase_two(c, start) for c in objectives]

    for budget in (simplex.DANTZIG_PIVOTS_PER_DIM, 0):
        monkeypatch.setattr(simplex, "DANTZIG_PIVOTS_PER_DIM", budget)
        monkeypatch.setattr(reference_dca, "DANTZIG_PIVOTS_PER_DIM", budget)
        for a, b, objectives in cases:
            start, results = solve(a, b, objectives, poison=True)
            clean_start, clean_results = solve(a, b, objectives, poison=False)
            assert start.tableau.tobytes() == clean_start.tableau.tobytes()
            for c, result, clean in zip(objectives, results, clean_results):
                assert _same_result(result, clean) and _same_result(result, reference_dca.solve_standard(c, a, b))
    assert poisoned["in the loop"] > 0 and poisoned["drive-out"] > 0


def _loop_entries(monkeypatch):
    """Copies of each pivot loop's tableau as the loop starts."""
    entries = []
    pivot_loop = simplex._pivot_loop

    def probe_loop(tableau, *args):
        entries.append(tableau.copy())
        return pivot_loop(tableau, *args)

    monkeypatch.setattr(simplex, "_pivot_loop", probe_loop)
    return entries


def test_objective_rows_are_the_row_by_row_sums(monkeypatch):
    """Phase 1's objective row is minus each artificial row in turn and
    phase 2's the cost row minus cost times each costed basis row in turn,
    byte for byte as the loops that subtracted one row at a time built
    them, signed zeros included."""
    entries = _loop_entries(monkeypatch)
    signed = (
        [[-0.0, -1.0, 0.0], [-1.0, -0.0, -1.0], [-0.0, 1.0, -0.0], [0.0, -0.0, 1.0], [1.0, 1.0, 1.0]],
        [-1.0, -1.0, 3.0, -0.0, 4.0],
        [[0.0, -0.0, 1.0], [-0.0, -1.0, 0.0], [-1.0, 0.0, -0.0], [-0.0, -0.0, -0.0]],
    )
    cases = [*_descent_lps(6, 3, [0, 1]), *_descent_lps(3, 2, [1]), *DRIVE_OUTS, signed]
    cases += [_phase_one_lp(seed, 6, 8) for seed in range(4)]  # rows whose sums round
    for a, b, objectives in cases:
        n_rows = np.shape(a)[0]
        del entries[:]
        start = phase_one(a, b)
        (tableau,) = entries
        expected = np.zeros(tableau.shape[1])
        for row in np.flatnonzero(np.asarray(b) < 0):
            expected -= tableau[row]
        assert tableau[-1].tobytes() == expected.tobytes()
        for c in objectives:
            del entries[:]
            phase_two(c, start)
            (tableau,) = entries
            cost = np.concatenate([c, np.zeros(n_rows)])
            expected = np.append(cost[start.nonbasic], 0.0)
            for row, var in enumerate(start.basis):
                if cost[var] != 0.0:
                    expected -= cost[var] * start.tableau[row]
            assert tableau[-1].tobytes() == expected.tobytes()


def test_row_sparse_update_keeps_the_signed_zeros_of_x():
    """A pivot whose row has a zero right-hand side still updates that
    column, as the dense update does: here a negative pivot that drives an
    artificial out turns the row's +0.0 into -0.0, which the full tableau's
    update turns back, and x would otherwise hold a -0.0 the reference does
    not.  The second LP has -0.0 right-hand sides of its own."""
    cases = [
        ([[-2.0, 0.0, 2.0], [1.0, 2.0, -2.0], [2.0, 2.0, -2.0], [-1.0, 0.0, -2.0], [2.0, 0.0, -2.0], [1.0, 1.0, 1.0]],
         [2.0, -1.0, -2.0, 1.0, -2.0, 5.0], [2.0, -2.0, -2.0]),
        ([[-1.0, 0.0], [0.0, -2.0], [-0.0, 2.0], [1.0, 1.0]], [2.0, 0.0, -0.0, 5.0], [0.0, -1.0]),
    ]
    for a, b, c in cases:
        result = phase_two(c, phase_one(a, b))
        assert result.status == "optimal"
        assert _same_result(result, reference_dca.solve_standard(c, a, b))
