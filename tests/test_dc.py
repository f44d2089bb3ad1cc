"""DC decomposition, the linearized LP subproblem, and the descent loop."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_instance
from efxkit import (
    Allocation,
    Instance,
    InternalCheckError,
    build_lp,
    dc,
    dc_objective,
    dca_solve,
    encode_allocation,
    enumerate_efx,
    normalize,
    solve_lp,
)
from efxkit.dc import greedy_allocation
from efxkit.extension import convex_part, rowmax_sum


def _nonzeros_per_row(lp):
    return np.count_nonzero(lp.a, axis=1).tolist()


@pytest.mark.parametrize("n", range(2, 6))
def test_rows_keep_the_pair_order_of_the_agent_loops(monkeypatch, n):
    # The pair order build_lp wrote out itself before it read _ordered_pairs.
    inst = random_instance(n, 3, n)
    order = np.array([[i, j, *(r for r in range(n) if r not in (i, j))] for i in range(n) for j in range(n) if i != j])
    lp = build_lp(inst)
    monkeypatch.setattr(dc, "_ordered_pairs", lambda _: (order[:, :2].T, order[:, 2:].T, None))
    reference = build_lp(inst)
    assert lp.a.tobytes() == reference.a.tobytes() and lp.a.shape == reference.a.shape
    assert lp.b.tobytes() == reference.b.tobytes()


def test_model_shape_two_agents(i0_raw):
    lp = build_lp(i0_raw)
    assert lp.a.shape[1] == 13  # 6 scores + 6 auxiliaries + epigraph
    # 6 family-1 rows, then 6 each of families 2 and 3, none of family 4
    assert lp.a.shape[0] == 6 + 6 + 6 + 0
    # family-1 rows couple one score, m-1 auxiliaries, and the epigraph var
    assert _nonzeros_per_row(lp) == [i0_raw.m + 1] * 6 + [2] * 12
    assert np.all(lp.b[:6] == 0.0)


def test_model_shape_three_agents():
    inst = random_instance(0, 2, 3)
    lp = build_lp(inst)
    assert lp.a.shape[1] == 19  # 6 scores + 12 auxiliaries + epigraph
    assert lp.a.shape[0] == 12 + 12 + 12 + 12  # families 1 to 4
    assert _nonzeros_per_row(lp) == [3] * 12 + [2] * 36


def test_model_rejects_bad_selection(i0_raw):
    lp = build_lp(i0_raw)
    with pytest.raises(ValueError):
        solve_lp(lp, [0, 0])
    with pytest.raises(ValueError):
        solve_lp(lp, [0, 0, 2])


def test_decomposition_identity():
    rng = np.random.default_rng(4)
    for seed in range(10):
        inst = random_instance(seed, 4, 3)
        for _ in range(20):
            y = rng.normal(-2, 3, size=(4, 3))
            split = convex_part(inst, y) - rowmax_sum(y)
            assert split == pytest.approx(dc_objective(inst, y), abs=1e-12)


def test_both_parts_are_convex():
    rng = np.random.default_rng(6)
    for seed in range(5):
        inst = random_instance(seed, 4, 3)
        for _ in range(40):
            a = rng.normal(-2, 3, size=(4, 3))
            b = rng.normal(-2, 3, size=(4, 3))
            mid = 0.5 * (a + b)
            assert convex_part(inst, mid) <= 0.5 * (
                convex_part(inst, a) + convex_part(inst, b)
            ) + 1e-9
            assert rowmax_sum(mid) <= 0.5 * (rowmax_sum(a) + rowmax_sum(b)) + 1e-9


def test_parts_frozen_values(i0_norm):
    y = encode_allocation(i0_norm, Allocation(np.array([0, 1, 1])))
    assert rowmax_sum(y) == 0.0
    assert convex_part(i0_norm, y) == pytest.approx(-0.25)
    assert rowmax_sum(np.full((4, 2), -1.0)) == -4.0


def test_epigraph_minimum_equals_convex_part(i0_norm):
    rng = np.random.default_rng(12)
    for _ in range(5):
        y = rng.uniform(-4.9, 0.0, size=(3, 2))
        lp = build_lp(i0_norm)
        n_y = y.size
        lower = lp.lower.copy()
        upper = lp.upper.copy()
        lower[:n_y] = y.ravel()
        upper[:n_y] = y.ravel()
        pinned = dataclasses.replace(lp, lower=lower, upper=upper)
        sol = solve_lp(pinned, [0, 0, 0])
        assert sol.status == "optimal"
        assert sol.w == pytest.approx(convex_part(i0_norm, y), abs=1e-9)
        assert np.allclose(sol.y, y, atol=1e-9)


def test_lp_matches_scipy(i0_norm):
    # The rows and bounds do not depend on the selection, so both
    # selections on i0_norm are solved from one phase-1 start.
    lp = build_lp(i0_norm)
    cases = [(lp, [0, 0, 0]), (lp, [1, 0, 1]), (build_lp(normalize(random_instance(5, 3, 3))), [2, 0, 1])]
    for lp, selection in cases:
        sol = solve_lp(lp, selection)
        assert sol.status == "optimal"
        objective = np.zeros(lp.a.shape[1])
        objective[-1] = 1.0
        for item, agent in enumerate(selection):
            objective[item * lp.inst.n + agent] -= 1.0
        ref = linprog(
            objective,
            A_ub=lp.a,
            b_ub=lp.b,
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_lp_solution_feasible(i0_norm):
    lp = build_lp(i0_norm)
    sol = solve_lp(lp, [0, 1, 0])
    assert sol.status == "optimal"
    point = np.concatenate([sol.y.ravel(), sol.z.ravel(), [sol.w]])
    assert np.all(lp.a @ point <= lp.b + 1e-8)
    assert np.all(point >= lp.lower - 1e-8)
    assert np.all(point <= lp.upper + 1e-8)


def test_greedy_allocation_frozen(i0_norm):
    assert greedy_allocation(i0_norm).owner.tolist() == [0, 0, 1]


def test_dca_from_efx_encoding_stops_immediately(i0_norm):
    res = enumerate_efx(i0_norm)
    y0 = encode_allocation(i0_norm, res.witnesses[0])
    out = dca_solve(build_lp(i0_norm), y0=y0)
    assert out.efx
    assert out.objective <= 1e-9
    assert out.allocation.owner.tolist() == res.witnesses[0].owner.tolist()


def test_dca_default_start_solves_reference(i0_norm):
    out = dca_solve(build_lp(i0_norm))
    assert out.converged
    assert out.status == "converged"
    assert out.efx
    assert out.objective <= 1e-9


def test_dca_objective_non_increasing():
    for seed in range(20):
        inst = normalize(random_instance(seed, 6, 3))
        rng = np.random.default_rng(seed + 500)
        y0 = rng.uniform(-1.0, 0.0, size=(6, 3))
        out = dca_solve(build_lp(inst), y0=y0)
        objectives = [entry["objective"] for entry in out.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


@pytest.mark.parametrize("dist", ["uniform01", "integer"])
def test_dca_keeps_working_when_the_values_are_scaled_up(dist):
    """Phase 1's feasibility check and the vertex recheck scale with the
    LP: with absolute tolerances, phase 1 called some of these LPs
    infeasible from x1e3 on, and from x1e6 on every vertex failed the
    recheck by a few ulps of the box radius."""
    for seed in range(2):
        values = random_instance(seed, 6, 3, dist).values
        for power in (0, 3, 4, 6, 9):
            lp = build_lp(Instance(values * 10.0**power))
            assert lp.phase_one.status == "feasible", (seed, power)
            out = dca_solve(lp)
            assert out.status == "converged", (seed, power)


def test_dca_nonpositive_objective_implies_efx():
    hits = 0
    for seed in range(30):
        n = 2 + seed % 2
        inst = normalize(random_instance(seed, 5, n))
        out = dca_solve(build_lp(inst))
        if out.objective <= 0.0:
            hits += 1
            assert out.efx
    assert hits > 0


def test_dca_rejects_bad_starts(i0_norm):
    with pytest.raises(ValueError):
        dca_solve(build_lp(i0_norm), y0=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dca_solve(build_lp(i0_norm), y0=np.full((3, 2), 1.0))  # above the box
    with pytest.raises(ValueError):
        dca_solve(build_lp(i0_norm), y0=np.full((3, 2), -99.0))  # below the box
    with pytest.raises(ValueError):
        dca_solve(build_lp(i0_norm), y0=np.full((3, 2), np.nan))  # in no box


def test_internal_check_error_is_runtime_error():
    assert issubclass(InternalCheckError, RuntimeError)
