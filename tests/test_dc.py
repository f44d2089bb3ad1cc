"""DC decomposition, the linearized LP subproblem, and the descent loop."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_instance
from efxkit import (
    Allocation,
    InternalCheckError,
    build_lp,
    dc_objective,
    dca_solve,
    encode_allocation,
    enumerate_efx,
    lp_start,
    normalize,
    solve_lp,
)
from efxkit.dc import greedy_allocation
from efxkit.extension import convex_part, rowmax_sum


def _family_counts(model):
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for _coeffs, _rhs, family in model.rows:
        counts[family] += 1
    return counts


def test_model_shape_two_agents(i0_raw):
    model = build_lp(i0_raw, selection=[0, 0, 0])
    assert model.n_vars == 13  # 6 scores + 6 auxiliaries + epigraph
    assert _family_counts(model) == {1: 6, 2: 6, 3: 6, 4: 0}
    # family-1 rows couple one score, m-1 auxiliaries, and the epigraph var
    for coeffs, rhs, family in model.rows:
        if family == 1:
            assert len(coeffs) == model.m + 1
            assert rhs == 0.0
        else:
            assert len(coeffs) == 2


def test_model_shape_three_agents():
    inst = random_instance(0, 2, 3)
    model = build_lp(inst, selection=[0, 1])
    assert model.n_vars == 19  # 6 scores + 12 auxiliaries + epigraph
    assert _family_counts(model) == {1: 12, 2: 12, 3: 12, 4: 12}
    for coeffs, _rhs, family in model.rows:
        assert len(coeffs) == (3 if family == 1 else 2)


def test_model_rejects_bad_selection(i0_raw):
    with pytest.raises(ValueError):
        build_lp(i0_raw, selection=[0, 0])
    with pytest.raises(ValueError):
        build_lp(i0_raw, selection=[0, 0, 2])


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
    y = encode_allocation(i0_norm, Allocation(np.array([0, 1, 1])), m_const=5.0)
    assert rowmax_sum(y) == 0.0
    assert convex_part(i0_norm, y) == pytest.approx(-0.25)
    assert rowmax_sum(np.full((4, 2), -1.0)) == -4.0


def test_epigraph_minimum_equals_convex_part(i0_norm):
    rng = np.random.default_rng(12)
    for _ in range(5):
        y = rng.uniform(-4.9, 0.0, size=(3, 2))
        model = build_lp(i0_norm, selection=[0, 0, 0])
        n_y = model.m * model.n
        lower = model.lower.copy()
        upper = model.upper.copy()
        lower[:n_y] = y.ravel()
        upper[:n_y] = y.ravel()
        pinned = dataclasses.replace(model, lower=lower, upper=upper)
        sol = solve_lp(pinned)
        assert sol.status == "optimal"
        assert sol.w == pytest.approx(convex_part(i0_norm, y), abs=1e-9)
        assert np.allclose(sol.y, y, atol=1e-9)


def test_lp_matches_scipy(i0_norm):
    models = [build_lp(i0_norm, selection=sel) for sel in ([0, 0, 0], [1, 0, 1])]
    inst = normalize(random_instance(5, 3, 3))
    models.append(build_lp(inst, selection=[2, 0, 1]))
    # The rows and bounds do not depend on the selection, so the second
    # model is also solved from the first model's phase-1 start.
    shared = lp_start(models[0])
    for model, start in [*((model, None) for model in models), (models[1], shared)]:
        sol = solve_lp(model, start)
        assert sol.status == "optimal"
        a = np.zeros((len(model.rows), model.n_vars))
        b = np.empty(len(model.rows))
        for r, (coeffs, rhs, _family) in enumerate(model.rows):
            for var, coef in coeffs:
                a[r, var] = coef
            b[r] = rhs
        ref = linprog(
            model.objective,
            A_ub=a,
            b_ub=b,
            bounds=list(zip(model.lower, model.upper)),
            method="highs",
        )
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_lp_solution_feasible(i0_norm):
    model = build_lp(i0_norm, selection=[0, 1, 0])
    sol = solve_lp(model)
    assert sol.status == "optimal"
    point = np.concatenate([sol.y.ravel(), sol.z.ravel(), [sol.w]])
    for coeffs, rhs, _family in model.rows:
        assert sum(point[var] * coef for var, coef in coeffs) <= rhs + 1e-8
    assert np.all(point >= model.lower - 1e-8)
    assert np.all(point <= model.upper + 1e-8)


def test_greedy_allocation_frozen(i0_norm):
    assert greedy_allocation(i0_norm).owner.tolist() == [0, 0, 1]


def test_dca_from_efx_encoding_stops_immediately(i0_norm):
    res = enumerate_efx(i0_norm)
    y0 = encode_allocation(i0_norm, res.witnesses[0])
    out = dca_solve(i0_norm, y0=y0)
    assert out.efx
    assert out.objective <= 1e-9
    assert out.allocation.owner.tolist() == res.witnesses[0].owner.tolist()


def test_dca_default_start_solves_reference(i0_norm):
    out = dca_solve(i0_norm)
    assert out.converged
    assert out.status == "converged"
    assert out.efx
    assert out.objective <= 1e-9


def test_dca_objective_non_increasing():
    for seed in range(20):
        inst = normalize(random_instance(seed, 6, 3))
        rng = np.random.default_rng(seed + 500)
        y0 = rng.uniform(-1.0, 0.0, size=(6, 3))
        out = dca_solve(inst, y0=y0)
        objectives = [entry["objective"] for entry in out.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_dca_nonpositive_objective_implies_efx():
    hits = 0
    for seed in range(30):
        n = 2 + seed % 2
        inst = normalize(random_instance(seed, 5, n))
        out = dca_solve(inst)
        if out.objective <= 0.0:
            hits += 1
            assert out.efx
    assert hits > 0


def test_dca_rejects_bad_starts(i0_norm):
    with pytest.raises(ValueError):
        dca_solve(i0_norm, y0=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dca_solve(i0_norm, y0=np.full((3, 2), 1.0))  # above the box
    with pytest.raises(ValueError):
        dca_solve(i0_norm, y0=np.full((3, 2), -99.0))  # below the box


def test_internal_check_error_is_runtime_error():
    assert issubclass(InternalCheckError, RuntimeError)
