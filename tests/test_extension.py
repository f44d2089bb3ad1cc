"""Row-wise rounding, the smooth envy bound, and its piecewise-linear limit."""

import numpy as np
import pytest

from conftest import random_instance, random_polytope_point
from efxkit import (
    Allocation,
    Instance,
    batch_efx_slack,
    box_radius,
    build_lp,
    dc_objective,
    encode_allocation,
    enumerate_efx,
    envy_gap_extension,
    is_efx,
    monotone_envy_gap_extension,
    normalize,
    picard_iterate_many,
    relaxation_objective,
    rounding_bound,
    rowwise_round_many,
    softmax_map,
)
from reference_setfun import bundle_value, reduced_value


def test_rowwise_round_integral_is_degenerate():
    x = np.zeros((4, 3))
    x[np.arange(4), [2, 0, 1, 2]] = 1.0
    for seed in range(50):
        assert rowwise_round_many(x, seed, 1)[0].tolist() == [2, 0, 1, 2]


def test_rowwise_round_marginals_and_independence():
    x = np.full((3, 2), 0.5)
    owners = rowwise_round_many(x, seed=0, count=10_000)
    marginals = (owners == 0).mean(axis=0)
    assert np.all(np.abs(marginals - 0.5) < 0.02)
    # distinct rows round independently: indicator covariance near zero
    a = (owners[:, 0] == 0).astype(float)
    b = (owners[:, 1] == 0).astype(float)
    cov = ((a - a.mean()) * (b - b.mean())).mean()
    se = 0.25 / np.sqrt(owners.shape[0])
    assert abs(cov) < 3 * se


def test_rowwise_round_many_matches_scalar():
    rng = np.random.default_rng(9)
    x = random_polytope_point(rng, 4, 3)
    batch = rowwise_round_many(x, seed=77, count=5)
    assert batch.shape == (5, 4)
    assert rowwise_round_many(x, 77, 1)[0].tolist() == batch[0].tolist()


def test_softmax_rows_frozen():
    x = softmax_map(np.array([[0.0, -5.0]]), lam=1.0)
    assert x[0, 0] == pytest.approx(0.99331, abs=5e-6)
    assert x[0, 1] == pytest.approx(0.00669, abs=5e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    exact = 0
    rows = 0
    for lam in (0.5, 1.0, 10.0, 200.0):
        for _ in range(50):
            y = rng.normal(0, 4, size=(6, 3))
            x = softmax_map(y, lam)
            assert np.all(x >= 0)
            sums = x.sum(axis=1)
            # never worse than one ulp, and bit-exact almost always
            assert np.all(np.abs(sums - 1.0) <= np.finfo(float).eps)
            exact += int((sums == 1.0).sum())
            rows += sums.size
    assert exact >= 0.99 * rows


def test_softmax_constant_row_is_uniform():
    x = softmax_map(np.full((2, 4), -3.25), lam=7.0)
    assert np.allclose(x, 0.25)
    with pytest.raises(ValueError):
        softmax_map(np.zeros((1, 2)), lam=0.0)


def test_objective_frozen_at_encoding(i0_norm):
    y = encode_allocation(i0_norm, Allocation(np.array([0, 1, 1])))
    expected_rows = [[0.0, -5.0], [-5.0, 0.0], [-5.0, 0.0]]
    assert y.tolist() == expected_rows
    assert dc_objective(i0_norm, y) == pytest.approx(-0.25)


def test_objective_zero_matrix_identical_values():
    c = 0.7
    inst = Instance(np.full((4, 3), c))
    assert dc_objective(inst, np.zeros((4, 3))) == pytest.approx((4 - 1) * c)


def test_objective_row_shift_invariance():
    rng = np.random.default_rng(21)
    for seed in range(10):
        inst = random_instance(seed, 4, 3)
        y = rng.normal(0, 3, size=(4, 3))
        shifts = rng.normal(0, 5, size=(4, 1))
        assert dc_objective(inst, y + shifts) == pytest.approx(
            dc_objective(inst, y), abs=1e-9
        )


def test_objective_sign_matches_slack_at_encodings():
    for seed in range(6):
        for n, m in ((2, 4), (3, 3)):
            inst = random_instance(seed, m, n)
            codes = np.arange(n**m)
            owners = np.zeros((codes.size, m), dtype=int)
            rest = codes.copy()
            for k in range(m - 1, -1, -1):
                owners[:, k] = rest % n
                rest //= n
            slacks = batch_efx_slack(inst, owners)
            for row, slack in zip(owners, slacks):
                y = encode_allocation(inst, Allocation(row))
                assert dc_objective(inst, y) == pytest.approx(slack, abs=1e-9)


def test_default_box_bound(i0_raw, i0_norm):
    assert box_radius(i0_raw) == pytest.approx(25.0)
    assert box_radius(i0_norm) == pytest.approx(5.0)


def test_default_radius_obeys_the_rule_it_checks():
    # Twice the total mass is above 2**53, where adding one rounds back to it.
    big = Instance([[1e16, 1.0], [2.0, 1.0], [2.0, 2.0]])
    calls = (
        lambda: box_radius(big),
        lambda: encode_allocation(big, Allocation(np.array([0, 1, 1]))),
        lambda: build_lp(big),
        lambda: picard_iterate_many(big, [None])[0],
    )
    for call in calls:
        with pytest.raises(ValueError, match="overflows the float range or does not exceed twice the mass"):
            call()


def test_softmax_of_encoding_is_near_integral(i0_norm):
    lam = 4.0
    radius = box_radius(i0_norm)
    alloc = Allocation(np.array([0, 1, 1]))
    y = encode_allocation(i0_norm, alloc)
    x = softmax_map(y, lam)
    integral = np.zeros((3, 2))
    integral[np.arange(3), alloc.owner] = 1.0
    assert np.max(np.abs(x - integral)) < i0_norm.n * np.exp(-lam * radius)


def test_bound_at_efx_allocations():
    for seed in range(10):
        inst = normalize(random_instance(seed, 4, 2))
        res = enumerate_efx(inst)
        assert res.exists
        x = np.zeros((4, 2))
        x[np.arange(4), res.witnesses[0].owner] = 1.0
        for lam in (1.0, 10.0, 100.0, 1000.0):
            assert rounding_bound(inst, x, lam) <= np.log(2 * 4) / lam + 1e-9
    with pytest.raises(ValueError):
        rounding_bound(inst, x, 0.0)


def test_rounding_bound_rejects_a_point_of_the_wrong_shape(i0_norm):
    # Too few columns would compare only some agents; too many index past them.
    # The Lovász readouts take their point through the same shape rule.
    five = normalize(random_instance(1, 5, 3))
    readouts = (
        lambda inst, x: rounding_bound(inst, x, 1.0),
        lambda inst, x: envy_gap_extension(inst, 0, 1, x),
        lambda inst, x: monotone_envy_gap_extension(inst, 0, 1, x),
        relaxation_objective,
    )
    for inst, shape in ((five, (5, 2)), (five, (5, 4)), (five, (4, 3)), (five, (6, 3)), (i0_norm, (2, 2))):
        x = np.full(shape, 1.0 / shape[1])
        for readout in readouts:
            with pytest.raises(ValueError, match=r"must be an items-by-agents matrix of shape \(\d, \d\)"):
                readout(inst, x)


def test_bound_cross_checked_against_direct_product(i0_norm):
    # direct (non-log-space) evaluation is safe at small temperature
    lam = 10.0
    rng = np.random.default_rng(8)
    x = random_polytope_point(rng, 3, 2)
    values = i0_norm.values
    outer = 0.0
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            for k in range(3):
                prod = x[k, j]
                for ell in range(3):
                    if ell == k:
                        continue
                    v = values[ell, i]
                    prod *= (
                        1.0
                        - x[ell, i]
                        - x[ell, j]
                        + x[ell, i] * np.exp(-lam * v)
                        + x[ell, j] * np.exp(lam * v)
                    )
                outer += prod
    direct = np.log(outer) / lam
    assert rounding_bound(i0_norm, x, lam) == pytest.approx(direct, abs=1e-10)


def test_bound_dominates_sampled_envy():
    rng = np.random.default_rng(17)
    for trial in range(4):
        inst = normalize(random_instance(trial, 4, 2))
        x = random_polytope_point(rng, 4, 2)
        owners = rowwise_round_many(x, seed=trial, count=10_000)
        samples = np.empty(owners.shape[0])
        for row, owner_row in enumerate(owners):
            samples[row] = max(
                reduced_value(inst, i, np.flatnonzero(owner_row == j))
                - bundle_value(inst, i, np.flatnonzero(owner_row == i))
                for i in range(2)
                for j in range(2)
                if i != j
            )
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        for lam in (1.0, 5.0, 10.0):
            assert samples.mean() <= rounding_bound(inst, x, lam) + 3 * se


def _limit_gaps(inst, y, lams):
    """Gaps between the smooth bound along the softmax path and the
    piecewise-linear objective, one per temperature."""
    f = dc_objective(inst, y)
    return [abs(rounding_bound(inst, softmax_map(y, lam), lam) - f) for lam in lams]


def test_limit_gaps_shrink(i0_norm):
    rng = np.random.default_rng(2)
    y = rng.normal(-1.0, 1.0, size=(3, 2))
    gaps = _limit_gaps(i0_norm, y, (1.0, 10.0, 100.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_limit_gaps_constant_rows(i0_norm):
    gaps = _limit_gaps(i0_norm, np.zeros((3, 2)), (1.0, 10.0, 100.0, 1000.0))
    assert gaps[-1] < 5e-3


def test_limit_gap_envelope_at_encoding(i0_norm):
    alloc = Allocation(np.array([0, 1, 1]))
    y = encode_allocation(i0_norm, alloc)
    f = dc_objective(i0_norm, y)
    assert is_efx(i0_norm, alloc).slack == pytest.approx(f, abs=1e-12)
    lam = 1000.0
    gap = _limit_gaps(i0_norm, y, (lam,))[0]
    assert gap <= np.log(i0_norm.n * i0_norm.m) / lam + abs(f) + 1e-9
