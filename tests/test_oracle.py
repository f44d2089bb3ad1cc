"""Exhaustive scan oracle: existence, witnesses, and the exact envy minimum."""

import itertools

import numpy as np
import pytest

from conftest import random_instance
from efxkit import (
    Allocation,
    Instance,
    InstanceFormatError,
    OracleGuardError,
    batch_efx_slack,
    encode_allocation,
    enumerate_efx,
    is_efx,
    normalize,
)
from reference_setfun import max_envy_gap


def test_reference_instance_scan(i0_raw):
    res = enumerate_efx(i0_raw)
    assert res.exists
    assert res.allocations_scanned == 8
    assert res.witness_count == 2
    found = [w.owner.tolist() for w in res.witnesses]
    assert found == [[0, 0, 1], [0, 1, 1]]


def test_witness_cap_keeps_exact_count(i0_raw):
    res = enumerate_efx(i0_raw, cap=1)
    assert len(res.witnesses) == 1
    assert res.witness_count == 2
    assert res.witnesses[0].owner.tolist() == [0, 0, 1]
    assert enumerate_efx(i0_raw, cap=0).witness_count == 2


def test_single_item_always_solvable():
    for n in (2, 3, 4):
        inst = Instance(np.ones((1, n)))
        assert enumerate_efx(inst).exists


def test_two_agents_always_solvable():
    for seed in range(100):
        m = 2 + seed % 4
        inst = random_instance(seed, m, 2)
        assert enumerate_efx(inst).exists, f"seed {seed} found no EFX allocation"


def test_guard_rejects_oversized_scan():
    inst = random_instance(0, 4, 3)
    with pytest.raises(OracleGuardError):
        enumerate_efx(inst, guard=50)


def test_batch_slack_matches_scalar_exactly():
    for seed in range(10):
        inst = random_instance(seed, 4, 3)
        rng = np.random.default_rng(seed + 1000)
        owners = rng.integers(0, 3, size=(25, 4))
        batch = batch_efx_slack(inst, owners)
        for row, got in zip(owners, batch):
            assert got == is_efx(inst, Allocation(row)).slack


def test_scan_order_is_mixed_radix():
    # Item 0 is the most significant digit, so the all-EFX trivial
    # instance (a single zero-value column pair) streams witnesses in
    # plain counting order.
    inst = Instance([[0.0, 0.0], [0.0, 0.0]])
    res = enumerate_efx(inst, cap=64)
    expected = [list(t) for t in itertools.product(range(2), repeat=2)]
    assert [w.owner.tolist() for w in res.witnesses] == expected


def test_min_slack_frozen(i0_norm):
    # one plus the smallest slack is the smallest monotone worst envy gap
    value = enumerate_efx(i0_norm).min_slack + 1.0
    assert value == pytest.approx(0.75)
    # the split ({item 1}, {items 2, 3}) attains it
    assert max_envy_gap(i0_norm, Allocation(np.array([0, 1, 1]))) == pytest.approx(0.75)


def test_min_slack_threshold_matches_existence():
    for seed in range(30):
        n = 2 + seed % 2
        m = 2 + seed % 3
        result = enumerate_efx(normalize(random_instance(seed, m, n)))
        assert (result.min_slack + 1.0 <= 1.0 + 1e-9) == result.exists


@pytest.mark.parametrize(
    "owners",
    [[[2, 2, 2]], [[0, 1, 0], [-1, 0, 0]], [[0, 1]], [0, 1, 1]],
    ids=["agent-n", "agent-minus-one", "two-items", "flat"],
)
def test_batch_slack_rejects_rows_that_are_not_allocations(owners):
    # Each row must give the m items to agents 0..n-1, as is_efx and
    # encode_allocation demand.
    inst = Instance([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    with pytest.raises(InstanceFormatError):
        batch_efx_slack(inst, np.asarray(owners))
    if np.ndim(owners) == 2:
        with pytest.raises(InstanceFormatError):
            encode_allocation(inst, Allocation(owners[-1]))
