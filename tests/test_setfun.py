"""Bundle values, reduced values, and the pairwise envy gaps."""

import itertools

import numpy as np
import pytest

from conftest import random_instance
from efxkit import (
    Allocation,
    Instance,
    batch_efx_slack,
    enumerate_efx,
    generate_instance,
    is_efx,
    normalize,
)
from reference_setfun import bundle_value, envy_gap, max_envy_gap, monotone_envy_gap, reduced_value


def test_reduced_value_frozen(i0_norm):
    assert reduced_value(i0_norm, 0, [0, 1]) == pytest.approx(0.5)
    assert reduced_value(i0_norm, 0, []) == 0.0
    assert reduced_value(i0_norm, 0, [2]) == 0.0  # singleton: sum minus itself
    assert bundle_value(i0_norm, 1, [1, 2]) == pytest.approx(0.75)


def test_envy_gaps_frozen(i0_norm):
    alloc = Allocation(np.array([0, 1, 1]))
    assert envy_gap(i0_norm, 0, 1, alloc) == pytest.approx(-0.25)
    assert envy_gap(i0_norm, 1, 0, alloc) == pytest.approx(-0.75)
    assert monotone_envy_gap(i0_norm, 0, 1, alloc) == pytest.approx(0.75)
    assert max_envy_gap(i0_norm, alloc) == pytest.approx(0.75)  # monotone form


def test_monotone_requires_normalized(i0_raw):
    alloc = Allocation(np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        monotone_envy_gap(i0_raw, 0, 1, alloc)
    # raw instances fall back to the raw gap in the auto mode
    assert max_envy_gap(i0_raw, alloc) == pytest.approx(
        max(envy_gap(i0_raw, 0, 1, alloc), envy_gap(i0_raw, 1, 0, alloc))
    )


def test_monotone_exceeds_raw_by_one_on_partitions():
    for seed in range(20):
        inst = normalize(random_instance(seed, 5, 3))
        rng = np.random.default_rng(seed)
        alloc = Allocation(rng.integers(0, 3, size=5))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                raw = envy_gap(inst, i, j, alloc)
                mono = monotone_envy_gap(inst, i, j, alloc)
                assert mono == pytest.approx(raw + 1.0, abs=1e-12)


def _diminishing_returns(inst, agent, m):
    """Marginals shrink as the base set grows, over nonempty bases.

    The reduced value's marginal for a new item equals max(item value,
    current bundle minimum), which can only fall as the bundle grows.  The
    empty set sits outside this regime: its marginals are identically zero,
    strictly below the later ones, so the nonempty domain is where the
    diminishing-returns property genuinely lives.
    """
    items = list(range(m))
    for size in range(1, m - 1):
        for base in itertools.combinations(items, size):
            rest = [e for e in items if e not in base]
            for a, b in itertools.combinations(rest, 2):
                fa = reduced_value(inst, agent, list(base) + [a])
                fb = reduced_value(inst, agent, list(base) + [b])
                fab = reduced_value(inst, agent, list(base) + [a, b])
                f0 = reduced_value(inst, agent, list(base))
                if fa + fb < fab + f0 - 1e-12:
                    return False
    return True


def test_reduced_value_diminishing_returns_on_nonempty_sets():
    for seed in range(8):
        for n in (2, 3):
            inst = random_instance(seed, 5, n)
            for agent in range(n):
                assert _diminishing_returns(inst, agent, 5)


def test_reduced_value_empty_set_breaks_submodularity():
    # Singletons reduce to zero, so the marginal at the empty set is 0,
    # strictly below the marginal at any nonempty set.  The text-book
    # submodularity inequality with S = empty therefore fails whenever
    # an agent holds two positively valued items.
    inst = Instance([[4.0, 1.0], [2.0, 1.0]])
    f_a = reduced_value(inst, 0, [0])
    f_b = reduced_value(inst, 0, [1])
    f_ab = reduced_value(inst, 0, [0, 1])
    assert f_a == 0.0 and f_b == 0.0
    assert f_ab == pytest.approx(4.0)  # max(4, 2): rules out f_a + f_b >= f_ab


def _small_instances():
    for seed in range(8):
        yield random_instance(seed, 4, 3)
    for seed in range(4):
        for kmax in (1, 2):
            yield generate_instance(4, 3, "integer", seed, kmax=kmax)
        yield generate_instance(4, 3, "identical", seed)


def test_efx_iff_all_gaps_nonpositive():
    for inst in _small_instances():
        all_owners = np.array(list(itertools.product(range(3), repeat=4)))
        batch = batch_efx_slack(inst, all_owners)
        for row, owners in enumerate(all_owners):
            alloc = Allocation(owners)
            gaps = [
                envy_gap(inst, i, j, alloc)
                for i in range(3)
                for j in range(3)
                if i != j
            ]
            assert (max(gaps) <= 0) == bool(is_efx(inst, alloc, tol=0.0))
            assert max(gaps) == pytest.approx(is_efx(inst, alloc).slack, abs=1e-12)
            assert max(gaps) == pytest.approx(batch[row], abs=1e-12)
        norm = normalize(inst)
        monotone = [max_envy_gap(norm, Allocation(owners)) for owners in all_owners]
        value = enumerate_efx(norm).min_slack + 1.0
        assert value == pytest.approx(min(monotone), abs=1e-12)
