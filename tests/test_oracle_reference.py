"""The split-table oracle against the per-pair reference scan, and the
single-allocation check against the scan it shares its kernel with."""

import numpy as np
import pytest

import reference_oracle as ref
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
from efxkit import oracle
from efxkit.instance import DEFAULT_EFX_TOL, _envy_gaps, _worst_gap

CAPS = (0, 1, 64)
# Every m in 1..9 and every n in 2..5, up to 6561 owner vectors per scan.
SHAPES = [(m, n) for n in (2, 3, 4, 5) for m in range(1, 10) if n**m <= 3**8]


def _kinds(m: int, n: int, seed: int):
    """Uniform, integer with ties, identical, a zero column and signed zeros."""
    yield "uniform", random_instance(seed, m, n)
    for kmax in (1, 2):
        yield f"integer{kmax}", generate_instance(m, n, "integer", seed, kmax=kmax)
    yield "identical", generate_instance(m, n, "identical", seed)
    values = np.random.default_rng(seed).random((m, n))
    values[:, n - 1] = 0.0
    yield "zero-column", Instance(values)
    values = np.random.default_rng(seed + 1).random((m, n))
    values[np.random.default_rng(seed + 2).random((m, n)) < 0.4] = -0.0
    values[0, 0] = -0.0
    yield "negative-zero", Instance(values)


def _owners(result):
    return [w.owner.tolist() for w in result.witnesses]


@pytest.mark.parametrize("m, n", SHAPES)
def test_scan_matches_reference(m, n):
    rng = np.random.default_rng(100 * m + n)
    for kind, inst in _kinds(m, n, seed=10 * m + n):
        want_min = min(worst.min() for _, worst in ref._scan(inst, oracle.SCAN_GUARD))
        for cap in CAPS:
            got = enumerate_efx(inst, cap=cap)
            want = ref.enumerate_efx(inst, cap=cap)
            assert got.exists == want.exists, (kind, cap)
            assert got.witness_count == want.witness_count, (kind, cap)
            assert got.allocations_scanned == want.allocations_scanned
            assert _owners(got) == _owners(want), (kind, cap)
            assert (got.min_slack <= DEFAULT_EFX_TOL) == got.exists, (kind, cap)
            assert got.min_slack == pytest.approx(want_min, rel=0.0, abs=1e-12), (kind, cap)
        owners = rng.integers(0, n, size=(64, m))
        assert np.allclose(batch_efx_slack(inst, owners), ref.batch_efx_slack(inst, owners), rtol=0.0, atol=1e-12)
        for row in owners[:8]:
            # tol = -inf lists every pair's gap, empty bundles included
            pairs = is_efx(inst, Allocation(row), tol=-np.inf).violations
            want = [(i, j, gap[0]) for i, j, gap in ref._pair_gaps(inst, row[None, :])]
            assert [p[:2] for p in pairs] == [w[:2] for w in want]
            assert np.allclose([p[2] for p in pairs], [w[2] for w in want], rtol=0.0, atol=1e-12)
        if np.any(inst.values.sum(axis=0) == 0.0):
            continue  # the monotone objective needs every column normalized
        norm = normalize(inst)
        want_value, _ = ref.min_max_envy(norm)
        value = enumerate_efx(norm, cap=0).min_slack + 1.0
        assert value == pytest.approx(want_value, rel=0.0, abs=1e-12), kind


def _scanned(inst):
    """(owner row, worst gap) of every allocation, in scan order."""
    for prefix, suffix, worst in oracle._scan(inst, oracle.SCAN_GUARD):
        for a, row in enumerate(prefix):
            for b, rest in enumerate(suffix):
                yield np.concatenate([row, rest]), worst[a, b]


def _identity_instances():
    for seed in range(6):
        for m, n in ((5, 3), (4, 4), (7, 2), (3, 5)):
            yield random_instance(seed, m, n)
        yield generate_instance(6, 3, "integer", seed, kmax=2)


def test_scan_slack_is_efx_slack_bit_for_bit():
    for inst in _identity_instances():
        slacks = []
        for owner, worst in _scanned(inst):
            slacks.append(is_efx(inst, Allocation(owner)).slack)
            assert worst == slacks[-1]
        assert len(slacks) == inst.n**inst.m
        # the oracle's minimum is the smallest of them, bit for bit
        assert enumerate_efx(inst, cap=0).min_slack == min(slacks)


def test_min_max_envy_is_its_best_allocations_readout():
    # The reference min_max_envy is the monotone (gap + 1) form of the
    # oracle's min_slack; both are the readout of an allocation they scan.
    for inst in _identity_instances():
        norm = normalize(inst)
        value, best = ref.min_max_envy(norm)
        assert value == ref._worst_gap(norm, best.owner[None, :], monotone=True)[0]
        min_slack = enumerate_efx(norm, cap=0).min_slack
        assert min_slack + 1.0 == pytest.approx(value, rel=0.0, abs=1e-12)
        owner, worst = min(_scanned(norm), key=lambda item: item[1])
        assert min_slack == worst == is_efx(norm, Allocation(owner)).slack
        assert is_efx(norm, best).slack == pytest.approx(min_slack, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("block, table_cap", [(1, 0), (7, 0), (7, 1 << 20), (50, 40)])
def test_block_sizes_leave_results_unchanged(monkeypatch, block, table_cap):
    # Small blocks split the suffix rows into slices; a zero table cap
    # rebuilds both halves' tables for every block instead of slicing them.
    # Caps 0, 1 and 3 fill the witness list inside one block or across
    # several, after which the scan only counts.
    instances = [random_instance(3, 5, 3), generate_instance(6, 2, "integer", 4, kmax=1)]
    instances.append(generate_instance(4, 4, "identical", 5))
    caps = (0, 1, 3, 64)
    expected = [[enumerate_efx(inst, cap=cap) for cap in caps] for inst in instances]
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_TABLE_CAP", table_cap)
    for inst, scans in zip(instances, expected):
        for cap, scan in zip(caps, scans):
            got = enumerate_efx(inst, cap=cap)
            assert (got.witness_count, _owners(got)) == (scan.witness_count, _owners(scan)), cap
            assert got.min_slack == scan.min_slack


def test_blocks_of_several_prefix_rows_broadcast_only_the_prefix(monkeypatch):
    # A block of several prefix rows reads suffix tables already shaped
    # like its result, so only the prefix tables broadcast.  (8, 3) has 81
    # prefix rows at 67 per block, and (6, 4) 64 at 42, so each scan ends
    # on a partial block.
    heights = []

    def checked(prefix, suffix):
        got = _worst_gap(prefix, suffix)
        if got.shape[0] > 1:
            assert [table.shape[-2:] for table in suffix] == [got.shape] * 3
            heights.append(got.shape[0])
        return got

    monkeypatch.setattr(oracle, "_worst_gap", checked)
    for m, n in ((8, 3), (6, 4)):
        for kind, inst in _kinds(m, n, seed=m + n):
            want_min = min(worst.min() for _, worst in ref._scan(inst, oracle.SCAN_GUARD))
            for cap in CAPS:
                heights.clear()
                got = enumerate_efx(inst, cap=cap)
                want = ref.enumerate_efx(inst, cap=cap)
                assert heights == ([67, 14] if n == 3 else [42, 22]), (kind, cap)
                assert (got.witness_count, _owners(got)) == (want.witness_count, _owners(want)), (kind, cap)
                assert got.min_slack == pytest.approx(want_min, rel=0.0, abs=1e-12), (kind, cap)


@pytest.mark.parametrize("table_cap", [oracle._TABLE_CAP, 0])
def test_folded_worst_gap_is_the_pair_maximum_byte_for_byte(monkeypatch, table_cap):
    # The scan folds the rivals before adding the base term.  Comparing
    # bytes compares sign bits too, so a -0.0 against a 0.0 fails here.
    # The kinds hold ties, identical columns and signed zeros; every scan
    # has agents holding nothing, and m = 1 leaves the prefix empty.
    def checked(prefix, suffix):
        got = _worst_gap(prefix, suffix)
        assert got.tobytes() == _envy_gaps(prefix, suffix).max(axis=(0, 1)).tobytes()
        return got

    monkeypatch.setattr(oracle, "_worst_gap", checked)
    monkeypatch.setattr(oracle, "_BLOCK", 64)
    monkeypatch.setattr(oracle, "_TABLE_CAP", table_cap)
    for m, n in ((1, 2), (1, 4), (2, 3), (3, 4), (4, 3), (5, 2)):
        for kind, inst in _kinds(m, n, seed=m + n):
            enumerate_efx(inst, cap=0)
            batch_efx_slack(inst, np.random.default_rng(m).integers(0, n, size=(16, m)))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_single_item_with_empty_prefix(n):
    # m = 1 leaves the prefix half without items; its minima start at inf.
    inst = Instance(np.linspace(1.0, 2.0, n)[None, :])
    owners = np.arange(n)[:, None]
    assert np.array_equal(batch_efx_slack(inst, owners), ref.batch_efx_slack(inst, owners))
    for agent in range(n):
        report = is_efx(inst, Allocation([agent]))
        assert report.ok and report.slack == 0.0
        assert report.slack == is_efx(inst, Allocation([agent])).slack
    result = enumerate_efx(inst)
    assert (result.exists, result.witness_count) == (True, n)
    assert _owners(result) == [[agent] for agent in range(n)]
    assert result.min_slack == 0.0
    want_value, _ = ref.min_max_envy(normalize(inst))
    assert enumerate_efx(normalize(inst)).min_slack + 1.0 == pytest.approx(want_value, rel=0.0, abs=1e-12)
