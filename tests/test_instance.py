"""Instance documents, allocations, normalization, and the EFX check."""

import json

import numpy as np
import pytest

from conftest import descend_to, random_instance
from efxkit import (
    Allocation,
    Instance,
    InstanceFormatError,
    ZeroColumnError,
    allocation_to_doc,
    generate_instance,
    instance_to_doc,
    is_efx,
    load_allocation,
    load_instance,
    normalize,
    total_mass,
)
from efxkit.instance import _ordered_pairs

SEEDS = range(25)


@pytest.mark.parametrize("n", range(2, 7))
def test_ordered_pairs_match_a_brute_force_enumeration(n):
    pairs, bystanders, rivals = _ordered_pairs(n)
    expected = [(i, j) for i in range(n) for j in range(n) if i != j]
    assert list(zip(*pairs.tolist())) == expected
    assert bystanders.shape == (n - 2, len(expected))
    for p, (i, j) in enumerate(expected):
        assert bystanders[:, p].tolist() == [r for r in range(n) if r not in (i, j)]
    assert rivals.shape == (n - 1, n)
    for j in range(n):
        assert rivals[:, j].tolist() == [expected.index((i, j)) for i in range(n) if i != j]
    for array in (pairs, bystanders, rivals):
        assert not array.flags.writeable
    assert _ordered_pairs(n)[0] is pairs


def test_shape_validation():
    with pytest.raises(InstanceFormatError):
        Instance([1.0, 2.0])
    with pytest.raises(InstanceFormatError):
        Instance(np.zeros((0, 2)))
    with pytest.raises(InstanceFormatError):
        Instance([[1.0], [2.0]])  # one agent


def test_value_validation_reports_location():
    with pytest.raises(InstanceFormatError, match=r"\[1\]\[0\]"):
        Instance([[1.0, 2.0], [-0.5, 1.0]])
    with pytest.raises(InstanceFormatError):
        Instance([[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(InstanceFormatError):
        Instance([[np.inf, 1.0], [1.0, 1.0]])


def test_normalized_flag_is_checked():
    with pytest.raises(InstanceFormatError):
        Instance(np.array([[0.5, 0.2], [0.4, 0.2]]), normalized=True)
    Instance(np.array([[0.5, 0.2], [0.5, 0.8]]), normalized=True)


def test_load_instance_roundtrip(tmp_path, i0_raw):
    doc = instance_to_doc(i0_raw)
    assert doc["m"] == 3 and doc["n"] == 2
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    loaded = load_instance(path)
    assert np.array_equal(loaded.values, i0_raw.values)


def test_load_instance_errors(tmp_path):
    with pytest.raises(InstanceFormatError):
        load_instance({"m": 2, "n": 2})
    with pytest.raises(InstanceFormatError, match=r"\[0\]\[1\]"):
        load_instance({"m": 1, "n": 2, "values": [[1.0, "x"]]})
    with pytest.raises(InstanceFormatError):
        load_instance({"m": 2, "n": 2, "values": [[1.0, 1.0]]})  # m mismatch
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(bad)
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "missing.json")


def test_values_are_stored_c_ordered():
    # The Lovász descent's sums follow the memory layout, so a Fortran-ordered
    # input gives the same floats only once it is stored in C order.
    values = np.random.default_rng(5).random((9, 4))
    fortran = Instance(np.asfortranarray(values))
    assert fortran.values.flags.c_contiguous
    want = descend_to(normalize(Instance(values)), 500, 0.5)
    got = descend_to(normalize(fortran), 500, 0.5)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def test_total_mass_and_normalize(i0_raw):
    mass = total_mass(i0_raw)
    assert isinstance(mass, float) and mass == 12.0
    norm = normalize(i0_raw)
    assert norm.normalized
    expected = np.array([[0.5, 0.25], [0.25, 0.25], [0.25, 0.5]])
    assert np.allclose(norm.values, expected, atol=1e-15)


def test_normalize_zero_column_raises():
    inst = Instance([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ZeroColumnError) as err:
        normalize(inst)
    assert err.value.agents == [1]


def test_efx_slack_frozen(i0_raw, i0_norm):
    alloc = Allocation(np.array([0, 0, 1]))
    assert is_efx(i0_raw, alloc).slack == pytest.approx(-1.0)
    assert is_efx(i0_norm, alloc).slack == pytest.approx(-0.25)
    report = is_efx(i0_norm, alloc)
    assert report.ok and bool(report)
    assert report.violations == []


def test_efx_violation_reported(i0_norm):
    alloc = Allocation(np.array([1, 1, 1]))  # agent 1 gets everything
    report = is_efx(i0_norm, alloc)
    assert not report.ok
    # agent 0 envies agent 1 even after dropping the best single item
    pairs = [(i, j) for i, j, _ in report.violations]
    assert (0, 1) in pairs
    assert report.slack > 0


def test_empty_bundle_never_envied(i0_norm):
    # an empty bundle has reduced value zero, so owning nothing is safe
    alloc = Allocation(np.array([0, 0, 0]))
    report = is_efx(i0_norm, alloc)
    assert all(j != 1 for _, j, _ in report.violations)


def test_allocation_validation(i0_raw):
    with pytest.raises(InstanceFormatError):
        is_efx(i0_raw, Allocation(np.array([0, 1]))).slack
    with pytest.raises(InstanceFormatError):
        is_efx(i0_raw, Allocation(np.array([0, 1, 2]))).slack
    with pytest.raises(InstanceFormatError, match="flat item -> agent vector"):
        Allocation(np.zeros((2, 3), dtype=int))


def test_load_allocation_one_based(i0_raw):
    alloc = load_allocation({"owner": [1, 1, 2]}, i0_raw)
    assert list(alloc.owner) == [0, 0, 1]
    assert allocation_to_doc(alloc) == {"owner": [1, 1, 2]}
    for bad in ({"owner": [0, 1, 2]}, {"owner": [1, 1]}, {"owner": [1, 1, True]}, {}):
        with pytest.raises(InstanceFormatError):
            load_allocation(bad, i0_raw)


def test_rescaling_preserves_efx_verdicts():
    # per-agent rescaling multiplies each pair slack by a positive factor,
    # so the verdict never changes; integer values keep the check exact
    for seed in SEEDS:
        inst = random_instance(seed, 4, 2, "integer")
        norm = normalize(inst)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            alloc = Allocation(rng.integers(0, 2, size=4))
            raw_ok = is_efx(inst, alloc).slack <= 0
            norm_ok = is_efx(norm, alloc).slack <= 1e-12
            assert raw_ok == norm_ok


def test_generate_instance_determinism_and_ranges():
    a = generate_instance(4, 3, "uniform01", seed=11)
    b = generate_instance(4, 3, "uniform01", seed=11)
    assert np.array_equal(a.values, b.values)
    assert a.values.min() > 0.0 and a.values.max() < 1.0

    ints = generate_instance(5, 2, "integer", seed=3, kmax=6)
    assert ints.values.min() >= 1 and ints.values.max() <= 6
    assert np.array_equal(ints.values, ints.values.astype(int))

    same = generate_instance(4, 3, "identical", seed=9)
    for col in range(1, 3):
        assert np.array_equal(same.values[:, col], same.values[:, 0])


def test_generate_instance_bad_dist():
    with pytest.raises(ValueError):
        generate_instance(3, 2, "gaussian", seed=0)
