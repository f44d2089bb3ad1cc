"""Clamp maps, their fixed points, and the damped Picard driver."""

import itertools

import numpy as np
import pytest

from conftest import poison_gain, random_instance
from efxkit import (
    Allocation,
    Instance,
    SelfMapViolation,
    batch_efx_slack,
    box_radius,
    clamp_map,
    constraint_slacks,
    dc_objective,
    encode_allocation,
    extract_allocation,
    generate_instance,
    normalize,
    picard_iterate_many,
    rowmax_clamp_map,
    smooth_clamp_map,
    stuck_row_diagnostics,
    total_mass,
    transfer_gain,
    verify_constraints,
)
from efxkit.fixedpoint import MAPS, _clamp_step
from test_layout import _agents_major, _tied_stack


def _encode_efx(i0_norm):
    return encode_allocation(i0_norm, Allocation(np.array([0, 1, 1])))


def test_transfer_gain_frozen(i0_norm):
    gain = transfer_gain(i0_norm, _encode_efx(i0_norm))
    assert gain[0, 1] == pytest.approx(0.5)
    assert gain[1, 1] == pytest.approx(-0.25)
    assert gain[0, 0] == pytest.approx(-0.75)


def test_transfer_gain_zero_values():
    inst = Instance(np.zeros((3, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.uniform(-4, 0, size=(3, 2))
        assert np.all(transfer_gain(inst, y) == 0.0)
        # with no values to move, every point is already clamped
        assert np.array_equal(clamp_map(inst, y), y)


def test_transfer_gain_bounded_by_total_mass():
    for seed in range(8):
        inst = random_instance(seed, 5, 3)
        mass = float(inst.values.sum())
        box = box_radius(inst)
        rng = np.random.default_rng(seed + 40)
        points = [rng.uniform(-box, 0, size=(5, 3)) for _ in range(1200)]
        points.append(np.zeros((5, 3)))
        points.append(np.full((5, 3), -box))
        points += [
            np.where(rng.random((5, 3)) < 0.5, 0.0, -box) for _ in range(40)
        ]
        for y in points:
            assert np.abs(transfer_gain(inst, y)).max() <= mass


def test_slack_identity_matches_objective():
    rng = np.random.default_rng(14)
    for seed in range(10):
        inst = random_instance(seed, 4, 3)
        for _ in range(20):
            y = rng.normal(-1, 2, size=(4, 3))
            slack, _ = verify_constraints(inst, y)
            assert slack == pytest.approx(dc_objective(inst, y), abs=1e-12)
            assert constraint_slacks(inst, y).max() == pytest.approx(slack, abs=0)


def test_slack_frozen_at_encodings(i0_norm):
    slack, violations = verify_constraints(i0_norm, _encode_efx(i0_norm))
    assert slack == pytest.approx(-0.25)
    assert violations == []
    bad = encode_allocation(i0_norm, Allocation(np.array([1, 1, 1])))
    slack, violations = verify_constraints(i0_norm, bad)
    assert slack > 0
    assert violations


def test_clamp_entries_frozen(i0_norm):
    y = _encode_efx(i0_norm)
    image = clamp_map(i0_norm, y)
    assert image[0, 1] == -5.0  # min(-5, 0 - 0.5)
    assert image[1, 1] == 0.0  # min(0, 0 + 0.25)
    assert np.array_equal(image, y)


def test_clamp_fixed_iff_feasible_exhaustive():
    for seed in range(4):
        for n, m in ((2, 4), (3, 3)):
            inst = random_instance(seed, m, n)
            for owners in itertools.product(range(n), repeat=m):
                y = encode_allocation(inst, Allocation(np.array(owners)))
                fixed = np.array_equal(clamp_map(inst, y), y)
                slack, _ = verify_constraints(inst, y)
                assert fixed == (slack <= 0.0)


def test_clamp_fixed_iff_feasible_random():
    rng = np.random.default_rng(3)
    for seed in range(6):
        inst = random_instance(seed, 4, 3)
        for _ in range(30):
            y = rng.normal(-2, 2, size=(4, 3))
            fixed = np.array_equal(clamp_map(inst, y), y)
            slack, _ = verify_constraints(inst, y)
            assert fixed == (slack <= 0.0)


def test_encodings_of_efx_are_fixed_for_all_maps(i0_norm):
    y = _encode_efx(i0_norm)
    assert np.array_equal(clamp_map(i0_norm, y), y)
    assert np.array_equal(rowmax_clamp_map(i0_norm, y), y)
    assert np.array_equal(smooth_clamp_map(i0_norm, y), y)


def test_boxed_maps_lower_negative_rowmax(i0_norm):
    y = np.array([[-0.5, -2.0], [0.0, -1.0], [-1.0, 0.0]])
    # rows with strictly negative maxima get shifted up to zero first
    for map_fn in (rowmax_clamp_map, smooth_clamp_map):
        image = map_fn(i0_norm, y)
        assert np.all(image <= 0.0)
        assert image[0].max() <= 0.0
        assert np.all(image[0] >= y[0] - 1e-12)  # the stuck row moves up


def test_smooth_map_at_deep_corner(i0_norm):
    radius = box_radius(i0_norm)
    y = np.full((3, 2), -radius)
    image = smooth_clamp_map(i0_norm, y)
    mass = 2.0
    assert np.all(image <= 0.0)
    assert np.all(image >= -mass * np.exp(-radius))


def test_zero_values_reach_fixed_point_fast():
    inst = Instance(np.zeros((4, 3)))
    rng = np.random.default_rng(1)
    # With no mass the box is [-1, 0].
    y0 = rng.uniform(-box_radius(inst), 0, size=(4, 3))
    report = picard_iterate_many(inst, [y0], "Ttilde", alpha=1.0)[0]
    assert report.converged
    assert report.iterations <= 2
    assert report.residual <= 1e-12


def test_smooth_map_self_map_random():
    # T-tilde keeps its box at the default radius and at the smallest the
    # box rule accepts, where the map's step checks the escape on the
    # agents-by-items base: one matrix at a time, on stacks of either
    # layout, and on rows tied at zeros of either sign or at the box's edge.
    for seed in range(6):
        for inst in (
            random_instance(seed, 4, 3),
            generate_instance(4, 3, "integer", seed, kmax=1),
            generate_instance(4, 3, "integer", seed),
            generate_instance(4, 3, "identical", seed),
        ):
            rng = np.random.default_rng(seed + 7)
            edge = np.nextafter(2 * total_mass(inst), np.inf)
            step = _clamp_step(inst, "Ttilde", edge)
            for box, smooth in (
                (box_radius(inst), lambda y: smooth_clamp_map(inst, y)),
                (edge, lambda y: step(np.swapaxes(y, -1, -2))),
            ):
                points = rng.uniform(-box, 0, size=(200, 4, 3))
                tied = _tied_stack(rng, 4, 3) * (box / 4)
                for y in (*points, points, _agents_major(points), tied, _agents_major(tied)):
                    image = smooth(y)  # raises on any escape
                    assert image.min() >= -box and image.max() <= 0.0


def test_smooth_map_violation_raised(i0_norm, monkeypatch):
    # A poisoned gain pushes the image below the box; the message prints
    # the escaping coordinate's value as a plain float.
    box = box_radius(i0_norm)
    y = np.zeros((3, 2))
    poison = 2.0 * box * np.exp(box)
    image = -(transfer_gain(i0_norm, y) + poison)
    poison_gain(monkeypatch, [y], poison)
    with pytest.raises(SelfMapViolation) as caught:
        smooth_clamp_map(i0_norm, y)
    k, j = np.unravel_index(int(np.argmin(image)), image.shape)
    value = float(image[k, j])
    assert str(caught.value) == f"image coordinate ({k}, {j}) = {value!r} left the box [-{box}, 0]"
    assert repr(value) in str(caught.value) and "np." not in str(caught.value)


def test_maps_reject_points_outside_box(i0_norm):
    with pytest.raises(ValueError):
        rowmax_clamp_map(i0_norm, np.full((3, 2), 0.25))
    with pytest.raises(ValueError):
        smooth_clamp_map(i0_norm, np.full((3, 2), -99.0))
    with pytest.raises(ValueError):
        smooth_clamp_map(i0_norm, np.full((3, 2), np.nan))


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_picard_rejects_a_start_of_the_wrong_shape(map_name):
    # A one-row start would broadcast across the four items.
    inst = random_instance(0, 4, 3)
    for shape in ((1, 3), (4, 1), (3, 4)):
        with pytest.raises(ValueError, match="items-by-agents"):
            picard_iterate_many(inst, [np.full(shape, -1.0)], map_name)


def test_picard_checks_only_the_shape_of_a_start_for_map_T():
    # Map T is unboxed, so a start above the box is a valid point for it.
    inst = random_instance(0, 4, 3)
    y0 = np.ones((4, 3))
    assert picard_iterate_many(inst, [y0], "T", max_iters=2)[0].iterations <= 2
    with pytest.raises(ValueError, match="box"):
        picard_iterate_many(inst, [y0], "Ttilde", max_iters=2)


def test_score_readouts_reject_a_matrix_wider_than_the_agents(i0_raw):
    # The extra columns would otherwise be scored as agents the instance lacks.
    encoded = encode_allocation(i0_raw, Allocation(np.array([0, 0, 1])))
    wide = np.hstack([encoded, np.zeros((3, 1))])
    five = generate_instance(5, 3, "uniform01", 1)
    square = np.random.default_rng(1).uniform(-1.0, 0.0, (5, 5))
    readouts = (dc_objective, transfer_gain, constraint_slacks, verify_constraints, stuck_row_diagnostics)
    for inst, y in ((i0_raw, wide), (five, square)):
        for readout in (*readouts, *MAPS.values()):
            with pytest.raises(ValueError, match=r"scores must be an items-by-agents matrix of shape \(\d, \d\)"):
                readout(inst, y)


def test_extraction_round_trip():
    for seed in range(4):
        for n, m in ((2, 4), (3, 3)):
            inst = random_instance(seed, m, n)
            for owners in itertools.product(range(n), repeat=m):
                y = encode_allocation(inst, Allocation(np.array(owners)))
                assert extract_allocation(y).owner.tolist() == list(owners)


def test_finite_difference_slopes_bounded():
    # Both maps are piecewise smooth with max-norm slope at most
    # 2m + total mass: row maxima and pair-shift maxima move 1-to-1,
    # the transfer gain sums 2-Lipschitz terms over m - 1 items, and
    # the exponential weight adds at most the mass itself.
    rng = np.random.default_rng(23)
    for seed in range(5):
        inst = random_instance(seed, 4, 3)
        box = box_radius(inst)
        bound = 2 * inst.m + float(inst.values.sum())
        for _ in range(100):
            y = rng.uniform(-box, 0, size=(4, 3))
            d = rng.uniform(-0.05, 0.05, size=(4, 3))
            other = np.clip(y + d, -box, 0.0)
            denom = np.abs(other - y).max()
            if denom == 0.0:
                continue
            for map_fn in (
                lambda a: clamp_map(inst, a),
                lambda a: smooth_clamp_map(inst, a),
            ):
                ratio = np.abs(map_fn(other) - map_fn(y)).max() / denom
                assert ratio <= bound + 1e-6


def test_stuck_row_diagnostics_shape(i0_norm):
    assert stuck_row_diagnostics(i0_norm, _encode_efx(i0_norm)) == []
    y = np.array([[-0.5, -2.0], [0.0, -1.0], [-1.0, 0.0]])
    rows = stuck_row_diagnostics(i0_norm, y)
    assert [r["item"] for r in rows] == [0]
    row = rows[0]
    assert row["rowmax"] == pytest.approx(-0.5)
    assert row["log_mass_bound"] == pytest.approx(np.log1p(2.0))
    assert row["within_log_bound"]
    # Every entry of a stuck row sits below the negative row maximum, so
    # none of them is ever close enough to zero to be skipped.
    residuals = [e for e in row["entries"] if not e["skipped"]]
    assert len(residuals) == 2
    expected = abs(np.exp(0.5) + transfer_gain(i0_norm, y)[0, 0] / (-0.5))
    assert residuals[0]["residual"] == pytest.approx(expected)


def test_stuck_rows_require_negative_rowmax(i0_norm):
    y = np.array([[-0.5, 0.0], [0.0, -1.0], [-1.0, 0.0]])
    assert stuck_row_diagnostics(i0_norm, y) == []
    tiny = np.array([[-1e-12, -0.5], [0.0, -1.0], [-1.0, 0.0]])
    # a row maximum within the tolerance of zero does not count as stuck
    assert stuck_row_diagnostics(i0_norm, tiny) == []


def test_picard_default_start_solves_reference(i0_norm):
    report = picard_iterate_many(i0_norm, [None])[0]
    assert report.converged
    assert report.iterations == 0
    assert report.residual == 0.0
    assert report.efx
    assert report.constraint_slack <= 0.0
    assert report.allocation.owner.tolist() == [0, 0, 1]


def test_picard_is_deterministic(i0_norm):
    rng = np.random.default_rng(9)
    y0 = rng.uniform(-5, 0, size=(3, 2))
    a = picard_iterate_many(i0_norm, [y0.copy()], "Ttilde", max_iters=50)[0]
    b = picard_iterate_many(i0_norm, [y0.copy()], "Ttilde", max_iters=50)[0]
    assert np.array_equal(a.y, b.y)
    assert a.residual == b.residual and a.iterations == b.iterations


def test_picard_iteration_cap_is_graceful():
    inst = normalize(random_instance(2, 5, 3))
    rng = np.random.default_rng(31)
    y0 = rng.uniform(-box_radius(inst), 0, size=(5, 3))
    report = picard_iterate_many(inst, [y0], "Ttilde", max_iters=1)[0]
    assert report.iterations <= 1
    assert np.isfinite(report.residual)
    assert report.allocation.owner.size == 5


def test_picard_rejects_bad_arguments(i0_norm):
    with pytest.raises(ValueError):
        picard_iterate_many(i0_norm, [None], "nope")
    with pytest.raises(ValueError):
        picard_iterate_many(i0_norm, [None], alpha=0.0)
    with pytest.raises(ValueError):
        picard_iterate_many(i0_norm, [None], alpha=1.5)
    with pytest.raises(ValueError, match="iteration cap"):
        picard_iterate_many(i0_norm, [None], max_iters=-1)
    assert sorted(MAPS) == ["T", "Tprime", "Ttilde"]


def test_converged_runs_harness(capsys):
    """Survey damped runs from random starts; report, do not assume.

    Converged fixed points of the smooth map are not guaranteed to satisfy
    the clamp constraints: rows whose maxima settle strictly below zero
    solve a rigid exponential equation instead.  The counts below are
    evidence either way and the acceptance suite pins the strict claim.
    """
    converged = 0
    violating = 0
    efx_hits = 0
    for seed in range(50):
        inst = normalize(random_instance(seed, 5, 3))
        rng = np.random.default_rng(seed + 9000)
        y0 = rng.uniform(-box_radius(inst), 0.0, size=(5, 3))
        report = picard_iterate_many(inst, [y0], "Ttilde")[0]
        if report.converged:
            converged += 1
            if report.constraint_slack > 1e-6:
                violating += 1
                assert report.stuck_rows  # violations come from stuck rows
        if report.efx:
            efx_hits += 1
        slacks = batch_efx_slack(inst, report.allocation.owner[None, :])
        assert report.efx == bool(slacks[0] <= 1e-9)
    with capsys.disabled():
        print(
            f"\n[fixedpoint] 50 random starts: converged {converged}, "
            f"constraint-violating fixed points {violating}, efx extractions {efx_hits}"
        )
    assert converged > 0
