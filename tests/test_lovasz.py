"""Lovász extension, the continuous relaxation, and the reference threshold rounding."""

import itertools

import numpy as np
import pytest

from conftest import descend_to, random_instance, random_polytope_point
from efxkit import (
    Allocation,
    Instance,
    enumerate_efx,
    envy_gap_extension,
    generate_instance,
    in_partition_polytope,
    is_efx,
    lovasz,
    monotone_envy_gap_extension,
    normalize,
    project_rows_to_simplex,
    relaxation_objective,
    uniform_point,
)
from reference_lovasz import threshold_round
from reference_setfun import (
    bundle_value,
    envy_gap,
    lovasz_extension,
    max_envy_gap,
    monotone_envy_gap,
    reduced_value,
)


def _mask_items(mask, d):
    return [k for k in range(d) if mask >> k & 1]


def _pair_setfn(inst, i, j):
    """Envy gap (i, j) as a set function over the flat item-agent ground set.

    Ground-set bit k * n + a means item k is in agent a's set; the sets are
    unconstrained (they may overlap or miss items).
    """

    def setfn(mask):
        mine = [k for k in range(inst.m) if mask >> (k * inst.n + i) & 1]
        theirs = [k for k in range(inst.m) if mask >> (k * inst.n + j) & 1]
        return reduced_value(inst, i, theirs) - bundle_value(inst, i, mine)

    return setfn


def test_extension_matches_setfn_at_indicators_exactly():
    for seed in range(6):
        for n, m in ((2, 4), (3, 4)):
            inst = random_instance(seed, m, n)
            setfn = _pair_setfn(inst, 0, 1)
            d = m * n
            for mask in range(1 << d):
                indicator = np.zeros(d)
                for k in _mask_items(mask, d):
                    indicator[k] = 1.0
                assert lovasz_extension(setfn, indicator) == setfn(mask)


def test_extension_of_modular_function_is_linear():
    rng = np.random.default_rng(7)
    weights = rng.random(6)

    def setfn(mask):
        return float(sum(weights[k] for k in _mask_items(mask, 6)))

    for _ in range(50):
        x = rng.random(6)
        assert lovasz_extension(setfn, x) == pytest.approx(float(weights @ x), abs=1e-12)


def test_extension_frozen_value(i0_norm):
    # agent 1's reduced value on the item ground set, probed off the vertices
    def setfn(mask):
        return reduced_value(i0_norm, 0, _mask_items(mask, 3))

    assert lovasz_extension(setfn, np.array([0.6, 0.3, 0.1])) == pytest.approx(0.175)


def test_closed_form_matches_generic_extension():
    rng = np.random.default_rng(123)
    for seed in range(10):
        inst = normalize(random_instance(seed, 4, 2))
        setfn = _pair_setfn(inst, 0, 1)
        for _ in range(25):
            x = random_polytope_point(rng, 4, 2)
            flat = x.ravel()  # item-major layout matches the ground set
            assert envy_gap_extension(inst, 0, 1, x) == pytest.approx(
                lovasz_extension(setfn, flat), abs=1e-9
            )


def test_closed_form_agrees_with_gap_at_integral_points(i0_norm):
    for owners in itertools.product(range(2), repeat=3):
        alloc = Allocation(np.array(owners))
        x = np.zeros((3, 2))
        x[np.arange(3), owners] = 1.0
        for i, j in ((0, 1), (1, 0)):
            assert envy_gap_extension(i0_norm, i, j, x) == pytest.approx(
                envy_gap(i0_norm, i, j, alloc), abs=1e-12
            )
            assert monotone_envy_gap_extension(i0_norm, i, j, x) == pytest.approx(
                monotone_envy_gap(i0_norm, i, j, alloc), abs=1e-12
            )


def test_monotone_extension_exceeds_raw_by_one_on_polytope():
    rng = np.random.default_rng(5)
    for seed in range(10):
        inst = normalize(random_instance(seed, 4, 3))
        for _ in range(20):
            x = random_polytope_point(rng, 4, 3)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        raw = envy_gap_extension(inst, i, j, x)
                        mono = monotone_envy_gap_extension(inst, i, j, x)
                        assert mono == pytest.approx(raw + 1.0, abs=1e-10)


@pytest.mark.parametrize("readout", [envy_gap_extension, monotone_envy_gap_extension])
def test_pair_readouts_reject_agents_outside_the_instance(i0_norm, readout):
    # A negative agent must not wrap around to agent n - 1; the diagonal stays readable.
    x = uniform_point(i0_norm)
    for i, j in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match="must lie in 0..1"):
            readout(i0_norm, i, j, x)
    assert np.isfinite(readout(i0_norm, 1, 1, x))


def test_tie_heavy_vector_is_stable():
    inst = normalize(random_instance(3, 6, 2))
    setfn = _pair_setfn(inst, 0, 1)
    x = np.array([0.5, 0.5, 0.5, 0.25, 0.25, 0.0, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0])
    base = lovasz_extension(setfn, x)
    # nudging tied coordinates by one ulp must not move the value materially
    rng = np.random.default_rng(0)
    for _ in range(20):
        bumped = x + rng.integers(0, 2, size=x.size) * 1e-12
        assert lovasz_extension(setfn, bumped) == pytest.approx(base, abs=1e-9)


def test_relaxation_anchor_formula():
    for seed in range(100):
        n = 2 + seed % 2
        inst = normalize(random_instance(seed, 4, n))
        anchor = relaxation_objective(inst, uniform_point(inst))
        assert anchor == pytest.approx(1.0 - inst.values.min() / n, abs=1e-9)


def test_relaxation_anchor_frozen(i0_norm):
    assert relaxation_objective(i0_norm, uniform_point(i0_norm)) == pytest.approx(0.875)


def test_relaxation_requires_normalized(i0_raw):
    for inst in (i0_raw, random_instance(1, 5, 3)):
        with pytest.raises(ValueError, match="requires a normalized instance"):
            relaxation_objective(inst, uniform_point(inst))
        with pytest.raises(ValueError, match="requires a normalized instance"):
            next(lovasz.descend(inst, 0.5))


def test_relaxation_reads_normalization_off_the_values(i0_raw):
    # Columns that already sum to one are normalized, however the instance was built.
    inst = Instance([[0.5, 0.2], [0.5, 0.8]])
    want = normalize(inst)
    x = uniform_point(inst)
    assert relaxation_objective(inst, x) == relaxation_objective(want, x)
    assert next(lovasz.descend(inst, 0.5))[1] == next(lovasz.descend(want, 0.5))[1]
    with pytest.raises(ValueError, match="requires a normalized instance"):
        relaxation_objective(i0_raw, uniform_point(i0_raw))
    with pytest.raises(ValueError, match="requires a normalized instance"):
        next(lovasz.descend(i0_raw, 0.5))


def test_relaxation_not_convex_inside_polytope(capsys):
    # Frozen counterexample: the reduced value is not submodular at the
    # empty set, so the extension need not be convex.  On this 2x2 instance
    # the midpoint of two polytope vertices sits strictly above the chord.
    inst = normalize(Instance([[2.0, 1.0], [1.0, 1.0]]))
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    fx = relaxation_objective(inst, x)
    fy = relaxation_objective(inst, y)
    fmid = relaxation_objective(inst, 0.5 * (x + y))
    assert fx == pytest.approx(0.5)
    assert fy == pytest.approx(2.0 / 3.0)
    assert fmid == pytest.approx(5.0 / 6.0)
    assert fmid > 0.5 * (fx + fy) + 0.2

    # measure how often random midpoint probes violate the chord bound
    violations = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        probe = normalize(random_instance(seed, 4, 3))
        for _ in range(40):
            a = random_polytope_point(rng, 4, 3)
            b = random_polytope_point(rng, 4, 3)
            t = rng.random()
            lhs = relaxation_objective(probe, t * a + (1 - t) * b)
            rhs = t * relaxation_objective(probe, a) + (1 - t) * relaxation_objective(probe, b)
            total += 1
            violations += lhs > rhs + 1e-9
    with capsys.disabled():
        print(
            f"\n[lovasz] chord-bound violations on random probes: {violations}/{total} "
            "(the relaxation objective is genuinely nonconvex)"
        )
    assert violations > 0  # the frozen counterexample is not an isolated fluke


def test_projection_kkt_certificate():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.normal(0.0, 2.0, size=(5, 4))
        before = x.tobytes()
        p = project_rows_to_simplex(x)
        assert x.tobytes() == before  # the projection is a copy
        assert in_partition_polytope(p)
        shift = x - p
        for row in range(5):
            active = p[row] > 0
            taus = shift[row][active]
            tau = taus[0]
            assert np.allclose(taus, tau, atol=1e-9)  # equal shift on the support
            assert np.all(x[row][~active] <= tau + 1e-9)  # clipped entries below it


def test_projection_frozen_rows():
    p = project_rows_to_simplex(np.array([[2.0, 0.0], [0.5, 0.5], [1.2, 0.9]]))
    assert np.allclose(p, [[1.0, 0.0], [0.5, 0.5], [0.65, 0.35]])
    q = project_rows_to_simplex(np.array([[1.2, 0.9, -0.1]]))
    assert np.allclose(q, [[0.65, 0.35, 0.0]])


def test_minimize_descends_and_stays_feasible(i0_norm):
    best_x, best, trace = descend_to(i0_norm, 500, 0.5)
    assert best <= trace[0]
    assert best == pytest.approx(min(trace))
    assert best <= 0.875 + 1e-6
    assert in_partition_polytope(best_x)
    assert relaxation_objective(i0_norm, best_x) == pytest.approx(best)


def test_minimize_is_deterministic(i0_norm):
    a = descend_to(i0_norm, 120, 0.5)
    b = descend_to(i0_norm, 120, 0.5)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


@pytest.mark.parametrize("step0", [0.0, -0.5, np.nan, np.inf])
def test_minimize_rejects_a_step_that_is_not_positive_and_finite(i0_norm, step0):
    with pytest.raises(ValueError, match="step0"):
        next(lovasz.descend(i0_norm, step0))


def test_descend_starts_at_the_uniform_point(i0_norm):
    step, value, best_x, best_value = next(lovasz.descend(i0_norm, 0.5))
    start = uniform_point(i0_norm)
    objective = relaxation_objective(i0_norm, start)
    assert (step, value, best_value) == (0, objective, objective)
    assert best_x.tobytes() == start.tobytes()


def test_descend_never_writes_a_yielded_point_again():
    for inst in (
        generate_instance(6, 3, "integer", 0),
        random_instance(1, 16, 5),
        random_instance(2, 24, 6),
        generate_instance(5, 3, "identical", 3),
    ):
        yielded = []
        for step, _, best_x, _ in lovasz.descend(normalize(inst), 1.0):
            yielded.append((best_x, best_x.tobytes()))
            if step == 300:
                break
        assert all(x.tobytes() == snapshot for x, snapshot in yielded)


def test_minimize_identical_agents_meets_threshold():
    values = np.tile(np.array([[3.0], [2.0], [1.0]]), (1, 3))
    inst = normalize(Instance(values))
    _, best, _ = descend_to(inst, 400, 0.5)
    assert best <= 1.0 + 1e-9


def test_relaxation_value_sandwich():
    # best-found fractional value sits below the exact integral minimum,
    # up to descent slack, and the integral minimum is reachable from any
    # EFX witness the oracle returns
    for seed in (0, 1, 2):
        inst = normalize(random_instance(seed, 4, 2))
        _, best, _ = descend_to(inst, 1500, 0.5)
        res = enumerate_efx(inst)
        value = res.min_slack + 1.0  # the monotone form's exact minimum
        assert best <= value + 0.05
        if res.exists:
            assert value <= 1.0 + 1e-9
            assert max_envy_gap(inst, res.witnesses[0]) >= value - 1e-12


def test_threshold_round_recovers_integral_points():
    x = np.zeros((4, 3))
    x[np.arange(4), [0, 2, 1, 0]] = 1.0
    for seed in range(50):
        # agent 0 holds items 0 and 3, agent 1 item 2, agent 2 item 1: a partition
        assert threshold_round(x, seed) == [[0, 3], [2], [1]]


def test_threshold_round_uniform_inclusion_rate():
    x = np.full((3, 2), 0.5)
    hits = np.zeros(2)
    joint = 0
    trials = 10_000
    for seed in range(trials):
        sets = threshold_round(x, seed)
        included = [0 in sets[i] for i in range(2)]
        hits += included
        joint += all(included)
    rates = hits / trials
    assert np.all(np.abs(rates - 0.5) < 0.02)
    # columns draw independent thresholds
    se = np.sqrt(0.25 * 0.75 / trials)
    assert abs(joint / trials - 0.25) < 3 * se + 0.01


def test_threshold_round_mean_matches_extension(i0_norm):
    rng = np.random.default_rng(42)
    x = random_polytope_point(rng, 3, 2)
    closed = envy_gap_extension(i0_norm, 0, 1, x)
    samples = []
    for seed in range(10_000):
        sets = threshold_round(x, seed)
        samples.append(reduced_value(i0_norm, 0, sets[1]) - bundle_value(i0_norm, 0, sets[0]))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - closed) <= 3 * se


def test_efx_witness_scores_at_most_one():
    for seed in range(20):
        inst = normalize(random_instance(seed, 4, 2))
        res = enumerate_efx(inst)
        assert res.exists
        x = np.zeros((4, 2))
        x[np.arange(4), res.witnesses[0].owner] = 1.0
        assert relaxation_objective(inst, x) <= 1.0 + 1e-9
        assert is_efx(inst, res.witnesses[0]).slack <= 1e-9


def test_partition_polytope_entries_are_nonnegative_exactly():
    # The row sums and the upper bound keep their tolerance; the lower bound has none.
    assert in_partition_polytope(np.array([[1.0 + 1e-11, 0.0], [0.5, 0.5]]))
    assert not in_partition_polytope(np.array([[1.0 + 1e-11, -1e-11], [0.5, 0.5]]))
    assert not in_partition_polytope(np.array([[1.0, -5e-324], [0.5, 0.5]]))
