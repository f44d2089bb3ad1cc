"""Acceptance suite: twelve go/no-go checks, one printed verdict line each.

Every test prints "[NN] <what was checked>: PASS|FAIL" with the measured
counts, then asserts.  The checks are oracle-anchored properties at desk
scale (2 to 3 agents, up to 6 items), not benchmarks.  Criterion 11 is an
evidence harness for an open claim about the smooth clamp map: converged
runs that violate the clamp constraints are archived for manual review in
tests/artifacts/criterion11_findings.json and fail the suite.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance, random_polytope_point
from efxkit import (
    Allocation,
    batch_efx_slack,
    box_radius,
    build_lp,
    clamp_map,
    dc_objective,
    dca_solve,
    encode_allocation,
    enumerate_efx,
    envy_gap_extension,
    is_efx,
    normalize,
    picard_iterate_many,
    relaxation_objective,
    rounding_bound,
    rowwise_round_many,
    smooth_clamp_map,
    transfer_gain,
    uniform_point,
)
from efxkit.simplex import phase_one, phase_two
from reference_lp import random_bounded_lp, vertex_minimize
from reference_setfun import bundle_value, envy_gap, lovasz_extension, reduced_value

ARTIFACTS = Path(__file__).parent / "artifacts"


def _verdict(capsys, num: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed: {label}"


def _pair_setfn(inst, i, j):
    """Envy gap (i, j) as a set function over item-agent ground-set bits."""

    def setfn(mask):
        mine = [k for k in range(inst.m) if mask >> (k * inst.n + i) & 1]
        theirs = [k for k in range(inst.m) if mask >> (k * inst.n + j) & 1]
        return reduced_value(inst, i, theirs) - bundle_value(inst, i, mine)

    return setfn


def _indicator(owners, n):
    x = np.zeros((len(owners), n))
    x[np.arange(len(owners)), owners] = 1.0
    return x


def test_01_extension_agreement(capsys):
    indicator_misses = 0
    closed_form_worst = 0.0
    points = 0
    for seed in range(50):
        m = 2 + seed % 3
        inst = random_instance(seed, m, 2)
        rng = np.random.default_rng(seed + 300)
        pair_fns = {(i, j): _pair_setfn(inst, i, j) for i in range(2) for j in range(2) if i != j}
        for owners in itertools.product(range(2), repeat=m):
            flat = _indicator(owners, 2).ravel()
            alloc = Allocation(np.array(owners))
            for (i, j), setfn in pair_fns.items():
                if lovasz_extension(setfn, flat) != envy_gap(inst, i, j, alloc):
                    indicator_misses += 1
        for _ in range(20):
            x = random_polytope_point(rng, m, 2)
            for (i, j), setfn in pair_fns.items():
                gap = abs(lovasz_extension(setfn, x.ravel()) - envy_gap_extension(inst, i, j, x))
                closed_form_worst = max(closed_form_worst, gap)
                points += 1
    ok = indicator_misses == 0 and closed_form_worst <= 1e-9
    _verdict(
        capsys,
        1,
        f"extension equals the envy gap exactly at every indicator "
        f"({indicator_misses} misses) and the closed form matches the "
        f"generic form on {points} interior points (worst {closed_form_worst:.2e}, tol 1e-9)",
        ok,
    )


def test_02_uniform_point_anchor(capsys):
    worst = 0.0
    for seed in range(100):
        inst = normalize(random_instance(seed, 2 + seed % 5, 2 + seed % 2))
        predicted = 1.0 - inst.values.min() / inst.n
        got = relaxation_objective(inst, uniform_point(inst))
        worst = max(worst, abs(got - predicted))
    ok = worst <= 1e-9
    _verdict(
        capsys,
        2,
        "relaxation at the uniform point equals one minus the smallest value "
        f"over the agent count on 100 instances (worst gap {worst:.2e}, tol 1e-9)",
        ok,
    )


def test_03_diminishing_returns_and_envy_characterization(capsys):
    quartet_violations = 0
    quartets = 0
    mismatches = 0
    allocations = 0
    for n in (2, 3):
        for m in (2, 3, 4, 5):
            for seed in range(2):
                inst = random_instance(seed + 10 * m, m, n)
                # diminishing returns of the reduced value on nonempty sets:
                # adding an item helps less once another item is present
                for agent in range(n):
                    for size in range(1, m - 1):
                        for base in itertools.combinations(range(m), size):
                            rest = [k for k in range(m) if k not in base]
                            for a, b in itertools.combinations(rest, 2):
                                fa = reduced_value(inst, agent, list(base) + [a])
                                fb = reduced_value(inst, agent, list(base) + [b])
                                fab = reduced_value(inst, agent, list(base) + [a, b])
                                f0 = reduced_value(inst, agent, list(base))
                                quartets += 1
                                if fa + fb < fab + f0 - 1e-12:
                                    quartet_violations += 1
                # every owner vector partitions the items, so EFX must agree
                # with all pairwise envy gaps being nonpositive
                for owners in itertools.product(range(n), repeat=m):
                    alloc = Allocation(np.array(owners))
                    gaps_ok = all(
                        envy_gap(inst, i, j, alloc) <= 0.0
                        for i in range(n)
                        for j in range(n)
                        if i != j
                    )
                    allocations += 1
                    if is_efx(inst, alloc, 0.0).ok != gaps_ok:
                        mismatches += 1
    ok = quartet_violations == 0 and mismatches == 0
    _verdict(
        capsys,
        3,
        f"reduced value has diminishing returns on nonempty sets ({quartets} quartets, "
        f"{quartet_violations} violations) and EFX holds iff every envy gap is "
        f"nonpositive ({allocations} allocations, {mismatches} mismatches)",
        ok,
    )


def test_04_witness_bound_decay(capsys):
    lams = (1.0, 10.0, 100.0, 1000.0)
    checked = 0
    violations = 0
    for seed in range(50):
        n = 2 + seed % 2
        m = 3 + seed % 4
        inst = normalize(random_instance(seed, m, n))
        result = enumerate_efx(inst)
        for witness in result.witnesses:
            x = _indicator(witness.owner, n)
            for lam in lams:
                checked += 1
                if rounding_bound(inst, x, lam) > np.log(n * m) / lam + 1e-9:
                    violations += 1
    ok = violations == 0 and checked > 0
    _verdict(
        capsys,
        4,
        f"smooth bound at every oracle witness stays below log(nm)/lambda "
        f"({checked} witness-lambda pairs over 50 instances, {violations} violations)",
        ok,
    )


def test_05_sampled_envy_below_bound(capsys):
    failures = 0
    checks = 0
    count = 10**4
    for seed in range(20):
        n = 2 + seed % 2
        m = 4 + seed % 2
        inst = normalize(random_instance(seed + 70, m, n))
        rng = np.random.default_rng(seed + 900)
        x = random_polytope_point(rng, m, n)
        owners = rowwise_round_many(x, seed + 40, count)
        slacks = batch_efx_slack(inst, owners)
        mean = float(slacks.mean())
        sem = float(slacks.std(ddof=1) / np.sqrt(count))
        for lam in (1.0, 5.0, 10.0):
            checks += 1
            if mean > rounding_bound(inst, x, lam) + 3.0 * sem:
                failures += 1
    ok = failures == 0
    _verdict(
        capsys,
        5,
        f"mean sampled envy over {count} row-wise roundings stays below the smooth "
        f"bound plus three standard errors ({checks} pair-lambda checks, {failures} failures)",
        ok,
    )


def test_06_objective_sign_at_encodings(capsys):
    worst = 0.0
    sign_mismatches = 0
    encodings = 0
    for n in (2, 3):
        for m in (2, 3, 4):
            for seed in range(3):
                inst = random_instance(seed + 20 * m, m, n)
                for owners in itertools.product(range(n), repeat=m):
                    alloc = Allocation(np.array(owners))
                    value = dc_objective(inst, encode_allocation(inst, alloc))
                    slack = is_efx(inst, alloc).slack
                    worst = max(worst, abs(value - slack))
                    encodings += 1
                    if (value <= 0.0) != is_efx(inst, alloc, 0.0).ok:
                        sign_mismatches += 1
    ok = worst <= 1e-12 and sign_mismatches == 0
    _verdict(
        capsys,
        6,
        f"existence objective at encodings equals the EFX slack ({encodings} encodings, "
        f"worst gap {worst:.2e}, tol 1e-12) with exact sign agreement "
        f"({sign_mismatches} mismatches)",
        ok,
    )


def test_07_clamp_fixedness_at_encodings(capsys):
    mismatches = 0
    encodings = 0
    for n in (2, 3):
        for m in (2, 3, 4):
            for seed in range(3):
                inst = random_instance(seed + 30 * m, m, n)
                for owners in itertools.product(range(n), repeat=m):
                    alloc = Allocation(np.array(owners))
                    y = encode_allocation(inst, alloc)
                    fixed = np.array_equal(clamp_map(inst, y), y)
                    encodings += 1
                    if fixed != (is_efx(inst, alloc).slack <= 0.0):
                        mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys,
        7,
        f"clamp map fixes an encoding exactly when the allocation is EFX "
        f"({encodings} encodings, {mismatches} mismatches)",
        ok,
    )


@pytest.fixture(scope="module")
def box_sweep():
    """Shared random sweep of the score box used by criteria 8 and 9."""
    shapes = [(2, 4), (3, 5), (2, 6), (3, 4), (3, 3)]
    gain_violations = 0
    box_violations = 0
    points = 0
    for idx, (n, m) in enumerate(shapes):
        inst = normalize(random_instance(idx, m, n))
        mass = float(inst.values.sum())
        box = box_radius(inst)
        # One stacked draw of the 10**4 points gives the same points as
        # 10**4 draws of one matrix each, and the kernels map a stack
        # matrix by matrix.
        y = np.random.default_rng(5000 + idx).uniform(-box, 0.0, size=(10**4, m, n))
        one_by_one = np.random.default_rng(5000 + idx)
        assert np.array_equal(y, [one_by_one.uniform(-box, 0.0, size=(m, n)) for _ in range(10**4)])
        gain_violations += int((np.abs(transfer_gain(inst, y)).max(axis=(1, 2)) > mass).sum())
        image = smooth_clamp_map(inst, y, box)
        box_violations += int(((image.max(axis=(1, 2)) > 0.0) | (image.min(axis=(1, 2)) < -box)).sum())
        points += len(y)
    return {
        "points": points,
        "instances": len(shapes),
        "gain_violations": gain_violations,
        "box_violations": box_violations,
    }


def test_08_transfer_gain_mass_bound(capsys, box_sweep):
    ok = box_sweep["gain_violations"] == 0
    _verdict(
        capsys,
        8,
        f"transfer gain stays within the total mass on {box_sweep['points']} random "
        f"box points across {box_sweep['instances']} instances "
        f"({box_sweep['gain_violations']} violations, exact inequality)",
        ok,
    )


def test_09_smooth_map_box_invariance(capsys, box_sweep):
    ok = box_sweep["box_violations"] == 0
    _verdict(
        capsys,
        9,
        f"smooth clamp map keeps every image inside the box on {box_sweep['points']} "
        f"random points ({box_sweep['box_violations']} escapes, exact bounds)",
        ok,
    )


def test_10_descent_monotone_and_sound(capsys):
    descent_breaks = 0
    unsound = 0
    nonpositive_runs = 0
    for seed in range(100):
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = normalize(random_instance(seed + 200, m, n))
        rng = np.random.default_rng(seed + 4000)
        y0 = rng.uniform(-box_radius(inst), 0.0, size=(m, n))
        result = dca_solve(build_lp(inst), y0=y0)
        objectives = [entry["objective"] for entry in result.trace]
        if any(b > a + 1e-9 for a, b in zip(objectives, objectives[1:])):
            descent_breaks += 1
        if result.objective <= 0.0:
            nonpositive_runs += 1
            if not result.efx:
                unsound += 1
    ok = descent_breaks == 0 and unsound == 0
    _verdict(
        capsys,
        10,
        f"LP descent objectives never increase over 100 runs ({descent_breaks} breaks, "
        f"slack 1e-9) and all {nonpositive_runs} runs ending at or below zero "
        f"extract EFX allocations ({unsound} unsound)",
        ok,
    )


def test_11_converged_fixed_points_meet_constraints(capsys):
    """Evidence harness for the open claim that every converged fixed point
    of the smooth clamp map satisfies the clamp constraints.

    Violating runs are archived with enough detail for manual review; any
    violation fails the suite rather than being filtered away.
    """
    runs = 200
    converged = 0
    skipped = 0
    findings = []
    for seed in range(runs):
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = normalize(random_instance(seed + 1000, m, n))
        if not enumerate_efx(inst, cap=1).exists:
            skipped += 1
            continue
        rng = np.random.default_rng(seed + 6000)
        y0 = rng.uniform(-box_radius(inst), 0.0, size=(m, n))
        report = picard_iterate_many(inst, [y0], "Ttilde")[0]
        if not report.converged:
            continue
        converged += 1
        if report.constraint_slack > 1e-6 or not report.efx:
            findings.append(
                {
                    "seed": seed,
                    "items": m,
                    "agents": n,
                    "residual": report.residual,
                    "constraint_slack": report.constraint_slack,
                    "efx_extraction": report.efx,
                    "stuck_row_maxima": [row["rowmax"] for row in report.stuck_rows],
                    "values": inst.values.tolist() if len(findings) < 5 else None,
                }
            )
    ARTIFACTS.mkdir(exist_ok=True)
    archive = {
        "config": {
            "map": "Ttilde",
            "alpha": 0.5,
            "residual_tol": 1e-8,
            "slack_tol": 1e-6,
            "max_iters": 1000,
            "runs": runs,
        },
        "oracle_confirmed_runs": runs - skipped,
        "converged_runs": converged,
        "violating_runs": len(findings),
        "findings": findings,
    }
    (ARTIFACTS / "criterion11_findings.json").write_text(json.dumps(archive, indent=2) + "\n")
    ok = converged > 0 and not findings
    _verdict(
        capsys,
        11,
        f"every converged smooth-map run satisfies the clamp constraints and extracts "
        f"EFX ({converged} of {runs - skipped} runs converged, {len(findings)} violations "
        f"archived in tests/artifacts/criterion11_findings.json)",
        ok,
    )


def test_12_simplex_matches_vertex_oracle(capsys):
    worst = 0.0
    status_mismatches = 0
    for seed in range(20):
        n_vars = 3 + seed % 4
        n_rows = 4 + seed % 5
        c, a_ub, b_ub = random_bounded_lp(seed, n_vars, n_rows)
        res = phase_two(c, phase_one(a_ub, b_ub))
        ref_status, _, ref_objective = vertex_minimize(c, a_ub, b_ub)
        if res.status != ref_status:
            status_mismatches += 1
        elif res.status == "optimal":
            worst = max(worst, abs(res.objective - ref_objective))
    ok = status_mismatches == 0 and worst <= 1e-8
    _verdict(
        capsys,
        12,
        f"embedded simplex agrees with exhaustive vertex enumeration on 20 random "
        f"models of up to 6 variables ({status_mismatches} status mismatches, "
        f"worst objective gap {worst:.2e}, tol 1e-8)",
        ok,
    )
