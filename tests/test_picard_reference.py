"""The stacked Picard driver against the one-start reference loop, byte for
byte, and the order in which it reports an escape from the box."""

import numpy as np
import pytest

import reference_picard as ref
from conftest import random_instance
from efxkit import (
    SelfMapViolation,
    box_radius,
    encode_allocation,
    enumerate_efx,
    generate_instance,
    normalize,
    picard_iterate,
    picard_iterate_many,
    smooth_clamp_map,
)
from efxkit.fixedpoint import MAPS

# Shapes (items, agents) from n = 2 to the (10,5) shape of the bench; the
# oracle supplies an EFX start where its scan is quick.
SHAPES = ((6, 2), (5, 3), (4, 4), (6, 5), (10, 5))
ORACLE_SCAN_LIMIT = 10**5


def _instances(m: int, n: int):
    yield normalize(random_instance(m + n, m, n))
    yield normalize(generate_instance(m, n, "integer", n, kmax=1))
    yield normalize(generate_instance(m, n, "integer", n, kmax=2))
    yield normalize(generate_instance(m, n, "identical", n))


def _starts(inst, count: int, map_name: str) -> list:
    """The greedy start, an EFX encoding when the oracle finds one, then
    ``count`` uniform starts in the box and, for map T, which takes any
    start of the right shape, ``count`` more uniform in [-3M, M]."""
    encodings = []
    if inst.n**inst.m <= ORACLE_SCAN_LIMIT:
        encodings = [encode_allocation(inst, alloc) for alloc in enumerate_efx(inst, cap=1).witnesses]
    box = box_radius(inst)
    rng = np.random.default_rng(inst.m * inst.n)
    starts = [None, *encodings, *rng.uniform(-box, 0.0, size=(count, inst.m, inst.n))]
    if map_name == "T":
        starts += list(rng.uniform(-3 * box, box, size=(count, inst.m, inst.n)))
    return starts


def _fingerprint(report) -> str:
    """Every field of a report; repr tells apart every distinct float."""
    return repr(
        (
            report.map_name,
            report.converged,
            report.iterations,
            report.residual,
            report.constraint_slack,
            report.violations,
            report.allocation.owner.tobytes(),
            report.efx,
            report.stuck_rows,
            report.y.tobytes(),
            report.y.shape,
            report.y.dtype,
        )
    )


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_stacked_picard_matches_one_start_reference_exactly(map_name):
    ends = set()
    for m, n in SHAPES:
        for inst in _instances(m, n):
            starts = _starts(inst, 3, map_name)
            for max_iters in (12, 300):
                reports = picard_iterate_many(inst, starts, map_name, max_iters=max_iters)
                assert len(reports) == len(starts)
                for y0, report in zip(starts, reports):
                    expected = ref.picard_iterate(inst, map_name, y0=y0, max_iters=max_iters)
                    assert _fingerprint(report) == _fingerprint(expected)
                    ends.add("cap" if report.iterations == max_iters and not report.converged else report.iterations)
    # The stacks held starts that stop at once, at different steps and at the cap.
    assert 0 in ends and "cap" in ends
    assert len(ends - {0, "cap"}) >= 2


def test_one_start_is_the_stack_of_one(i0_norm):
    y0 = np.random.default_rng(3).uniform(-box_radius(i0_norm), 0.0, size=(3, 2))
    for start in (None, y0):
        one = picard_iterate(i0_norm, "Ttilde", y0=start, max_iters=40)
        assert _fingerprint(one) == _fingerprint(picard_iterate_many(i0_norm, [start], "Ttilde", max_iters=40)[0])
    assert picard_iterate_many(i0_norm, []) == []


def _iterates(monkeypatch, inst, y0, steps: int) -> list[bytes]:
    """The points a one-start run hands the smooth map, step by step."""
    seen = []

    def recording(inst_, y, m_const):
        seen.append(y[0].tobytes())
        return smooth_clamp_map(inst_, y, m_const)

    monkeypatch.setitem(MAPS, "Ttilde", recording)
    picard_iterate_many(inst, [y0], max_iters=steps, tol=0.0)
    monkeypatch.setitem(MAPS, "Ttilde", smooth_clamp_map)
    return seen


def test_the_lowest_escaping_start_raises(monkeypatch):
    inst = normalize(random_instance(4, 6, 3))
    starts = list(np.random.default_rng(8).uniform(-box_radius(inst), 0.0, size=(5, 6, 3)))
    # Start 3 escapes at step 2, start 1 later, at step 5.
    poisoned = {
        _iterates(monkeypatch, inst, starts[3], 8)[2]: "start 3 escaped",
        _iterates(monkeypatch, inst, starts[1], 8)[5]: "start 1 escaped",
    }
    assert len(poisoned) == 2
    calls = []

    def escaping(inst_, y, m_const):
        stack = y if y.ndim == 3 else y[None]
        calls.append(len(stack))
        for index, point in enumerate(stack):
            if point.tobytes() in poisoned:
                raise SelfMapViolation(poisoned[point.tobytes()], index if y.ndim == 3 else None)
        return smooth_clamp_map(inst_, y, m_const)

    monkeypatch.setitem(MAPS, "Ttilde", escaping)
    # One start at a time, start 1 is the first to escape.
    with pytest.raises(SelfMapViolation) as sequential:
        for y0 in starts:
            ref.picard_iterate(inst, "Ttilde", y0=y0)
    assert str(sequential.value) == "start 1 escaped"

    calls.clear()
    with pytest.raises(SelfMapViolation, match="^start 1 escaped$"):
        picard_iterate_many(inst, starts)
    # Start 3 left at step 2 and took start 4 with it; start 1 left at step
    # 5 with starts 2 and 3, so only start 0 is stepped after that.
    assert calls[:3] == [5, 5, 5] and calls[3:6] == [3, 3, 3] and calls[6:8] == [3, 1]
    assert set(calls[8:]) == {1}

    del poisoned[next(key for key, text in poisoned.items() if text == "start 1 escaped")]
    with pytest.raises(SelfMapViolation, match="^start 3 escaped$"):
        picard_iterate_many(inst, starts)
