"""The stacked Picard driver against the one-start reference loop, byte for
byte, the step at which it reports an escape from the box, and the clip that
keeps every step's input inside it."""

import numpy as np
import pytest

import reference_picard as ref
from conftest import poison_gain, random_instance
from efxkit import (
    Allocation,
    SelfMapViolation,
    box_radius,
    encode_allocation,
    enumerate_efx,
    generate_instance,
    normalize,
    picard_iterate_many,
    smooth_clamp_map,
    total_mass,
)
from efxkit import fixedpoint
from efxkit.extension import greedy_allocation
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
    assert picard_iterate_many(inst, [], map_name) == []


def _iterates(monkeypatch, inst, y0, steps: int) -> list[bytes]:
    """The points a one-start run hands its step, step by step, as the
    bytes of (m, n) matrices."""
    seen = []
    build = fixedpoint._clamp_step

    def recording(*args):
        step = build(*args)

        def recorded(yt):
            seen.append(yt[0].T.tobytes())
            return step(yt)

        return recorded

    monkeypatch.setattr(fixedpoint, "_clamp_step", recording)
    picard_iterate_many(inst, [y0], max_iters=steps, tol=0.0)
    monkeypatch.setattr(fixedpoint, "_clamp_step", build)
    return seen


def test_the_lowest_escaping_start_raises(monkeypatch):
    # The smooth map's box check raises at the step an escape happens, for
    # the lowest start escaping there, however many would escape later.
    inst = normalize(random_instance(4, 6, 3))
    box = box_radius(inst)
    starts = list(np.random.default_rng(8).uniform(-box, 0.0, size=(5, 6, 3)))
    # Starts 3 and 4 escape at step 2; start 1, lower in the stack, at step 5.
    poisoned = {_iterates(monkeypatch, inst, starts[s], 8)[step]: s for s, step in ((3, 2), (4, 2), (1, 5))}
    assert len(poisoned) == 3
    # -gain * exp(h) < -box for every row maximum h >= -box.
    calls = poison_gain(monkeypatch, [np.frombuffer(point).reshape(6, 3) for point in poisoned], 2.0 * box * np.exp(box))
    escapes = {}
    for point, s in poisoned.items():
        with pytest.raises(SelfMapViolation) as alone:
            smooth_clamp_map(inst, np.frombuffer(point).reshape(6, 3), box)
        escapes[s] = str(alone.value)
    assert len(set(escapes.values())) == 3

    calls.clear()
    with pytest.raises(SelfMapViolation) as stacked:
        picard_iterate_many(inst, starts)
    assert str(stacked.value) == escapes[3]
    # Steps 0-2 map all five starts; nothing is mapped after the escape.
    assert calls == [5, 5, 5]


def test_the_clip_keeps_every_step_input_in_the_box(monkeypatch):
    # The boxed maps check each start's box once; every later step input is
    # a damped update clipped to [-M, 0], even after an image below the box.
    build = fixedpoint._clamp_step
    inputs, images = [], []

    def checking(inst_, map_name, m_const):
        step = build(inst_, map_name, m_const)

        def checked(yt):
            inputs.append(bool(yt.max(initial=-np.inf) <= 0.0 and yt.min(initial=0.0) >= -m_const))
            image = step(yt)
            images.append(float(image.min(initial=0.0)) / m_const)
            return image

        return checked

    monkeypatch.setattr(fixedpoint, "_clamp_step", checking)
    for m, n in ((6, 3), (5, 4)):
        inst = normalize(random_instance(m * n, m, n))
        rng = np.random.default_rng(m * n)
        for radius in (None, np.nextafter(2.0 * total_mass(inst), np.inf)):
            box = box_radius(inst, radius)
            encodings = [encode_allocation(inst, Allocation(owner), radius) for owner in rng.integers(0, n, size=(2, m))]
            starts = [None, *encodings, *rng.uniform(-box, 0.0, size=(3, m, n))]
            for map_name in ("Tprime", "Ttilde"):
                picard_iterate_many(inst, starts, map_name, max_iters=200, m_const=radius)
    assert len(inputs) > 100 and all(inputs)
    assert min(images) >= -1.0

    # With its gain raised by 10 M at the greedy encoding, T-prime's image
    # there falls below -2 M, so the half-damped update leaves the box; the
    # clip brings that input and every later one back inside.
    inst = normalize(random_instance(7, 6, 3))
    poison_gain(monkeypatch, [encode_allocation(inst, greedy_allocation(inst))], 10.0 * box_radius(inst))
    inputs.clear()
    images.clear()
    picard_iterate_many(inst, [None], "Tprime")
    assert images[0] < -2.0 and len(inputs) > 2 and all(inputs)
