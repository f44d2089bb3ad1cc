"""Fixed-point maps whose fixed points witness EFX allocations.

The existence objective is nonpositive at a score matrix exactly when
every coordinate satisfies a clamp inequality: the score may not exceed
its row maximum minus the transfer gain, the worst aggregate rise in other
rows' maxima caused by shifting a rival agent's per-item value onto the
coordinate's column.  Clamping scores at that bound gives a map whose
fixed points are precisely the feasible matrices.  Two variants restrict
attention to the score box [-M, 0] of ``extension.box_radius``: a
discrete one that only clamps rows whose maximum sits at zero, and a
smooth one that weights the clamp by the exponential of the row maximum
and maps the box into itself, so a fixed point is guaranteed to exist.
Damped Picard iteration hunts for one from many starts, which advance as
one stack: the maps and the transfer gain take a leading stack axis and
treat its matrices apart, so each start's run is the one it would have
alone, and each start keeps one record of its best residual and iterate.
The maps, the gain and the loop share one arithmetic on the base, the
scores as (..., n, m) agents-by-items rows, where the row maxima and the
folds over rivals and bystanders run over whole rows.  The Picard loop holds its
stack as a C-contiguous (L, n, m) base and steps it with ``_clamp_step``,
built once per run; the public maps and ``transfer_gain`` read the same
step or gain off the base of their input, give the same floats on either
layout and lay their results out like their input.  Every public
readout takes its scores through ``extension._require_box``, which checks
their shape, and for the boxed maps their box.  Convergence is not
guaranteed and is always reported rather than assumed.  The transfer gain
is a readout of the shifted row maxima from ``extension._shifted_rows``,
the same kernel behind the existence objective.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .dc import InternalCheckError
from .extension import _pair_gather, _require_box, _shifted_rows, box_radius, encode_allocation
from .extension import extract_allocation, greedy_allocation
from .instance import DEFAULT_EFX_TOL, Allocation, Instance, is_efx, total_mass

RESIDUAL_TOL = 1e-8
DEFAULT_ALPHA = 0.5
DEFAULT_MAX_ITERS = 1000
DIAG_TOL = 1e-9


class SelfMapViolation(InternalCheckError):
    """The smooth clamp map produced a point outside a box whose radius
    covers the mass, which its self-map property rules out."""


def transfer_gain(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Worst aggregate rise of other rows' maxima per coordinate.

    Entry (k, j) maximizes, over rival agents i, the total change of row
    maxima across items other than k when each item's value for i is moved
    from column i onto column j.  Bounded by the total mass in absolute
    value for any scores whatsoever.  A (..., m, n) stack of score
    matrices gives the stack of their gains, laid out like ``y``.
    """
    yt = _require_box(inst, y, None, stacked=True).swapaxes(-1, -2)
    return _gain(yt, yt.max(axis=-2), *_pair_gather(inst), np.empty_like(yt)).swapaxes(-1, -2)


def _gain(yt: np.ndarray, h: np.ndarray, index: np.ndarray, shift: np.ndarray, rivals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The transfer gain on the base: ``yt`` holds the scores as (..., n, m)
    agents-by-items rows and ``h`` their (..., m) row maxima, the next
    three arguments are ``extension._pair_gather``'s constants, and the
    gain goes to ``out``, shaped like ``yt``."""
    delta = _shifted_rows(yt, index, shift)
    delta -= h[..., None, :]
    gain = np.subtract(delta.sum(axis=-1, keepdims=True), delta, out=delta)
    # Rivals in front: the max folds whole (n, m) blocks in rival order.
    return gain.take(rivals, axis=-2).max(axis=-3, out=out)


def _clamp_step(inst: Instance, map_name: str, m_const: float | None = None):
    """The map ``map_name`` as one function of the base, built once.

    The function takes scores as an (..., n, m) stack of agents-by-items
    rows and returns their images laid out like it, taking the row maxima
    once.  It holds the gain's constants, and for T-tilde the radius
    ``m_const`` of the escape check, which it takes as given.  The box
    check of its input is left to the caller.
    """
    constants = _pair_gather(inst)

    def step(yt: np.ndarray) -> np.ndarray:
        h = yt.max(axis=-2)
        gain = _gain(yt, h, *constants, np.empty_like(yt))
        if map_name == "T":
            return np.minimum(yt, h[..., None, :] - gain)
        first = yt - h[..., None, :]
        if map_name == "Tprime":
            return np.minimum(first, np.where((h == 0.0)[..., None, :], -gain, 0.0))
        # gain * -exp(h) is -gain * exp(h) bit for bit.
        image = np.minimum(first, np.multiply(gain, -np.exp(h)[..., None, :], out=gain), out=first)
        if image.max(initial=-np.inf) > 0.0 or image.min(initial=0.0) < -m_const:
            # The first escaping matrix of the stack, named by its lowest coordinate.
            flat = image.swapaxes(-1, -2).reshape(-1, inst.m, inst.n)
            escaped = flat[int(np.argmax((flat.max(axis=(1, 2)) > 0.0) | (flat.min(axis=(1, 2)) < -m_const)))]
            k, j = np.unravel_index(int(np.argmin(escaped)), escaped.shape)
            raise SelfMapViolation(f"image coordinate ({k}, {j}) = {float(escaped[k, j])!r} left the box [-{m_const}, 0]")
        return image

    return step


def _slacks(y: np.ndarray, h: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Clamp slacks of scores ``y`` with row maxima ``h`` and transfer gain ``gain``."""
    return y - (h[..., None] - gain)


def _violations(slacks: np.ndarray) -> list[tuple[int, int, float]]:
    """The coordinates (k, j) of an (m, n) slack matrix with positive slack, row by row, and their slacks."""
    positive = slacks > 0.0
    return [(k, j, slack) for (k, j), slack in zip(np.argwhere(positive).tolist(), slacks[positive].tolist())]


def constraint_slacks(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-coordinate slack of the clamp inequalities; the matrix maximum
    equals the existence objective.  Maps a stack matrix by matrix."""
    y = _require_box(inst, y, None, stacked=True)
    return _slacks(y, y.max(axis=-1), transfer_gain(inst, y))


def verify_constraints(inst: Instance, y: np.ndarray):
    """Worst clamp slack and the list of coordinates with positive slack."""
    slacks = constraint_slacks(inst, _require_box(inst, y, None))
    return float(slacks.max()), _violations(slacks)


def _map_readout(inst: Instance, y: np.ndarray, map_name: str, m_const: float | None = None) -> np.ndarray:
    """``_clamp_step``'s image of ``y``, a (..., m, n) stack of score
    matrices, laid out like ``y``; the boxed maps check the box of radius
    ``box_radius(inst, m_const)`` first; every map checks the shape."""
    m_const = None if map_name == "T" else box_radius(inst, m_const)
    y = _require_box(inst, y, m_const, stacked=True)
    return _clamp_step(inst, map_name, m_const)(y.swapaxes(-1, -2)).swapaxes(-1, -2)


def clamp_map(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Clamp each score at its row maximum minus the transfer gain.

    Fixed points are exactly the matrices with nonpositive clamp slack
    everywhere; the image can dip below any box by at most the total mass.
    Like the two box variants, it maps a (..., m, n) stack matrix by matrix.
    """
    return _map_readout(inst, y, "T")


def rowmax_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Box variant that raises each row's maximum to zero and clamps by the
    negated transfer gain only on rows whose maximum already sits at zero
    (exact test).  Maps the box of radius ``box_radius(inst, m_const)``
    into itself."""
    return _map_readout(inst, y, "Tprime", m_const)


def smooth_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Smooth box variant weighting the clamp by exp(row maximum).

    Continuous on the box of radius ``box_radius(inst, m_const)`` and
    mapping it into itself, so a fixed point exists; an image coordinate
    outside the box is an invariant failure and raises rather than being
    clamped away.  On a stack the message names the coordinate in the
    first escaping matrix.
    """
    return _map_readout(inst, y, "Ttilde", m_const)


MAPS = {"T": clamp_map, "Tprime": rowmax_clamp_map, "Ttilde": smooth_clamp_map}


def stuck_row_diagnostics(inst: Instance, y: np.ndarray) -> list[dict]:
    """Evidence rows for fixed points whose maxima stay below -DIAG_TOL.

    A genuine fixed point with a strictly negative row maximum would have
    to satisfy a rigid system: exp(-h_k) equal to the negated transfer gain
    over the score, for every agent of that row, with |h_k| capped by
    log(1 + total mass).  Each returned entry records how far row k is
    from that system.  An entry is flagged ``"skipped"`` instead when its
    residual is beyond the float range (exp(-h_k) overflows on rows far
    below zero).  Every score of a stuck row lies at or below its maximum,
    so none is zero.
    """
    y = _require_box(inst, y, None)
    return _stuck_rows(inst, y, y.max(axis=1), transfer_gain(inst, y))


def _stuck_rows(inst: Instance, y: np.ndarray, h: np.ndarray, gain: np.ndarray) -> list[dict]:
    """``stuck_row_diagnostics`` of an (m, n) matrix ``y`` with row maxima ``h`` and transfer gain ``gain``."""
    log_bound = float(np.log1p(total_mass(inst)))
    stuck = np.flatnonzero(h < -DIAG_TOL)
    with np.errstate(over="ignore"):
        residuals = np.abs(np.exp(-h[stuck])[:, None] + gain[stuck] / y[stuck])
    kept = np.isfinite(residuals)
    return [
        {
            "item": int(k),
            "rowmax": float(h[k]),
            "rowmax_abs": float(-h[k]),
            "log_mass_bound": log_bound,
            "within_log_bound": bool(-h[k] <= log_bound + DIAG_TOL),
            "entries": [
                {"agent": j, "skipped": False, "residual": float(row[j])} if ok[j] else {"agent": j, "skipped": True}
                for j in range(inst.n)
            ],
        }
        for k, row, ok in zip(stuck, residuals, kept)
    ]


@dataclass
class FixedPointReport:
    map_name: str
    converged: bool
    iterations: int
    residual: float
    constraint_slack: float
    violations: list
    allocation: Allocation
    efx: bool
    stuck_rows: list = field(default_factory=list)
    y: np.ndarray | None = None


def picard_iterate_many(
    inst: Instance,
    y0s: Iterable[np.ndarray | None],
    map_name: str = "Ttilde",
    alpha: float = DEFAULT_ALPHA,
    tol: float = RESIDUAL_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    m_const: float | None = None,
    efx_tol: float = DEFAULT_EFX_TOL,
) -> list[FixedPointReport]:
    """Damped Picard iteration of one of the clamp maps from every start.

    Works in the box of radius ``box_radius(inst, m_const)``.  Each start
    is an items-by-agents matrix, inside the box for the boxed maps, or
    None for the greedy allocation's encoding.  The starts advance as one
    C-contiguous (L, n, m) stack of agents-by-items rows, each step
    mapping every live start at once through one ``_clamp_step`` built for
    the run; a start leaves the stack when its undamped residual (max-norm
    distance between the point and its image) drops to ``tol``, and the
    rest stop at ``max_iters``.  For the boxed maps each start's box is
    checked once, and every damped update is clipped to the box.
    Each start keeps one record, its best residual and iterate, and
    reports it; every kernel treats the matrices of a stack apart, so a
    report equals that of a run from its start alone.
    The constraint slack and the EFX verdict of the row-argmax extraction
    are always checked independently of convergence, and rows stuck below
    zero are reported as diagnostics, all read off one transfer gain of
    the record stack.  An escape from the box raises at the step it
    happens, with the escape of the lowest start escaping there.
    """
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}; choose from {sorted(MAPS)}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("damping factor must be in (0, 1]")
    if max_iters < 0:
        raise ValueError("iteration cap must be nonnegative")
    m_const = box_radius(inst, m_const)
    box = None if map_name == "T" else m_const
    starts = [encode_allocation(inst, greedy_allocation(inst), m_const) if y0 is None else y0 for y0 in y0s]
    if not starts:
        return []
    step = _clamp_step(inst, map_name, m_const)
    # The base: each start as an (n, m) agents-by-items matrix of one
    # C-contiguous (L, n, m) stack, so every step reduces and gathers whole
    # agent rows.  Map T is unboxed: only the shape of its start is checked.
    yt = np.array([_require_box(inst, y0, box).T for y0 in starts])

    iterations = np.full(len(yt), max_iters)
    # The start behind each matrix of the live stack, and one record per
    # live start, its best residual and iterate, kept beside the stack and
    # written out to best_residual and best_t when the start leaves it.
    live = np.arange(len(yt))
    live_residual, live_best = np.full(len(yt), np.inf), yt.copy()
    best_residual, best_t = np.empty_like(live_residual), np.empty_like(yt)
    for it in range(max_iters + 1):
        step_t = step(yt) - yt
        residual = np.abs(step_t).max(axis=(1, 2))
        better = residual < live_residual
        np.copyto(live_residual, residual, where=better)
        np.copyto(live_best, yt, where=better[:, None, None])
        done = residual <= tol
        if np.count_nonzero(done):
            left = live[done]
            iterations[left] = it
            best_residual[left], best_t[left] = live_residual[done], live_best[done]
            kept = ~done
            live, yt, step_t, live_residual, live_best = live[kept], yt[kept], step_t[kept], live_residual[kept], live_best[kept]
        if it == max_iters or not live.size:
            break
        step_t *= alpha
        yt += step_t
        if box is not None:
            # Damped combinations can leave the box by a rounding ulp.
            yt.clip(-box, 0.0, out=yt)
    best_residual[live], best_t[live] = live_residual, live_best

    # A converged step is always a strict new best, so the record is the
    # answer, converged exactly when within tol.  One gain over the record
    # stack serves every report; best_y is C-ordered, so each report's iterate is C-contiguous.
    best_y = np.ascontiguousarray(best_t.swapaxes(1, 2))
    h = best_y.max(axis=2)
    gain = transfer_gain(inst, best_y)
    slacks = _slacks(best_y, h, gain)
    reports = []
    for s, y_best in enumerate(best_y):
        allocation = extract_allocation(y_best)
        reports.append(
            FixedPointReport(
                map_name=map_name,
                converged=bool(best_residual[s] <= tol),
                iterations=int(iterations[s]),
                residual=float(best_residual[s]),
                constraint_slack=float(slacks[s].max()),
                violations=_violations(slacks[s]),
                allocation=allocation,
                efx=is_efx(inst, allocation, efx_tol).ok,
                stuck_rows=_stuck_rows(inst, y_best, h[s], gain[s]),
                y=y_best,
            )
        )
    return reports
