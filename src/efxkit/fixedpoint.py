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
The stack is held agents-major, each matrix an (m, n) view of (n, m)
memory, so the row maxima and the folds over rivals and bystanders run
over whole contiguous rows; the kernels give the same floats on either
layout and lay their results out like their input.  Convergence is not
guaranteed and is always reported rather than assumed.  The transfer gain
is a readout of the shifted row maxima from ``extension._shifted_rowmax``,
the same kernel behind the existence objective.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .extension import _require_box, _shifted_rowmax, box_radius, encode_allocation
from .extension import extract_allocation, greedy_allocation
from .instance import DEFAULT_EFX_TOL, Allocation, Instance, _ordered_pairs, is_efx, total_mass

RESIDUAL_TOL = 1e-8
DEFAULT_ALPHA = 0.5
DEFAULT_MAX_ITERS = 1000
DIAG_TOL = 1e-9


class SelfMapViolation(RuntimeError):
    """The smooth clamp map produced a point outside its box.

    ``index`` is the flat position, among the leading axes of a stacked
    call, of the first escaping matrix; None when the call was not stacked
    or the escape belongs to no single matrix.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def transfer_gain(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Worst aggregate rise of other rows' maxima per coordinate.

    Entry (k, j) maximizes, over rival agents i, the total change of row
    maxima across items other than k when each item's value for i is moved
    from column i onto column j.  Bounded by the total mass in absolute
    value for any scores whatsoever.  A (..., m, n) stack of score
    matrices gives the stack of their gains, laid out like ``y``.
    """
    y = np.asarray(y, dtype=float)
    _, _, shifted = _shifted_rowmax(inst, y)
    delta = shifted - y.max(axis=-1)[..., None, :]
    gain = delta.sum(axis=-1, keepdims=True) - delta
    # Rivals in front: the max folds whole (n, m) blocks in rival order,
    # into an array laid out like y.
    out = np.empty_like(y)
    gain.take(_ordered_pairs(inst.n)[2], axis=-2).max(axis=-3, out=out.swapaxes(-1, -2))
    return out


def constraint_slacks(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-coordinate slack of the clamp inequalities; the matrix maximum
    equals the existence objective.  Maps a stack matrix by matrix."""
    y = np.asarray(y, dtype=float)
    return y - (y.max(axis=-1)[..., None] - transfer_gain(inst, y))


def verify_constraints(inst: Instance, y: np.ndarray):
    """Worst clamp slack and the list of coordinates with positive slack."""
    slacks = constraint_slacks(inst, y)
    violations = [(int(k), int(j), float(slacks[k, j])) for k, j in np.argwhere(slacks > 0.0)]
    return float(slacks.max()), violations


def clamp_map(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Clamp each score at its row maximum minus the transfer gain.

    Fixed points are exactly the matrices with nonpositive clamp slack
    everywhere; the image can dip below any box by at most the total mass.
    Like the two box variants, it maps a (..., m, n) stack matrix by matrix.
    """
    y = np.asarray(y, dtype=float)
    h = y.max(axis=-1)
    return np.minimum(y, h[..., None] - transfer_gain(inst, y))


def rowmax_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Box variant that raises each row's maximum to zero and clamps by the
    negated transfer gain only on rows whose maximum already sits at zero
    (exact test).  Maps the box into itself whenever M covers the mass."""
    m_const = box_radius(inst) if m_const is None else m_const
    y = _require_box(inst, y, m_const, stacked=True)
    h = y.max(axis=-1)
    first = y - h[..., None]
    second = np.where((h == 0.0)[..., None], -transfer_gain(inst, y), 0.0)
    return np.minimum(first, second)


def smooth_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Smooth box variant weighting the clamp by exp(row maximum).

    Continuous on the box and mapping it into itself, so a fixed point
    exists; an image coordinate outside the box is an invariant failure
    and raises rather than being clamped away.  On a stack the first
    escaping matrix raises, and the exception's ``index`` names it.
    """
    m_const = box_radius(inst) if m_const is None else m_const
    y = _require_box(inst, y, m_const, stacked=True)
    h = y.max(axis=-1)
    first = y - h[..., None]
    second = -transfer_gain(inst, y) * np.exp(h)[..., None]
    image = np.minimum(first, second)
    if image.max(initial=-np.inf) > 0.0 or image.min(initial=0.0) < -m_const:
        flat = image.reshape(-1, inst.m, inst.n)
        escaped = (flat.max(axis=(1, 2)) > 0.0) | (flat.min(axis=(1, 2)) < -m_const)
        index = int(np.argmax(escaped))
        k, j = np.unravel_index(int(np.argmin(flat[index])), flat[index].shape)
        raise SelfMapViolation(
            f"image coordinate ({k}, {j}) = {flat[index][k, j]!r} left the box [-{m_const}, 0]",
            index if image.ndim > 2 else None,
        )
    return image


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
    y = np.asarray(y, dtype=float)
    h = y.max(axis=1)
    gain = transfer_gain(inst, y)
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


def picard_iterate(inst: Instance, map_name: str = "Ttilde", y0: np.ndarray | None = None, **options) -> FixedPointReport:
    """Damped Picard iteration of one of the clamp maps from one start,
    with ``picard_iterate_many``'s keyword ``options``."""
    return picard_iterate_many(inst, [y0], map_name, **options)[0]


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
    stack, each step mapping every live start at once; a start leaves it
    when its undamped residual (max-norm distance between the point and
    its image) drops to ``tol``, and the rest stop at ``max_iters``.  Each
    start keeps one record, its best residual and iterate, and reports it;
    every kernel treats the matrices of a stack apart, so a report equals
    that of a run from its start alone.
    The constraint slack and the EFX verdict of the row-argmax extraction
    are always checked independently of convergence, and rows stuck below
    zero are reported as diagnostics.  If the map escapes its box on some
    start, the escape of the lowest such start is raised at the end.
    """
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}; choose from {sorted(MAPS)}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("damping factor must be in (0, 1]")
    if max_iters < 0:
        raise ValueError("iteration cap must be nonnegative")
    m_const = box_radius(inst, m_const)
    boxed = map_name in ("Tprime", "Ttilde")
    # Map T is unboxed: it takes no radius, and only the shape of its start is checked.
    radius = (m_const,) if boxed else ()
    starts = [encode_allocation(inst, greedy_allocation(inst), m_const) if y0 is None else y0 for y0 in y0s]
    if not starts:
        return []
    # Agents-major: an (L, m, n) view of (L, n, m) memory, so the kernels
    # reduce over whole agent rows.
    y = np.array([_require_box(inst, y0, m_const if boxed else None).T for y0 in starts]).swapaxes(1, 2)

    # One record per start; best_y is C-ordered, so each report's iterate is C-contiguous.
    best_residual = np.full(len(y), np.inf)
    best_y = y.copy()
    converged = np.zeros(len(y), dtype=bool)
    iterations = np.full(len(y), max_iters)
    # The start behind each matrix of the stack.
    live = np.arange(len(y))
    escape = None
    for step in range(max_iters + 1):
        image = None
        while image is None and live.size:
            try:
                image = MAPS[map_name](inst, y, *radius)
            except SelfMapViolation as exc:
                # The lowest escaping start's escape is raised, so the starts
                # from this one on cannot change the outcome and leave the
                # stack.  An escape that names no matrix is charged to the first.
                escape = exc
                cut = exc.index or 0
                live, y = live[:cut], y[:cut]
        if image is None:
            break
        step_y = image - y
        residual = np.abs(step_y).max(axis=(1, 2))
        better = residual < best_residual[live]
        improved = live[better]
        best_residual[improved], best_y[improved] = residual[better], y[better]
        done = residual <= tol
        if done.any():
            converged[live[done]], iterations[live[done]] = True, step
            live, y, step_y = live[~done], y[~done], step_y[~done]
        if step == max_iters or not live.size:
            break
        y = y + alpha * step_y
        if boxed:
            # Damped combinations can leave the box by a rounding ulp.
            np.clip(y, -m_const, 0.0, out=y)
    if escape is not None:
        raise escape

    reports = []
    for s, y_best in enumerate(best_y):
        # A converged step is always a strict new best, so best_y is the answer.
        slack, violations = verify_constraints(inst, y_best)
        allocation = extract_allocation(y_best)
        reports.append(
            FixedPointReport(
                map_name=map_name,
                converged=bool(converged[s]),
                iterations=int(iterations[s]),
                residual=float(best_residual[s]),
                constraint_slack=slack,
                violations=violations,
                allocation=allocation,
                efx=is_efx(inst, allocation, efx_tol).ok,
                stuck_rows=stuck_row_diagnostics(inst, y_best),
                y=y_best,
            )
        )
    return reports
