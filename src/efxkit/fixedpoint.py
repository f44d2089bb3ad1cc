"""Fixed-point maps whose fixed points witness EFX allocations.

The existence objective is nonpositive at a score matrix exactly when
every coordinate satisfies a clamp inequality: the score may not exceed
its row maximum minus the transfer gain, the worst aggregate rise in other
rows' maxima caused by shifting a rival agent's per-item value onto the
coordinate's column.  Clamping scores at that bound gives a map whose
fixed points are precisely the feasible matrices.  Two variants restrict
attention to the box of nonpositive scores: a discrete one that only
clamps rows whose maximum sits at zero, and a smooth one that weights the
clamp by the exponential of the row maximum and maps the box into itself,
so a fixed point is guaranteed to exist.  Damped Picard iteration hunts
for one; convergence is not guaranteed and is always reported rather than
assumed.  The transfer gain is a readout of the shifted row maxima from
``extension._shifted_rowmax``, the same kernel behind the existence
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extension import _shifted_rowmax, default_box_bound
from .instance import DEFAULT_EFX_TOL, Allocation, Instance, is_efx, total_mass

RESIDUAL_TOL = 1e-8
SLACK_TOL = 1e-6
DEFAULT_ALPHA = 0.5
DEFAULT_MAX_ITERS = 1000
DIAG_TOL = 1e-9


class SelfMapViolation(RuntimeError):
    """The smooth clamp map produced a point outside its box."""


def transfer_gain(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Worst aggregate rise of other rows' maxima per coordinate.

    Entry (k, j) maximizes, over rival agents i, the total change of row
    maxima across items other than k when each item's value for i is moved
    from column i onto column j.  Bounded by the total mass in absolute
    value for any scores whatsoever.
    """
    y = np.asarray(y, dtype=float)
    _, _, shifted = _shifted_rowmax(inst, y)
    delta = shifted - y.max(axis=1)
    gain = delta.sum(axis=1, keepdims=True) - delta
    # Pairs come grouped by j, so each block of n - 1 rows shares column j.
    gain = gain.reshape(inst.n, inst.n - 1, inst.m).max(axis=1)
    # Row-major like y, so later row reductions keep their summation order.
    return np.ascontiguousarray(gain.T)


def constraint_slacks(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-coordinate slack of the clamp inequalities; the matrix maximum
    equals the existence objective."""
    y = np.asarray(y, dtype=float)
    h = y.max(axis=1)
    return y - (h[:, None] - transfer_gain(inst, y))


def verify_constraints(inst: Instance, y: np.ndarray, tol: float = 0.0):
    """Worst clamp slack and the list of coordinates exceeding ``tol``."""
    slacks = constraint_slacks(inst, y)
    violations = [
        (int(k), int(j), float(slacks[k, j]))
        for k, j in np.argwhere(slacks > tol)
    ]
    return float(slacks.max()), violations


def clamp_map(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Clamp each score at its row maximum minus the transfer gain.

    Fixed points are exactly the matrices with nonpositive clamp slack
    everywhere; the image can dip below any box by at most the total mass.
    """
    y = np.asarray(y, dtype=float)
    h = y.max(axis=1)
    return np.minimum(y, h[:, None] - transfer_gain(inst, y))


def _require_box(y: np.ndarray, m_const: float) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.max(initial=-np.inf) > 0.0 or y.min(initial=0.0) < -m_const:
        raise ValueError("scores must lie in the box [-M, 0]")
    return y


def rowmax_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Box variant that raises each row's maximum to zero and clamps by the
    negated transfer gain only on rows whose maximum already sits at zero
    (exact test).  Maps the box into itself whenever M covers the mass."""
    if m_const is None:
        m_const = default_box_bound(inst)
    y = _require_box(y, m_const)
    h = y.max(axis=1)
    first = y - h[:, None]
    second = np.where((h == 0.0)[:, None], -transfer_gain(inst, y), 0.0)
    return np.minimum(first, second)


def smooth_clamp_map(inst: Instance, y: np.ndarray, m_const: float | None = None) -> np.ndarray:
    """Smooth box variant weighting the clamp by exp(row maximum).

    Continuous on the box and mapping it into itself, so a fixed point
    exists; an image coordinate outside the box is an invariant failure
    and raises rather than being clamped away.
    """
    if m_const is None:
        m_const = default_box_bound(inst)
    y = _require_box(y, m_const)
    h = y.max(axis=1)
    first = y - h[:, None]
    second = -transfer_gain(inst, y) * np.exp(h)[:, None]
    image = np.minimum(first, second)
    if image.max(initial=-np.inf) > 0.0 or image.min(initial=0.0) < -m_const:
        k, j = np.unravel_index(int(np.argmin(image)), image.shape)
        raise SelfMapViolation(
            f"image coordinate ({k}, {j}) = {image[k, j]!r} left the box [-{m_const}, 0]"
        )
    return image


MAPS = {"T": clamp_map, "Tprime": rowmax_clamp_map, "Ttilde": smooth_clamp_map}


def extract_allocation(y: np.ndarray) -> Allocation:
    """Row argmax extraction, ties to the smallest agent index."""
    return Allocation(np.argmax(np.asarray(y, dtype=float), axis=1))


def stuck_row_diagnostics(inst: Instance, y: np.ndarray, tol: float = DIAG_TOL) -> list[dict]:
    """Evidence rows for fixed points whose maxima stay below zero.

    A genuine fixed point with a strictly negative row maximum would have
    to satisfy a rigid system: exp(-h_k) equal to the negated transfer gain
    over the score, for every agent of that row, with |h_k| capped by
    log(1 + total mass).  Each returned entry records how far row k is
    from that system; coordinates too close to zero are flagged instead of
    divided by.
    """
    y = np.asarray(y, dtype=float)
    h = y.max(axis=1)
    gain = transfer_gain(inst, y)
    mass = total_mass(inst).total
    log_bound = float(np.log1p(mass))
    rows = []
    for k in np.flatnonzero(h < -tol):
        entries = []
        for j in range(inst.n):
            if y[k, j] >= -tol:
                entries.append({"agent": int(j), "skipped": True})
            else:
                residual = abs(float(np.exp(-h[k]) + gain[k, j] / y[k, j]))
                entries.append({"agent": int(j), "skipped": False, "residual": residual})
        rows.append(
            {
                "item": int(k),
                "rowmax": float(h[k]),
                "rowmax_abs": float(-h[k]),
                "log_mass_bound": log_bound,
                "within_log_bound": bool(-h[k] <= log_bound + tol),
                "entries": entries,
            }
        )
    return rows


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


def picard_iterate(
    inst: Instance,
    map_name: str = "Ttilde",
    y0: np.ndarray | None = None,
    alpha: float = DEFAULT_ALPHA,
    tol: float = RESIDUAL_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    m_const: float | None = None,
    efx_tol: float = DEFAULT_EFX_TOL,
) -> FixedPointReport:
    """Damped Picard iteration of one of the clamp maps.

    Stops when the undamped residual (max-norm distance between the point
    and its image) drops to ``tol``; otherwise reports the best iterate
    seen.  The constraint slack and the EFX verdict of the row-argmax
    extraction are always checked independently of convergence, and rows
    stuck below zero are reported as diagnostics.
    """
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}; choose from {sorted(MAPS)}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("damping factor must be in (0, 1]")
    if m_const is None:
        m_const = default_box_bound(inst)
    if y0 is None:
        y0 = np.full((inst.m, inst.n), -m_const)
        y0[np.arange(inst.m), np.argmax(inst.values, axis=1)] = 0.0
    y = np.array(y0, dtype=float)
    boxed = map_name in ("Tprime", "Ttilde")
    apply_map = (
        (lambda point: MAPS[map_name](inst, point, m_const))
        if boxed
        else (lambda point: MAPS[map_name](inst, point))
    )

    best_residual = np.inf
    best_y = y.copy()
    converged = False
    iterations = 0
    for _ in range(max_iters + 1):
        image = apply_map(y)
        residual = float(np.abs(image - y).max())
        if residual < best_residual:
            best_residual = residual
            best_y = y.copy()
        if residual <= tol:
            converged = True
            break
        if iterations >= max_iters:
            break
        y = y + alpha * (image - y)
        if boxed:
            # Damped combinations can leave the box by a rounding ulp.
            np.clip(y, -m_const, 0.0, out=y)
        iterations += 1

    # A converged step is always a strict new best, so best_y is the answer.
    slack, violations = verify_constraints(inst, best_y)
    allocation = extract_allocation(best_y)
    report = is_efx(inst, allocation, efx_tol)
    return FixedPointReport(
        map_name=map_name,
        converged=converged,
        iterations=iterations,
        residual=float(best_residual),
        constraint_slack=slack,
        violations=violations,
        allocation=allocation,
        efx=report.ok,
        stuck_rows=stuck_row_diagnostics(inst, best_y),
        y=best_y,
    )
