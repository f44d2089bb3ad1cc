"""One-start reference for the damped Picard driver.

A verbatim copy of the single-start loop that ``picard_iterate_many``
replaced: it steps one score matrix at a time through the package maps on
2-D arrays.  The stacked driver is checked against it byte for byte on
every report field.
"""

import numpy as np

from efxkit.extension import _require_box, box_radius, encode_allocation, extract_allocation, greedy_allocation
from efxkit.fixedpoint import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITERS,
    MAPS,
    RESIDUAL_TOL,
    FixedPointReport,
    stuck_row_diagnostics,
    verify_constraints,
)
from efxkit.instance import DEFAULT_EFX_TOL, Instance, is_efx


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

    Works in the box of radius ``box_radius(inst, m_const)``.  Starts at
    the greedy allocation's encoding unless ``y0`` is given, which must be
    an items-by-agents matrix, inside the box for the boxed maps.  Stops
    when the undamped residual (max-norm distance between the point and
    its image) drops to ``tol``; otherwise reports the best iterate seen.
    The constraint slack and the EFX verdict of the row-argmax extraction
    are always checked independently of convergence, and rows stuck below
    zero are reported as diagnostics.
    """
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}; choose from {sorted(MAPS)}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("damping factor must be in (0, 1]")
    m_const = box_radius(inst, m_const)
    if y0 is None:
        y0 = encode_allocation(inst, greedy_allocation(inst), m_const)
    boxed = map_name in ("Tprime", "Ttilde")
    # Map T is unboxed: it takes no radius, and only the shape of its start is checked.
    radius = (m_const,) if boxed else ()
    y = np.array(_require_box(inst, y0, m_const if boxed else None))

    best_residual = np.inf
    best_y = y.copy()
    converged = False
    iterations = 0
    for _ in range(max_iters + 1):
        image = MAPS[map_name](inst, y, *radius)
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
