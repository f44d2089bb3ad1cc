"""Per-row reference for the stuck-row diagnostics.

A verbatim copy of the loop that ``fixedpoint.stuck_row_diagnostics``
replaced: it computes each stuck row's residuals on its own.  The
vectorised version is checked against it for equal documents, float for
float.
"""

import numpy as np

from efxkit.fixedpoint import DIAG_TOL, transfer_gain
from efxkit.instance import Instance, total_mass


def stuck_row_diagnostics(inst: Instance, y: np.ndarray, tol: float = DIAG_TOL) -> list[dict]:
    y = np.asarray(y, dtype=float)
    h = y.max(axis=1)
    gain = transfer_gain(inst, y)
    log_bound = float(np.log1p(total_mass(inst)))
    rows = []
    for k in np.flatnonzero(h < -tol):
        usable = y[k] < -tol
        with np.errstate(over="ignore"):
            residuals = np.abs(np.exp(-h[k]) + gain[k] / np.where(usable, y[k], -1.0))
        entries = [
            {"agent": j, "skipped": False, "residual": float(residuals[j])}
            if usable[j] and np.isfinite(residuals[j])
            else {"agent": j, "skipped": True}
            for j in range(inst.n)
        ]
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
