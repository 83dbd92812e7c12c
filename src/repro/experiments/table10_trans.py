"""Table 10 — advanced temporal module (STSM-trans, paper §5.2.5).

Paper: replacing the 1-D TCN with a transformer encoder + gated fusion
improves RMSE/MAPE/R² slightly on PEMS-Bay, confirming STSM's temporal
module is swappable.
"""

from __future__ import annotations

from .configs import get_scale
from .reporting import format_table
from .runners import build_dataset, run_matrix

__all__ = ["run"]


def run(scale_name: str = "small", seed: int = 0) -> dict:
    """Compare STSM against STSM-trans on PEMS-Bay."""
    scale = get_scale(scale_name)
    dataset = build_dataset("pems-bay", scale)
    matrix = run_matrix(dataset, "pems-bay", ["STSM", "STSM-trans"], scale, seed=seed)
    rows = [
        {
            "Model": name,
            "RMSE": matrix[name]["metrics"].rmse,
            "MAE": matrix[name]["metrics"].mae,
            "MAPE": matrix[name]["metrics"].mape,
            "R2": matrix[name]["metrics"].r2,
        }
        for name in ("STSM", "STSM-trans")
    ]
    return {"rows": rows, "text": format_table(rows)}
