"""Plain-text table formatting for experiment outputs."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "improvement_percent"]


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Render dict rows as an aligned text table.

    Floats are shown with three decimals; column order follows ``columns``
    or the first row's key order.
    """
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def _cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    rendered = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered)
    return f"{header}\n{rule}\n{body}"


def improvement_percent(best_model_value: float, best_baseline_value: float,
                        lower_is_better: bool = True) -> float | None:
    """The paper's "Improvement" row: % error reduced vs. the best baseline.

    Returns ``None`` when the sign structure makes the ratio meaningless
    (the paper prints N/A for negative baseline R²).
    """
    if lower_is_better:
        if best_baseline_value == 0:
            return None
        return (best_baseline_value - best_model_value) / abs(best_baseline_value) * 100.0
    if best_baseline_value <= 0:
        return None
    return (best_model_value - best_baseline_value) / best_baseline_value * 100.0
