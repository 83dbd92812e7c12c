"""Table 5 times direct ``predict`` calls: rows carry only the paper's columns."""

from __future__ import annotations

from repro.experiments.table5_timing import run as run_table5


class TestTable5WithService:
    def test_without_service_keeps_plain_columns(self):
        result = run_table5(scale_name="bench", datasets=["pems-bay"], models=["IDW"])
        (row,) = result["rows"]
        public = [key for key in row if not key.startswith("_")]
        assert public == ["Dataset", "Model", "Train(s)", "Test(s)", "RMSE"]
