"""Tests for ASCII plotting."""

import numpy as np
import pytest

from repro.experiments.plotting import Series, ascii_chart, series_from_rows


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("a", [1, 2], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series("a", [], [])


class TestAsciiChart:
    @pytest.fixture
    def two_series(self):
        return [
            Series("flat", [1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0]),
            Series("rising", [1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0]),
        ]

    def test_contains_markers_and_legend(self, two_series):
        chart = ascii_chart(two_series, title="t")
        assert "t" in chart
        assert "* flat" in chart
        assert "o rising" in chart

    def test_extremes_on_borders(self, two_series):
        chart = ascii_chart(two_series)
        lines = [ln for ln in chart.splitlines() if "|" in ln]
        # Max y (3.0) appears in the top row, min (0.0) at the bottom.
        assert "o" in lines[0]
        assert "o" in lines[-1]

    def test_log_x(self):
        s = Series("s", [1, 10, 100, 1000], [1, 2, 3, 4])
        chart = ascii_chart([s], log_x=True, width=31)
        row_cols = []
        for line in chart.splitlines():
            if "|" in line and "*" in line:
                row_cols.append(line.index("*"))
        # Log spacing => roughly equidistant columns across rows.
        diffs = np.diff(sorted(row_cols))
        assert diffs.max() - diffs.min() <= 2

    def test_log_x_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_chart([Series("s", [0, 1], [1, 2])], log_x=True)

    def test_constant_series_renders(self):
        chart = ascii_chart([Series("c", [1, 2], [5.0, 5.0])])
        assert "*" in chart

    def test_size_validation(self):
        s = Series("s", [1], [1])
        with pytest.raises(ValueError):
            ascii_chart([s], width=4)
        with pytest.raises(ValueError):
            ascii_chart([])


class TestSeriesFromRows:
    def test_groups_split(self):
        rows = [
            {"m": "a", "x": 1, "y": 2.0},
            {"m": "a", "x": 2, "y": 3.0},
            {"m": "b", "x": 1, "y": 4.0},
            {"m": "b", "x": 2, "y": None},  # non-numeric dropped
        ]
        series = series_from_rows(rows, "m", "x", "y")
        by_label = {s.label: s for s in series}
        assert len(by_label["a"].x) == 2
        assert len(by_label["b"].x) == 1
