"""Tests for the terminal plotting helpers."""

import pytest

from repro.bench.plots import bar_chart, line_chart


class TestBarChart:
    def test_basic_render(self):
        text = bar_chart(["ML", "ML-F"], [2.5, 0.1], title="build", unit="s")
        lines = text.splitlines()
        assert lines[0] == "build"
        assert "ML-F" in lines[2]
        assert "2.5s" in lines[1]

    def test_longest_bar_is_max(self):
        text = bar_chart(["a", "b"], [10.0, 5.0])
        a_line, b_line = text.splitlines()
        assert a_line.count("█") > b_line.count("█")

    def test_zero_values(self):
        text = bar_chart(["a"], [0.0])
        assert "0" in text

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            bar_chart([], [])


class TestLineChart:
    def test_basic_render(self):
        series = {
            "ML-F": [(0.0, 1.0), (0.5, 0.6), (1.0, 0.5)],
            "RR*": [(0.0, 0.8), (1.0, 0.8)],
        }
        text = line_chart(series, title="build vs lambda")
        assert "build vs lambda" in text
        assert "o ML-F" in text
        assert "x RR*" in text

    def test_log_scale(self):
        series = {"a": [(0.0, 1.0), (1.0, 1000.0)]}
        text = line_chart(series, log_y=True)
        assert "1e+03" in text or "1000" in text

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart({"a": [(0.0, 0.0)]}, log_y=True)

    def test_constant_series(self):
        text = line_chart({"flat": [(0.0, 5.0), (1.0, 5.0)]})
        assert "flat" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})
