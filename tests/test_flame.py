"""Tests for flame graphs (repro.obs.flame) and the obs flame CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.flame import (
    folded_stacks,
    render_folded,
    render_svg,
    top_paths,
)
from repro.obs.trace import SpanRecord


def _rec(name, span_id, parent_id, start, duration):
    return SpanRecord(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        start=start,
        duration=duration,
        attrs={},
        pid=1,
        thread="main",
    )


@pytest.fixture
def synthetic_trace():
    """build(0.10s) -> train(0.06s) -> epoch(0.05s); query(0.02s)."""
    return [
        _rec("build", "a", None, 0.0, 0.10),
        _rec("train", "b", "a", 0.01, 0.06),
        _rec("epoch", "c", "b", 0.02, 0.05),
        _rec("query", "d", None, 0.2, 0.02),
    ]


class TestFoldedStacks:
    def test_self_time_per_path(self, synthetic_trace):
        stacks = folded_stacks(synthetic_trace)
        assert stacks["build"] == pytest.approx(0.04)
        assert stacks["build;train"] == pytest.approx(0.01)
        assert stacks["build;train;epoch"] == pytest.approx(0.05)
        assert stacks["query"] == pytest.approx(0.02)

    def test_values_sum_to_root_totals(self, synthetic_trace):
        stacks = folded_stacks(synthetic_trace)
        assert sum(stacks.values()) == pytest.approx(0.12)

    def test_repeated_paths_merge(self):
        records = [
            _rec("query", "a", None, 0.0, 0.01),
            _rec("query", "b", None, 0.1, 0.03),
        ]
        stacks = folded_stacks(records)
        assert stacks == {"query": pytest.approx(0.04)}

    def test_negative_self_time_clamped(self):
        # Child longer than parent (clock skew): self time clamps at 0.
        records = [
            _rec("outer", "a", None, 0.0, 0.01),
            _rec("inner", "b", "a", 0.0, 0.02),
        ]
        stacks = folded_stacks(records)
        assert stacks["outer"] == 0.0
        assert stacks["outer;inner"] == pytest.approx(0.02)

    def test_render_folded_format(self, synthetic_trace):
        text = render_folded(folded_stacks(synthetic_trace))
        lines = text.splitlines()
        assert lines[0].startswith("build;train;epoch ")  # heaviest first
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert int(value) >= 1

    def test_top_paths(self, synthetic_trace):
        top = top_paths(folded_stacks(synthetic_trace), limit=2)
        assert len(top) == 2
        assert top[0][0] == "build;train;epoch"


class TestSvg:
    def test_contains_frames_and_tooltips(self, synthetic_trace):
        svg = render_svg(folded_stacks(synthetic_trace))
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<rect" in svg
        assert "train" in svg
        assert "<title>" in svg
        assert "%" in svg

    def test_empty_trace_renders(self):
        svg = render_svg({})
        assert svg.startswith("<svg")


class TestCli:
    def test_obs_flame_writes_svg_and_folded(self, synthetic_trace, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w") as fh:
            for rec in synthetic_trace:
                fh.write(json.dumps(rec.to_dict()) + "\n")
        svg_path = tmp_path / "flame.svg"
        folded_path = tmp_path / "flame.folded"
        rc = main([
            "obs", "flame", str(trace),
            "--output", str(svg_path),
            "--folded", str(folded_path),
            "--top", "3",
        ])
        assert rc == 0
        assert svg_path.read_text().startswith("<svg")
        assert "build;train;epoch" in folded_path.read_text()
        out = capsys.readouterr().out
        assert "top 3 paths" in out

    def test_obs_flame_missing_trace_fails(self, tmp_path):
        rc = main(["obs", "flame", str(tmp_path / "nope.jsonl")])
        assert rc == 1
