"""Tiny-scale tests of the experiment grid, its rows file and the views.

CI runs the grid at smoke scale with the paper-shape checks; these tests pin
the *contracts* at a seconds-scale n: one build per cell, resumption, failed
cells, the cells every table covers, and the report renderer.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.baselines import HRRIndex
from repro.bench import experiments
from repro.bench.experiments import (
    DATASET_NAMES,
    INSERT_RATIOS,
    LAMS,
    TRADITIONAL_INDICES,
    failed_rows,
    grid,
    load_rows,
    run_grid,
)
from repro.bench.harness import ExperimentScale
from repro.bench.views import (
    by_seed,
    claims,
    rebuild_counts,
    render_report,
    shape_failures,
    tables,
)
from repro.indices import LEARNED_INDICES

ROOT = Path(__file__).resolve().parents[1]

# n = 600 keeps the insert trajectories' base (max(n // 10, 500) = 500) and
# the selector grid (300) apart from the static cells in the build counter.
TINY = ExperimentScale(
    name="tiny",
    n=600,
    n_point_queries=30,
    n_window_queries=8,
    n_knn_queries=4,
    k=5,
    selector_cardinalities=(300,),
    selector_deltas=(0.0, 0.6),
    train_epochs=50,
    rl_steps=25,
)
INDEX_CLASSES = {**LEARNED_INDICES, **TRADITIONAL_INDICES}


def count_builds(monkeypatch) -> Counter:
    """Patch every index class to count ``build`` calls by cardinality."""
    builds: Counter = Counter()
    for cls in INDEX_CLASSES.values():
        def counting(self, points, *args, _build=cls.build, **kwargs):
            builds[len(points)] += 1
            return _build(self, points, *args, **kwargs)

        monkeypatch.setattr(cls, "build", counting)
    return builds


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(rows path, rows, build counter) of one full run of the tiny grid."""
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    with pytest.MonkeyPatch.context() as monkeypatch:
        builds = count_builds(monkeypatch)
        rows = run_grid(TINY, path)
    return path, rows, builds


@pytest.fixture(scope="module")
def t(tiny_run):
    return tables(by_seed(tiny_run[1]))


def test_grid_shares_every_build():
    cells = grid(TINY)
    keys = [c.key(0) for c in cells]
    assert len(set(keys)) == len(keys)
    # Figs. 8 / 10 / 12 / 14 read the same 60 cells: 6 data sets x (4 + 3 + 3).
    assert sum({"point", "window", "knn"} <= c.measures for c in cells) == 60
    # Figs. 9 / 11 / 13(a): each (data set, index, lambda) once; the default
    # lambda is the Fig. 8 cell, and ZM-F is Table II's.
    lam_cells = [c for c in cells if c.variant == "F"]
    assert len(lam_cells) == 6 * 3 + 3 * 3 * (len(LAMS) - 1) + 1
    # Table I is the ZM row of Table II; LISA x CL / RL is absent.
    zm = {c.variant for c in cells if c.index == "ZM" and c.dataset == "OSM1"}
    assert {"SP", "CL", "MR", "RS", "RL", "OG", "F", "Rand"} <= zm
    assert not [c for c in cells if c.index == "LISA" and c.variant[:2] in ("CL", "RL")]
    # Figs. 15 / 16: one trajectory per variant.
    assert sum(c.variant.startswith("updates") for c in cells) == 7


def test_one_build_per_cell_and_resume_builds_nothing(tiny_run, monkeypatch):
    path, rows, builds = tiny_run
    cells = grid(TINY)
    static = [c for c in cells if c.n == TINY.n]
    assert builds[TINY.n] == len(static) == len(cells) - 8
    assert builds[500] == 7  # the trajectories' bases; -R rebuilds are larger
    assert len(rows) == 1 + len(cells) and "stamp" in rows[0]
    assert not failed_rows(rows)

    again = count_builds(monkeypatch)
    assert run_grid(TINY, path) == rows
    assert not again


def test_failed_cell_is_kept_and_retried(tmp_path, monkeypatch):
    cells = [c for c in grid(TINY) if c.dataset == "Uniform" and c.index in TRADITIONAL_INDICES]
    monkeypatch.setattr(experiments, "grid", lambda scale: cells)
    path = tmp_path / "rows.jsonl"

    def boom(self, points):
        raise RuntimeError("boom")

    with monkeypatch.context() as broken:
        broken.setattr(HRRIndex, "build", boom)
        rows = run_grid(TINY, path)
    (failed,) = failed_rows(rows)
    assert failed["index"] == "HRR" and "RuntimeError: boom" in failed["error"]
    assert len(by_seed(rows)[0]) == len(cells) - 1  # the other cells are unaffected

    builds = count_builds(monkeypatch)
    rows = run_grid(TINY, path)
    assert sum(builds.values()) == 1  # only the failed cell is run again
    assert not failed_rows(rows) and len(by_seed(rows)[0]) == len(cells)
    assert sum("error" in r for r in rows) == 1  # the failed attempt stays on file


def test_fig07_rows_structure(t):
    rows = list(t["fig7"].cells)
    assert {index for index, _, _ in rows} == {"ZM", "ML", "RSMI", "LISA"}
    # LISA has no CL/RL rows (inapplicable).
    assert not {"CL", "RL"} & {method for index, method, _ in rows if index == "LISA"}
    for row in rows:
        assert t["fig7"].med(row, "build (s)") > 0
        assert t["fig7"].med(row, "point query (us)") > 0


def test_fig10_covers_all_cells(t):
    expected = {"Grid", "KDB", "HRR", "RR*", "ML", "ML-F", "LISA", "LISA-F", "RSMI", "RSMI-F"}
    for name in ("fig8", "fig10", "fig12a", "fig14a", "fig14b"):
        table = t[name]
        assert [row for (row,) in table.cells] == list(DATASET_NAMES)
        assert set(table.cols) == expected
        assert all(table.med(d, c) > 0 for d in DATASET_NAMES for c in table.cols)


def test_fig12_recall_bounds(t):
    for dataset in DATASET_NAMES:
        for name in ("fig12b", "fig14b"):
            for label in t[name].cols:
                assert 0.0 <= t[name].med(dataset, label) <= 1.0, (name, dataset, label)
        assert t["fig12b"].med(dataset, "ML") == 1.0  # exact by design
        assert t["fig12b"].med(dataset, "ML-F") == 1.0


def test_table2_na_cells(t):
    build = t["table2_build"]
    assert build.med("LISA", "CL") is None and build.med("LISA", "RL") is None
    assert build.med("ZM", "CL") is not None
    assert "NA" in build.text()
    for (index,) in build.cells:
        assert build.med(index, "ELSI") > 0
    # Table I reads the same ZM cells.
    assert t["table1"].med("CL", "T (s)") > 0
    assert t["table1"].cells[("OG",)]["T formula"] == "T(n) + M(n)"


def test_lambda_tables_read_the_grid_cells(t):
    for name in ("fig9_Skewed", "fig9_OSM1", "fig11_OSM1", "fig11_TPCH", "fig13a"):
        assert t[name].cols == [f"lam={lam}" for lam in LAMS]
        assert all(t[name].med(label, col) > 0 for (label,) in t[name].cells for col in t[name].cols)
    # The references are the Fig. 8 cells, not rebuilt.
    assert t["fig9_OSM1"].med("RR* (ref)", "lam=0.0") == t["fig8"].med("OSM1", "RR*")
    assert t["fig9_OSM1"].med("RSMI-F", "lam=0.8") == t["fig8"].med("OSM1", "RSMI-F")


def test_fig15_metrics_structure(tiny_run, t):
    labels = {"ML-F", "ML-R", "LISA-F", "LISA-R", "RSMI-F", "RSMI-R", "RR*"}
    assert {label for (label,) in t["fig15b"].cells} == labels
    assert t["fig15a"].cols == [f"{r * 100:.0f}%" for r in INSERT_RATIOS]
    assert t["fig16a"].cols == ["1%", "4%", "16%", "64%", "128%"]
    for label in labels:
        for col in t["fig15a"].cols:
            assert t["fig15a"].med(label, col) >= 0
            assert t["fig15b"].med(label, col) > 0
        assert 0.0 <= t["fig16b"].med(label, "128%") <= 1.0
    # -F variants (and RR*) never rebuild.
    rebuilt = rebuild_counts(by_seed(tiny_run[1]))
    assert not any(at for label, at in rebuilt.items() if not label.endswith("-R"))


def test_views_and_report_render(tiny_run, t):
    data = by_seed(tiny_run[1])
    assert isinstance(shape_failures(data), list)  # the shapes themselves are CI's, at smoke scale
    assert len(claims(data)) == 8
    report = render_report(tiny_run[1])
    assert "$" not in report
    for table in t.values():
        assert table.text() in report


def test_committed_report_is_rendered_from_committed_rows():
    rows = load_rows(ROOT / "experiments-default.jsonl")
    data = by_seed(rows)
    assert len(data) >= 3 and not failed_rows(rows)
    assert all(len(cells) == len(grid(ExperimentScale.default())) for cells in data.values())
    assert render_report(rows) == (ROOT / "EXPERIMENTS.md").read_text()
