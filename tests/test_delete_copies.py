"""One delete removes one copy.

A point stored k times takes k deletes (one WAL record each) to be gone:
the update processor marks stored copies one at a time, and every answer —
point, window, kNN, ``current_points()`` and ``n_effective`` — counts the
copies left.  Checked against a linear scan of ``current_points()`` for the
side-list and built-in-insertion processors of all five indices (RSMI's
approximate windows included), across a rebuild, and through a server's
WAL replay.
"""

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.serve.server import IndexServer, ServeConfig
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, canon, point_truth, processor_windows

CONFIG = ELSIConfig(train_epochs=20)
COPIES = 3
INDICES = {
    "ZM": (ZMIndex, {"branching": 4}),
    "ML": (MLIndex, {"branching": 4}),
    "RSMI": (RSMIIndex, {"leaf_capacity": 300}),
    "LISA": (LISAIndex, {}),
}
#: Every index with the side list and with its built-in insertion.
PROCESSORS = [
    pytest.param(name, native, id=f"{name}-{'native' if native else 'side_list'}")
    for name in INDICES
    for native in (False, True)
]


def _fresh(name):
    cls, params = INDICES[name]
    return cls(builder=ELSIModelBuilder(CONFIG, method="SP"), **params)


@pytest.fixture(scope="module")
def data(osm_points):
    """The OSM fixture with its row 17 stored three times."""
    return np.vstack([osm_points, osm_points[[17] * (COPIES - 1)]])


def _processor(name, native, data):
    processor = UpdateProcessor(_fresh(name).build(data), CONFIG, native=native)
    processor.insert(np.array([0.123, 0.456]))  # an insert beside the deletes
    return processor


def assert_answers(name, processor, p, left):
    """``processor`` answers like a linear scan of its ``current_points()``,
    which hold ``left`` copies of ``p``."""
    current = processor.current_points()
    assert len(current) == processor.n_effective
    assert int((current == p).all(axis=1).sum()) == left
    probes = np.vstack([p, current[:50], p + 1e-9])
    truth = point_truth(current, probes)
    np.testing.assert_array_equal(processor.point_queries(probes), truth)
    assert processor.point_query(p) == (left > 0)
    windows = [Rect(tuple(p), tuple(p)), Rect.centered(p, 0.05), Rect.centered(p, 0.2)]
    assert_windows(name, current, windows, processor_windows(processor, windows))
    assert_windows(name, current, windows[:1], [processor.window_query(windows[0])])
    queries = np.vstack([p, p + 0.01])
    for k in (1, COPIES, 10):
        assert_knn(name, current, queries, k, processor.knn_queries(queries, k))


@pytest.mark.parametrize("name,native", PROCESSORS)
def test_one_delete_removes_one_copy(data, name, native):
    processor = _processor(name, native, data)
    p = data[17]
    assert_answers(name, processor, p, COPIES)
    for left in range(COPIES - 1, -1, -1):
        assert processor.delete(p)
        assert_answers(name, processor, p, left)
    assert not processor.delete(p)  # no copy left to delete
    processor.insert(p)  # one insert brings one copy back
    assert_answers(name, processor, p, 1)


@pytest.mark.parametrize("deleted", range(1, COPIES + 1))
@pytest.mark.parametrize("name,native", PROCESSORS)
def test_rebuild_keeps_the_copies_nobody_deleted(data, name, native, deleted):
    processor = _processor(name, native, data)
    p = data[17]
    for _ in range(deleted):
        assert processor.delete(p)
    before = canon(processor.current_points())
    processor.rebuild()
    np.testing.assert_array_equal(canon(processor.current_points()), before)
    assert_answers(name, processor, p, COPIES - deleted)
    for left in range(COPIES - deleted - 1, -1, -1):
        assert processor.delete(p)
        assert_answers(name, processor, p, left)
    assert not processor.delete(p)


@pytest.mark.parametrize("name", ["ZM", "RSMI"])
def test_wal_replay_deletes_one_copy_per_record(data, name, tmp_path):
    """Each recovery replays the deletes so far, one copy per record."""
    p = data[17]
    common = dict(
        config=ServeConfig(auto_rebuild=False),
        elsi_config=CONFIG,
        index_factory=lambda: _fresh(name),
        wal=True,
    )
    server = IndexServer(_fresh(name).build(data), snapshots=str(tmp_path), **common)
    assert server.delete(p)
    for left in range(COPIES - 1, -1, -1):
        server.close()
        server = IndexServer.from_snapshot(str(tmp_path), **common)
        with server:
            assert server.n_points == len(data) - (COPIES - left)
            assert server.point_query(p) == (left > 0)
            window = server.window_query(Rect(tuple(p), tuple(p)))
            np.testing.assert_array_equal(window, np.repeat(p[None, :], left, axis=0))
            nearest = server.knn_query(p, COPIES)
            assert int((nearest == p).all(axis=1).sum()) == left
            assert server.delete(p) == (left > 0)  # the next record, if any
