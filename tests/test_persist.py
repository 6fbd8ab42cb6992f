"""Tests for index persistence: everything goes through ``save_index`` /
``load_index``, the one pair :mod:`repro.storage.persist` exports."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import indices
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.indices import (
    LearnedSpatialIndex,
    LISAIndex,
    MLIndex,
    PGMBuilder,
    RSMIIndex,
    ZMIndex,
)
from repro.ml.pla import PiecewiseLinearModel
from repro.spatial.rect import Rect
from repro.storage import persist
from repro.storage.persist import OldFormatError, load_index, save_index
from tests.brute import assert_knn, assert_windows, point_truth


def _sp_builder(dtype="float64", epochs=80):
    return ELSIModelBuilder(ELSIConfig(train_epochs=epochs, dtype=dtype), method="SP")


def _cast_down(tree, name=""):
    """``tree`` with its key columns and FFN parameters (``w0``, ``b0``,
    ...) cast to float32, as a float32 build stored them; the points
    stayed float64."""
    if isinstance(tree, np.ndarray):
        ffn = name[:1] in ("w", "b") and name[1:].isdigit()
        return tree.astype(np.float32) if name == "keys" or ffn else tree
    if isinstance(tree, dict):
        return {key: _cast_down(value, key) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_cast_down(value) for value in tree]
    return tree


def _round_trip(index, path):
    save_index(index, path)
    return load_index(path)


def assert_trees_equal(a, b, where="state"):
    """Two state trees hold the same values, ndarrays bit for bit (dtype
    and shape included); a tuple equals the list JSON turns it into."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        for key in a:
            assert_trees_equal(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_equal(x, y, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, where


def assert_same_answers(saved, loaded, data, seed=3):
    """``loaded`` answers every query kind with the bytes ``saved`` does,
    and both agree with a linear scan of ``data``."""
    rng = np.random.default_rng(seed)
    probes = np.vstack([data[::40], rng.random((30, 2)) + 1.5])
    hits = loaded.point_queries(probes)
    np.testing.assert_array_equal(hits, saved.point_queries(probes))
    np.testing.assert_array_equal(hits, point_truth(data, probes))
    windows = [Rect.centered(data[i], 0.15) for i in (3, 700, 1500)]
    got = loaded.window_queries(windows)
    for a, b in zip(saved.window_queries(windows), got):
        assert a.tobytes() == b.tobytes()
    assert_windows(loaded.name, data, windows, got)
    queries = data[::500]
    got = loaded.knn_queries(queries, 5)
    for a, b in zip(saved.knn_queries(queries, 5), got):
        assert a.tobytes() == b.tobytes()
    assert_knn(loaded.name, data, queries, 5, got)


@pytest.fixture()
def built_index(osm_points):
    return ZMIndex(builder=_sp_builder()).build(osm_points)


class TestRoundTrip:
    """ZM's own fields (the generic checks are in :class:`TestEveryIndex`)."""

    def test_point_queries_identical(self, built_index, osm_points, tmp_path):
        loaded = _round_trip(built_index, tmp_path / "zm.npz")
        for p in osm_points[::50]:
            assert loaded.point_query(p) == built_index.point_query(p)

    def test_window_queries_identical(self, built_index, osm_points, tmp_path):
        loaded = _round_trip(built_index, tmp_path / "zm.npz")
        window = Rect.centered(np.array([0.5, 0.5]), 0.1)
        a = built_index.window_query(window)
        b = loaded.window_query(window)
        assert a.tobytes() == b.tobytes()

    def test_predictions_bitwise_equal(self, built_index, tmp_path):
        loaded = _round_trip(built_index, tmp_path / "zm.npz")
        keys = built_index.store.keys[::37]
        np.testing.assert_array_equal(
            built_index.model.stage1.predict_positions(keys),
            loaded.model.stage1.predict_positions(keys),
        )
        assert loaded.model.stage1.err_l == built_index.model.stage1.err_l
        assert loaded.model.stage1.err_u == built_index.model.stage1.err_u

    def test_metadata_preserved(self, built_index, tmp_path):
        loaded = _round_trip(built_index, tmp_path / "zm.npz")
        assert loaded.n_points == built_index.n_points
        assert loaded.bits == built_index.bits
        assert loaded.bounds == built_index.bounds
        assert loaded.model.stage1.method_name == "SP"

    def test_two_stage_round_trip(self, osm_points, tmp_path):
        index = ZMIndex(builder=_sp_builder(epochs=60), branching=4).build(osm_points)
        loaded = _round_trip(index, tmp_path / "zm2.npz")
        assert loaded.model.is_two_stage == index.model.is_two_stage
        for p in osm_points[::100]:
            assert loaded.point_query(p)

    def test_pla_model_round_trip(self, osm_points, tmp_path):
        index = ZMIndex(builder=PGMBuilder(epsilon_positions=32)).build(osm_points)
        loaded = _round_trip(index, tmp_path / "zm_pgm.npz")
        assert loaded.model.stage1.err_l == index.model.stage1.err_l
        for p in osm_points[::100]:
            assert loaded.point_query(p)

    def test_native_inserts_preserved(self, built_index, tmp_path):
        extra = np.array([0.123, 0.456])
        built_index.insert(extra)
        loaded = _round_trip(built_index, tmp_path / "zm3.npz")
        assert loaded.point_query(extra)
        assert loaded.n_points == built_index.n_points


ALL_PERSISTABLE = (ZMIndex, MLIndex, LISAIndex, RSMIIndex)
every_index = pytest.mark.parametrize("cls", ALL_PERSISTABLE, ids=lambda c: c.name)


def _insert_natively(index, points):
    """Built-in insertion of every point; returns the rows then indexed."""
    for p in points:
        index.insert(p)
    return index.indexed_points()


def _net_types(tree):
    """Every ``net_type`` tag in a state tree."""
    if isinstance(tree, dict):
        found = {tree["net_type"]} if "net_type" in tree else set()
        return found.union(*map(_net_types, tree.values()))
    if isinstance(tree, list):
        return set().union(*map(_net_types, tree))
    return set()


def _with_ids(tree):
    """``tree`` with an int64 ``ids`` column in every store's state, as
    stores wrote it before the column was dropped."""
    if isinstance(tree, dict):
        out = {key: _with_ids(value) for key, value in tree.items()}
        if {"points", "keys", "block_size"} <= tree.keys():
            out["ids"] = np.arange(len(tree["keys"]), dtype=np.int64)[::-1].copy()
        return out
    if isinstance(tree, list):
        return [_with_ids(value) for value in tree]
    return tree


def _counted(index, run):
    """The bytes of ``run(index)``'s answers, the ``QueryStats`` triple
    and the block reads it charged."""
    index.query_stats.reset()
    for r in index.runs():
        r.store.reset_block_reads()
    answers = run(index)
    flat = answers if isinstance(answers, (list, tuple)) else [answers]
    stats = index.query_stats
    return (
        [a.tobytes() for a in flat],
        (stats.model_invocations, stats.points_scanned, stats.queries),
        sum(r.store.block_reads for r in index.runs()),
    )


class TestEveryIndex:
    """The same round-trip contract for all four classes."""

    @every_index
    @pytest.mark.parametrize("dtype", ["float64"])
    def test_same_state_and_answers_after_native_inserts(
        self, cls, dtype, osm_points, tmp_path
    ):
        index = cls(builder=_sp_builder(dtype)).build(osm_points)
        extra = np.random.default_rng(7).random((25, 2))
        data = _insert_natively(index, extra)
        loaded = _round_trip(index, tmp_path / "index.npz")
        assert type(loaded) is cls
        assert {run.store.keys.dtype for run in loaded.runs()} == {np.dtype(dtype)}
        # Every model's err_l / err_u, every store column, the insert
        # counts: whatever the index calls durable came back bit for bit.
        assert_trees_equal(index.state_dict(), loaded.state_dict())
        assert_same_answers(index, loaded, data)

    @every_index
    def test_pla_nets_round_trip(self, cls, osm_points, tmp_path):
        index = cls(builder=PGMBuilder(epsilon_positions=32)).build(osm_points)
        loaded = _round_trip(index, tmp_path / "pgm.npz")
        assert _net_types(loaded.state_dict()) == {"PiecewiseLinearModel"}
        assert_trees_equal(index.state_dict(), loaded.state_dict())
        assert_same_answers(index, loaded, osm_points)

    @every_index
    def test_stores_with_an_ids_column_still_load(self, cls, osm_points, tmp_path):
        """A snapshot in the older layout, whose every store carries an
        ``ids`` column, loads with the column ignored: answers, the
        ``QueryStats`` triple and block reads equal a fresh build's, and
        its state holds no ``ids``."""
        index = cls(builder=_sp_builder(epochs=60)).build(osm_points)
        _insert_natively(index, np.random.default_rng(4).random((10, 2)))
        path = tmp_path / "old-layout.npz"
        old = _with_ids(index.state_dict())
        n_runs = len(list(index.runs()))
        assert json.dumps(persist._lift(old, {})).count('"ids"') == n_runs
        persist._write_tree(
            {"format": persist.FORMAT, "index": index.name, "state": old}, path
        )
        loaded = load_index(path)
        assert_trees_equal(index.state_dict(), loaded.state_dict())
        rng = np.random.default_rng(9)
        probes = np.vstack([osm_points[::37], rng.random((40, 2))])
        lo = rng.random((40, 2)) * 0.9
        for run in (
            lambda ix: ix.point_queries(probes),
            lambda ix: ix.window_rows(lo, lo + 0.08),
            lambda ix: ix.knn_queries(probes, 7),
        ):
            assert _counted(loaded, run) == _counted(index, run)

    @pytest.mark.parametrize("cls", [ZMIndex, MLIndex], ids=lambda c: c.name)
    def test_two_stage_rmi_round_trip(self, cls, osm_points, tmp_path):
        index = cls(builder=_sp_builder(epochs=60), branching=4).build(osm_points)
        assert index.model.is_two_stage
        loaded = _round_trip(index, tmp_path / "two-stage.npz")
        assert loaded.model.is_two_stage
        assert_trees_equal(index.state_dict(), loaded.state_dict())
        assert_same_answers(index, loaded, osm_points)


def test_one_persistence_protocol(osm_points, tmp_path):
    """One pair of functions, and no index outside the protocol: every
    concrete ``LearnedSpatialIndex`` that ``repro.indices`` exports must
    round-trip, so a fifth index cannot be added without state methods."""
    assert persist.__all__ == ["load_index", "save_index"]
    exported = [
        cls
        for cls in (getattr(indices, name) for name in indices.__all__)
        if isinstance(cls, type)
        and issubclass(cls, LearnedSpatialIndex)
        and cls is not LearnedSpatialIndex
    ]
    assert set(exported) == set(ALL_PERSISTABLE)
    for cls in exported:
        index = cls(builder=_sp_builder(epochs=40)).build(osm_points)
        loaded = _round_trip(index, tmp_path / f"{cls.name}.npz")
        assert type(loaded) is cls
        assert_trees_equal(index.state_dict(), loaded.state_dict())


class TestGenericDispatch:
    """save_index/load_index round-trips for every supported index type."""

    @every_index
    def test_round_trip_equality(self, cls, osm_points, tmp_path):
        index = cls(builder=_sp_builder()).build(osm_points)
        loaded = _round_trip(index, tmp_path / f"{cls.name}.npz")
        assert type(loaded) is cls
        assert loaded.n_points == index.n_points
        assert loaded.bounds == index.bounds
        # Point membership must agree everywhere: hits and misses.
        rng = np.random.default_rng(3)
        probes = np.vstack([osm_points[::40], rng.random((30, 2)) + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), index.point_queries(probes)
        )
        # Window answers must be set-equal.
        window = Rect.centered(np.array([0.5, 0.5]), 0.2)
        a = np.asarray(sorted(map(tuple, index.window_query(window))))
        b = np.asarray(sorted(map(tuple, loaded.window_query(window))))
        np.testing.assert_array_equal(a, b)

    @every_index
    def test_round_trip_knn(self, cls, osm_points, tmp_path):
        index = cls(builder=_sp_builder()).build(osm_points)
        loaded = _round_trip(index, tmp_path / f"{cls.name}-knn.npz")
        for q in osm_points[::500]:
            np.testing.assert_array_equal(
                loaded.knn_query(q, 5), index.knn_query(q, 5)
            )

    def test_unsupported_type_clear_error(self, tmp_path):
        with pytest.raises(TypeError, match="supported index types"):
            save_index(object(), tmp_path / "other.npz")

    def test_rsmi_round_trip_after_inserts(self, osm_points, tmp_path):
        """RSMI persists including insertion-widened leaves and new subtrees."""
        rsmi = RSMIIndex(builder=_sp_builder(epochs=60), leaf_capacity=200)
        rsmi.build(osm_points[:1500])
        rng = np.random.default_rng(7)
        extra = rng.random((40, 2))
        for p in extra:
            rsmi.insert(p)
        loaded = _round_trip(rsmi, tmp_path / "rsmi.npz")
        assert type(loaded) is RSMIIndex
        assert loaded.n_points == rsmi.n_points
        assert loaded.depth() == rsmi.depth()
        assert loaded.n_models() == rsmi.n_models()
        probes = np.vstack([osm_points[:1500:30], extra, rng.random((20, 2)) + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), rsmi.point_queries(probes)
        )
        windows = [Rect.centered(np.array([0.4, 0.6]), 0.15)]
        for a, b in zip(rsmi.window_queries(windows), loaded.window_queries(windows)):
            np.testing.assert_array_equal(a, b)

    def test_rsmi_snapshot_with_build_strategy_key_loads(self, osm_points, tmp_path):
        """A key the state tree does not know — as snapshots written while
        RSMI had a ``build_strategy`` option carried — is ignored on load."""
        rsmi = RSMIIndex(builder=_sp_builder(epochs=60), leaf_capacity=300).build(
            osm_points
        )
        new_path, old_path = tmp_path / "rsmi.npz", tmp_path / "rsmi-old.npz"
        save_index(rsmi, new_path)
        document = persist._read_tree(new_path)
        assert "build_strategy" not in document["state"]
        document["state"]["build_strategy"] = "recursive"
        persist._write_tree(document, old_path)

        loaded = load_index(old_path)
        assert type(loaded) is RSMIIndex
        assert not hasattr(loaded, "build_strategy")
        assert loaded.n_models() == rsmi.n_models()
        probes = np.vstack([osm_points[::20], osm_points[:30] + 1.5])
        np.testing.assert_array_equal(
            loaded.point_queries(probes), point_truth(osm_points, probes)
        )
        windows = [Rect.centered(osm_points[i], 0.15) for i in (3, 700, 1500)]
        assert_windows("RSMI", osm_points, windows, loaded.window_queries(windows))


def _rewritten(path, target, edit):
    """Copy of the snapshot at ``path`` with ``edit`` applied to its tree."""
    document = persist._read_tree(path)
    edit(document)
    persist._write_tree(document, target)
    return target


class TestErrors:
    def test_unbuilt_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="built"):
            save_index(ZMIndex(), tmp_path / "x.npz")
        assert not (tmp_path / "x.npz").exists()

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, points=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="no meta entry"):
            load_index(path)
        np.savez(path, meta=np.frombuffer(b"[1, 2]", dtype=np.uint8))
        with pytest.raises(ValueError, match="meta"):
            load_index(path)

    def test_unknown_format_rejected_by_dispatch(self, tmp_path):
        path = tmp_path / "junk2.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="other"):
            load_index(path)

    @pytest.mark.parametrize(
        "tag", ["repro-zm-v1", "repro-ml-v1", "repro-lisa-v1", "repro-flood-v1", "repro-rsmi-v1"]
    )
    def test_old_tag_refused_by_name_and_left_alone(self, tag, tmp_path):
        path = tmp_path / "old.npz"
        meta = json.dumps({"format": tag, "bits": 16, "block_size": 100})
        np.savez_compressed(
            path, meta=np.frombuffer(meta.encode(), dtype=np.uint8), keys=np.zeros(4)
        )
        before = path.read_bytes()
        with pytest.raises(OldFormatError, match=tag):
            load_index(path)
        assert not issubclass(OldFormatError, ValueError)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.npz"]
        assert path.read_bytes() == before

    def test_a_retired_index_kind_is_refused_by_name_and_left_alone(
        self, built_index, tmp_path
    ):
        """A current-format snapshot of an index kind no longer carried is
        intact: refused as an old format naming the kind — neither served
        nor quarantined by the snapshot manager."""
        from repro.serve.snapshots import SnapshotManager

        manager = SnapshotManager(tmp_path / "snapshots")
        path = manager.save(built_index, 1)
        _rewritten(path, path, lambda doc: doc.update(index="Flood"))
        assert persist._read_tree(path)["format"] == "repro-index-v2"
        before = path.read_bytes()
        with pytest.raises(OldFormatError, match="Flood"):
            load_index(path)
        with pytest.raises(OldFormatError, match="Flood"):
            manager.load()
        assert manager.generations() == [1]
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert path.read_bytes() == before

    @every_index
    def test_float32_state_refused_by_dtype_and_left_alone(
        self, cls, osm_points, tmp_path
    ):
        """A snapshot whose keys and nets are float32 was written by a
        float32 build: intact, so refused as an old format (its probes
        would map to float64 keys and miss) — neither served nor
        quarantined by the snapshot manager."""
        from repro.serve.snapshots import SnapshotManager

        index = cls(builder=_sp_builder(epochs=20)).build(osm_points)
        manager = SnapshotManager(tmp_path / "snapshots")
        path = manager.save(index, 1)
        _rewritten(path, path, lambda doc: doc.update(state=_cast_down(doc["state"])))
        before = path.read_bytes()
        with pytest.raises(OldFormatError, match="float32"):
            load_index(path)
        with pytest.raises(OldFormatError, match="float32"):
            manager.load()
        assert manager.generations() == [1]
        assert path.read_bytes() == before

    def test_unknown_index_name_rejected(self, built_index, tmp_path):
        save_index(built_index, tmp_path / "zm.npz")
        bad = _rewritten(
            tmp_path / "zm.npz",
            tmp_path / "bad.npz",
            lambda doc: doc.update(index="os.system"),
        )
        with pytest.raises(ValueError, match="os.system"):
            load_index(bad)

    def test_undeclared_constructor_parameter_rejected(self, built_index, tmp_path):
        """The file never chooses what the constructor is called with."""
        save_index(built_index, tmp_path / "zm.npz")
        bad = _rewritten(
            tmp_path / "zm.npz",
            tmp_path / "bad.npz",
            lambda doc: doc["state"]["params"].update(builder="not a builder"),
        )
        with pytest.raises(ValueError, match="'builder'"):
            load_index(bad)

    def test_missing_array_rejected(self, built_index, tmp_path):
        save_index(built_index, tmp_path / "zm.npz")
        with np.load(tmp_path / "zm.npz") as data:
            members = {name: data[name] for name in data.files}
        del members["a0"]
        np.savez_compressed(tmp_path / "bad.npz", **members)
        with pytest.raises(ValueError, match="array 'a0' .* is unreadable: KeyError"):
            load_index(tmp_path / "bad.npz")

    def test_damaged_files_raise_only_what_the_snapshot_manager_falls_back_on(
        self, built_index, osm_points, tmp_path
    ):
        """Deflate checks nothing before a member's closing CRC, so numpy
        can meet garbage; whatever it makes of it must surface as one of
        the "unusable file" types — or the file must still answer right."""
        from repro.serve.snapshots import _LOAD_ERRORS

        path, bad = tmp_path / "zm.npz", tmp_path / "bad.npz"
        save_index(built_index, path)
        intact = path.read_bytes()
        expected = built_index.point_queries(osm_points[::25])
        rng = np.random.default_rng(0)
        variants = [
            (int(offset), fill)
            for offset in np.linspace(0, len(intact) - 64, 150)
            for fill in (bytes(8), b"\xa5" * 64, rng.bytes(3))
        ]
        # zipfile's NotImplementedError: the central directory's
        # "version needed to extract" field.
        variants.append((intact.rindex(b"PK\x01\x02") + 6, b"\xa5\xa5"))
        refused = 0
        for offset, fill in variants:
            damaged = bytearray(intact)
            damaged[offset : offset + len(fill)] = fill
            bad.write_bytes(bytes(damaged))
            try:
                loaded = load_index(bad)
            except _LOAD_ERRORS:
                refused += 1
                continue
            np.testing.assert_array_equal(
                loaded.point_queries(osm_points[::25]), expected
            )
        assert refused > 0.9 * len(variants)

    def test_unknown_net_type_refused_on_save(self, built_index, tmp_path):
        built_index.model.stage1.net = object()
        with pytest.raises(TypeError, match="net of type object"):
            save_index(built_index, tmp_path / "x.npz")


# ----------------------------------------------------------------------
# The codec alone: any tree of dicts / lists / scalars / ndarrays
# ----------------------------------------------------------------------
_leaf_arrays = st.sampled_from(
    [np.float64, np.float32, np.int64, np.uint8, np.bool_]
).flatmap(
    lambda dtype: arrays(
        dtype, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
    )
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**62), 2**62)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_trees = st.recursive(
    _scalars | _leaf_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(tree=st.dictionaries(st.text(max_size=6), _trees, max_size=4))
def test_codec_round_trips_any_tree_bit_exactly(tree):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "tree.npz"
        persist._write_tree(tree, path)
        with np.load(path) as data:  # still a plain, pickle-free archive
            assert "meta" in data.files
        assert_trees_equal(tree, persist._read_tree(path))


def test_pla_state_round_trips():
    from repro.ml.pla import fit_pla

    x = np.sort(np.random.default_rng(0).random(200))
    model = fit_pla(x, np.linspace(0, 1, 200), 0.01)
    clone = PiecewiseLinearModel.from_state(model.state_dict())
    assert clone.n_segments == model.n_segments and clone.epsilon == model.epsilon
    assert clone.predict(x).tobytes() == model.predict(x).tobytes()
