"""Index persistence: save a built learned index to disk and load it back.

A production system rebuilds rarely (the whole point of ELSI) and reopens
often, so built indices must round-trip through storage.  Persistence
covers the store-based indices the serving layer can host — ZM, ML-Index,
LISA and Flood — and RSMI's recursive node tree, which flattens to a
pre-order node list (so serving snapshots work for all five indices).

Format: a single ``.npz`` with JSON-encoded structural metadata and numpy
arrays for points/keys/model weights.  FFN (float64 or float32-cast, see
``ELSIConfig.dtype``) and PLA model states are both supported.  Fused
inference engines (:mod:`repro.perf.fused_infer`) are derived state:
loaders rebuild them from the restored models rather than persisting
stacked arrays.  :func:`save_index` / :func:`load_index` dispatch on the
index type (saving) and the embedded format tag (loading).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.indices.base import TrainedModel
from repro.indices.flood import FloodIndex
from repro.indices.lisa import LISAIndex
from repro.indices.ml_index import MLIndex
from repro.indices.rmi import RMIModel
from repro.indices.rsmi import RSMIIndex
from repro.indices.rsmi import _Node as _RSMINode
from repro.indices.zm import ZMIndex
from repro.ml.ffn import FFN
from repro.ml.pla import PiecewiseLinearModel, _Segment
from repro.spatial.idistance import IDistanceMapping
from repro.spatial.rect import Rect
from repro.storage.blocks import BlockStore

__all__ = [
    "load_flood_index",
    "load_index",
    "load_lisa_index",
    "load_ml_index",
    "load_rsmi_index",
    "load_zm_index",
    "save_flood_index",
    "save_index",
    "save_lisa_index",
    "save_ml_index",
    "save_rsmi_index",
    "save_zm_index",
]


def _model_payload(model: TrainedModel, prefix: str, arrays: dict) -> dict:
    """Serialise one TrainedModel; weights go to ``arrays`` under ``prefix``."""
    meta = {
        "key_lo": model.key_lo,
        "key_hi": model.key_hi,
        "n_indexed": model.n_indexed,
        "method_name": model.method_name,
        "train_set_size": model.train_set_size,
        "err_l": model.err_l,
        "err_u": model.err_u,
    }
    net = model.net
    if isinstance(net, FFN):
        meta["net_type"] = "ffn"
        meta["layer_sizes"] = net.layer_sizes
        # Record the inference precision so float32-cast networks (see
        # ``ELSIConfig.dtype``) round-trip with their measured bounds.
        meta["net_dtype"] = str(net.weights[0].dtype)
        for name, value in net.state_dict().items():
            arrays[f"{prefix}.{name}"] = value
    elif isinstance(net, PiecewiseLinearModel):
        meta["net_type"] = "pla"
        meta["epsilon"] = net.epsilon
        arrays[f"{prefix}.starts"] = net._starts
        arrays[f"{prefix}.slopes"] = net._slopes
        arrays[f"{prefix}.anchors_x"] = net._anchors_x
        arrays[f"{prefix}.anchors_y"] = net._anchors_y
    else:
        raise TypeError(f"cannot persist model net of type {type(net).__name__}")
    return meta


def _model_from_payload(meta: dict, prefix: str, arrays) -> TrainedModel:
    if meta["net_type"] == "ffn":
        net = FFN(list(meta["layer_sizes"]))
        state = {}
        for i in range(net.n_layers):
            state[f"w{i}"] = arrays[f"{prefix}.w{i}"]
            state[f"b{i}"] = arrays[f"{prefix}.b{i}"]
        net.load_state_dict(state)
        if meta.get("net_dtype", "float64") == "float32":
            # The saved bounds were measured under float32 arithmetic, so
            # the restored network must predict under the same precision.
            net.astype(np.float32)
    elif meta["net_type"] == "pla":
        segments = [
            _Segment(start=float(s), slope=float(m), anchor_x=float(ax), anchor_y=float(ay))
            for s, m, ax, ay in zip(
                arrays[f"{prefix}.starts"],
                arrays[f"{prefix}.slopes"],
                arrays[f"{prefix}.anchors_x"],
                arrays[f"{prefix}.anchors_y"],
            )
        ]
        net = PiecewiseLinearModel(segments, epsilon=meta["epsilon"])
    else:
        raise ValueError(f"unknown net type {meta['net_type']!r}")
    model = TrainedModel(
        net=net,
        key_lo=meta["key_lo"],
        key_hi=meta["key_hi"],
        n_indexed=meta["n_indexed"],
        method_name=meta["method_name"],
        train_set_size=meta["train_set_size"],
    )
    model.err_l = meta["err_l"]
    model.err_u = meta["err_u"]
    return model


# ----------------------------------------------------------------------
# Shared pieces: block stores and RMI hierarchies
# ----------------------------------------------------------------------
def _store_arrays(store: BlockStore, prefix: str, arrays: dict) -> None:
    arrays[f"{prefix}points"] = store.points
    arrays[f"{prefix}keys"] = store.keys
    arrays[f"{prefix}ids"] = store.ids


def _store_from_arrays(data, prefix: str, block_size: int) -> BlockStore:
    """Rebuild a store without re-sorting (arrays are already sorted)."""
    store = BlockStore.__new__(BlockStore)
    store.points = data[f"{prefix}points"]
    store.keys = data[f"{prefix}keys"]
    store.ids = data[f"{prefix}ids"]
    store.block_size = block_size
    store._reads = 0
    return store


def _restore_key_dtype(index, keys: np.ndarray) -> None:
    """Pin the loaded index's key dtype to the snapshot's stored keys.

    The snapshot's quantisation is authoritative: probe keys must go
    through the same cast the stored keys did at build time, whatever
    ``REPRO_DTYPE`` the *loading* process runs under — otherwise equal
    coordinates would map to unequal keys and point lookups would miss.
    """
    if np.issubdtype(keys.dtype, np.floating):
        index.key_dtype = np.dtype(keys.dtype)


def _rmi_payload(model: RMIModel, arrays: dict, prefix: str = "m") -> dict:
    meta = {
        "stage1": _model_payload(model.stage1, f"{prefix}0", arrays),
        "stage2": [],
        "stage2_positions": [],
        "rmi_n": model.n,
    }
    for i, member in enumerate(model.stage2):
        if member is model.stage1:
            meta["stage2"].append(None)
        else:
            meta["stage2"].append(_model_payload(member, f"{prefix}{i + 1}", arrays))
        arrays[f"{prefix}pos{i}"] = model._stage2_positions[i]
        meta["stage2_positions"].append(f"{prefix}pos{i}")
    return meta


def _rmi_from_payload(
    meta: dict,
    data,
    builder,
    branching: int,
    prefix: str = "m",
    sorted_keys: np.ndarray | None = None,
) -> RMIModel:
    rmi = RMIModel(builder, branching=branching)
    rmi.n = meta["rmi_n"]
    rmi.stage1 = _model_from_payload(meta["stage1"], f"{prefix}0", data)
    rmi.stage2 = []
    rmi._stage2_positions = []
    for i, payload in enumerate(meta["stage2"]):
        if payload is None:
            rmi.stage2.append(rmi.stage1)
        else:
            rmi.stage2.append(_model_from_payload(payload, f"{prefix}{i + 1}", data))
        rmi._stage2_positions.append(data[meta["stage2_positions"][i]])
    if sorted_keys is not None:
        # The fused inference engine is derived state: rebuild it (with
        # freshly re-measured fused bounds) rather than persisting it.
        rmi.fuse_inference(sorted_keys)
    return rmi


def _write(path: str | Path, meta: dict, arrays: dict) -> None:
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(Path(path), **arrays)


def _read_meta(data) -> dict:
    return json.loads(bytes(data["meta"].tobytes()).decode())


# ----------------------------------------------------------------------
# ZM
# ----------------------------------------------------------------------
def save_zm_index(index: ZMIndex, path: str | Path) -> None:
    """Persist a built ZM index to ``path`` (.npz)."""
    if index.store is None or index.model is None or index.bounds is None:
        raise ValueError("the index must be built before saving")
    arrays: dict[str, np.ndarray] = {}
    _store_arrays(index.store, "", arrays)
    meta = {
        "format": "repro-zm-v1",
        "bits": index.bits,
        "block_size": index.block_size,
        "branching": index.branching,
        "n_points": index.n_points,
        "bounds_lo": list(index.bounds.lo),
        "bounds_hi": list(index.bounds.hi),
        "native_inserts": index._native_inserts,
    }
    meta.update(_rmi_payload(index.model, arrays, prefix="m"))
    # Legacy "repro-zm-v1" spelling: stage-1 payload under "stage1" etc.
    # with position arrays named pos{i}; keep the names byte-compatible.
    for i in range(len(index.model.stage2)):
        arrays[f"pos{i}"] = arrays.pop(f"mpos{i}")
        meta["stage2_positions"][i] = f"pos{i}"
    _write(path, meta, arrays)


def load_zm_index(path: str | Path) -> ZMIndex:
    """Load a ZM index saved by :func:`save_zm_index`; queryable immediately."""
    with np.load(Path(path)) as data:
        meta = _read_meta(data)
        if meta.get("format") != "repro-zm-v1":
            raise ValueError(f"not a repro ZM index file: {path}")
        index = ZMIndex(
            block_size=meta["block_size"],
            bits=meta["bits"],
            branching=meta["branching"],
        )
        index.bounds = Rect(tuple(meta["bounds_lo"]), tuple(meta["bounds_hi"]))
        index.n_points = meta["n_points"]
        index._native_inserts = meta["native_inserts"]
        index.store = _store_from_arrays(data, "", meta["block_size"])
        _restore_key_dtype(index, index.store.keys)
        index.model = _rmi_from_payload(
            meta, data, index.builder, meta["branching"], prefix="m",
            sorted_keys=index.store.keys,
        )
    return index


# ----------------------------------------------------------------------
# ML-Index
# ----------------------------------------------------------------------
def save_ml_index(index: MLIndex, path: str | Path) -> None:
    """Persist a built ML-Index to ``path`` (.npz)."""
    if index.store is None or index.model is None or index.mapping is None:
        raise ValueError("the index must be built before saving")
    assert index.bounds is not None
    arrays: dict[str, np.ndarray] = {"references": index.mapping.references}
    _store_arrays(index.store, "", arrays)
    meta = {
        "format": "repro-ml-v1",
        "block_size": index.block_size,
        "n_references": index.n_references,
        "branching": index.branching,
        "seed": index.seed,
        "stretch": index.mapping.stretch,
        "n_points": index.n_points,
        "bounds_lo": list(index.bounds.lo),
        "bounds_hi": list(index.bounds.hi),
        "native_inserts": index._native_inserts,
    }
    meta.update(_rmi_payload(index.model, arrays, prefix="m"))
    _write(path, meta, arrays)


def load_ml_index(path: str | Path) -> MLIndex:
    """Load an ML-Index saved by :func:`save_ml_index`."""
    with np.load(Path(path)) as data:
        meta = _read_meta(data)
        if meta.get("format") != "repro-ml-v1":
            raise ValueError(f"not a repro ML index file: {path}")
        index = MLIndex(
            block_size=meta["block_size"],
            n_references=meta["n_references"],
            branching=meta["branching"],
            seed=meta["seed"],
        )
        index.bounds = Rect(tuple(meta["bounds_lo"]), tuple(meta["bounds_hi"]))
        index.n_points = meta["n_points"]
        index._native_inserts = meta["native_inserts"]
        index.mapping = IDistanceMapping(
            references=data["references"], stretch=meta["stretch"]
        )
        index.store = _store_from_arrays(data, "", meta["block_size"])
        _restore_key_dtype(index, index.store.keys)
        index.model = _rmi_from_payload(
            meta, data, index.builder, meta["branching"], prefix="m",
            sorted_keys=index.store.keys,
        )
    return index


# ----------------------------------------------------------------------
# LISA
# ----------------------------------------------------------------------
def save_lisa_index(index: LISAIndex, path: str | Path) -> None:
    """Persist a built LISA index to ``path`` (.npz)."""
    if index.store is None or index.model is None or index._boundaries is None:
        raise ValueError("the index must be built before saving")
    assert index.bounds is not None and index._weights is not None
    arrays: dict[str, np.ndarray] = {"weights": index._weights}
    for dim, edges in enumerate(index._boundaries):
        arrays[f"boundaries{dim}"] = edges
    _store_arrays(index.store, "", arrays)
    meta = {
        "format": "repro-lisa-v1",
        "block_size": index.block_size,
        "grid_size": index.grid_size,
        "shard_size": index.shard_size,
        "n_axes": len(index._boundaries),
        "n_points": index.n_points,
        "bounds_lo": list(index.bounds.lo),
        "bounds_hi": list(index.bounds.hi),
        "native_inserts": index._native_inserts,
    }
    meta.update(_rmi_payload(index.model, arrays, prefix="m"))
    _write(path, meta, arrays)


def load_lisa_index(path: str | Path) -> LISAIndex:
    """Load a LISA index saved by :func:`save_lisa_index`."""
    with np.load(Path(path)) as data:
        meta = _read_meta(data)
        if meta.get("format") != "repro-lisa-v1":
            raise ValueError(f"not a repro LISA index file: {path}")
        index = LISAIndex(
            block_size=meta["block_size"],
            grid_size=meta["grid_size"],
            shard_size=meta["shard_size"],
        )
        index.bounds = Rect(tuple(meta["bounds_lo"]), tuple(meta["bounds_hi"]))
        index.n_points = meta["n_points"]
        index._native_inserts = meta["native_inserts"]
        index._boundaries = [
            data[f"boundaries{dim}"] for dim in range(meta["n_axes"])
        ]
        index._weights = data["weights"]
        index.store = _store_from_arrays(data, "", meta["block_size"])
        _restore_key_dtype(index, index.store.keys)
        index.model = _rmi_from_payload(meta, data, index.builder, 1, prefix="m")
    return index


# ----------------------------------------------------------------------
# Flood
# ----------------------------------------------------------------------
def save_flood_index(index: FloodIndex, path: str | Path) -> None:
    """Persist a built Flood index to ``path`` (.npz)."""
    if index._column_edges is None or index.bounds is None:
        raise ValueError("the index must be built before saving")
    arrays: dict[str, np.ndarray] = {"column_edges": index._column_edges}
    columns = []
    for c, (store, model) in enumerate(zip(index._stores, index._models)):
        if store is None or model is None:
            columns.append(None)
            continue
        _store_arrays(store, f"c{c}.", arrays)
        columns.append(_model_payload(model, f"c{c}.m", arrays))
    meta = {
        "format": "repro-flood-v1",
        "block_size": index.block_size,
        "n_columns": index.n_columns,
        "n_points": index.n_points,
        "bounds_lo": list(index.bounds.lo),
        "bounds_hi": list(index.bounds.hi),
        "columns": columns,
    }
    _write(path, meta, arrays)


def load_flood_index(path: str | Path) -> FloodIndex:
    """Load a Flood index saved by :func:`save_flood_index`."""
    with np.load(Path(path)) as data:
        meta = _read_meta(data)
        if meta.get("format") != "repro-flood-v1":
            raise ValueError(f"not a repro Flood index file: {path}")
        index = FloodIndex(
            block_size=meta["block_size"], n_columns=meta["n_columns"]
        )
        index.bounds = Rect(tuple(meta["bounds_lo"]), tuple(meta["bounds_hi"]))
        index.n_points = meta["n_points"]
        index._column_edges = data["column_edges"]
        index._stores = []
        index._models = []
        for c, payload in enumerate(meta["columns"]):
            if payload is None:
                index._stores.append(None)
                index._models.append(None)
                continue
            index._stores.append(
                _store_from_arrays(data, f"c{c}.", meta["block_size"])
            )
            index._models.append(_model_from_payload(payload, f"c{c}.m", data))
        for store in index._stores:
            if store is not None:
                _restore_key_dtype(index, store.keys)
                break
        index._fuse_columns()
    return index


# ----------------------------------------------------------------------
# RSMI
# ----------------------------------------------------------------------
def save_rsmi_index(index: RSMIIndex, path: str | Path) -> None:
    """Persist a built RSMI index to ``path`` (.npz).

    The node tree flattens in depth-first pre-order: node ``i`` stores its
    model arrays under ``n{i}.m``, its leaf store (if any) under ``n{i}s.``
    and its children as a list of node ids, so the loader rebuilds the
    exact hierarchy — including insertion-widened leaves (``inserts``) and
    the unbalanced subtrees that built-in insertion produces.
    """
    if index.root is None or index.bounds is None:
        raise ValueError("the index must be built before saving")
    arrays: dict[str, np.ndarray] = {}
    nodes: list[dict] = []

    def _visit(node: _RSMINode) -> int:
        nid = len(nodes)
        entry: dict = {
            "bounds_lo": list(node.bounds.lo),
            "bounds_hi": list(node.bounds.hi),
            "n": node.n,
            "depth": node.depth,
            "inserts": node.inserts,
            "children": None,
        }
        nodes.append(entry)  # reserve the slot first: ids are pre-order
        entry["model"] = _model_payload(node.model, f"n{nid}.m", arrays)
        if node.is_leaf:
            assert node.store is not None
            _store_arrays(node.store, f"n{nid}s.", arrays)
        else:
            entry["children"] = [
                None if child is None else _visit(child)
                for child in node.children
            ]
        return nid

    _visit(index.root)
    meta = {
        "format": "repro-rsmi-v1",
        "block_size": index.block_size,
        "leaf_capacity": index.leaf_capacity,
        "fanout": index.fanout,
        "bits": index.bits,
        "n_points": index.n_points,
        "bounds_lo": list(index.bounds.lo),
        "bounds_hi": list(index.bounds.hi),
        "nodes": nodes,
    }
    _write(path, meta, arrays)


def load_rsmi_index(path: str | Path) -> RSMIIndex:
    """Load an RSMI index saved by :func:`save_rsmi_index`.

    Snapshots written while RSMI had two build strategies carry a
    ``build_strategy`` key; it is ignored (the strategies built the same
    tree, and the tree is what the file stores).
    """
    with np.load(Path(path)) as data:
        meta = _read_meta(data)
        if meta.get("format") != "repro-rsmi-v1":
            raise ValueError(f"not a repro RSMI index file: {path}")
        index = RSMIIndex(
            block_size=meta["block_size"],
            leaf_capacity=meta["leaf_capacity"],
            fanout=meta["fanout"],
            bits=meta["bits"],
        )
        index.bounds = Rect(tuple(meta["bounds_lo"]), tuple(meta["bounds_hi"]))
        index.n_points = meta["n_points"]
        built: list[_RSMINode] = []
        for nid, entry in enumerate(meta["nodes"]):
            node = _RSMINode(
                bounds=Rect(tuple(entry["bounds_lo"]), tuple(entry["bounds_hi"])),
                model=_model_from_payload(entry["model"], f"n{nid}.m", data),
                n=entry["n"],
                depth=entry["depth"],
                inserts=entry["inserts"],
            )
            if entry["children"] is None:
                node.store = _store_from_arrays(data, f"n{nid}s.", meta["block_size"])
            built.append(node)
        # Children ids are strictly greater than the parent's (pre-order),
        # so every referenced node already exists when wiring runs.
        for entry, node in zip(meta["nodes"], built):
            if entry["children"] is not None:
                node.children = [
                    None if cid is None else built[cid] for cid in entry["children"]
                ]
        for node in built:
            if node.store is not None:
                _restore_key_dtype(index, node.store.keys)
                break
        index.root = built[0]
    return index


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
_SAVERS = {
    ZMIndex: save_zm_index,
    MLIndex: save_ml_index,
    LISAIndex: save_lisa_index,
    FloodIndex: save_flood_index,
    RSMIIndex: save_rsmi_index,
}
_LOADERS = {
    "repro-zm-v1": load_zm_index,
    "repro-ml-v1": load_ml_index,
    "repro-lisa-v1": load_lisa_index,
    "repro-flood-v1": load_flood_index,
    "repro-rsmi-v1": load_rsmi_index,
}


def save_index(index, path: str | Path) -> None:
    """Persist any supported built index, dispatching on its type.

    Supports the store-based indices (ZM, ML, LISA, Flood) and RSMI's
    recursive node tree; anything else (traditional baselines) raises
    ``TypeError`` naming the supported set.
    """
    saver = _SAVERS.get(type(index))
    if saver is None:
        supported = ", ".join(sorted(cls.name for cls in _SAVERS))
        raise TypeError(
            f"no persistence support for {type(index).__name__}; "
            f"supported index types: {supported}"
        )
    saver(index, path)


def load_index(path: str | Path):
    """Load any index saved by :func:`save_index`, dispatching on format."""
    with np.load(Path(path)) as data:
        if "meta" not in data:
            raise ValueError(f"not a repro index file (no meta entry): {path}")
        fmt = _read_meta(data).get("format")
    loader = _LOADERS.get(fmt)
    if loader is None:
        known = ", ".join(sorted(_LOADERS))
        raise ValueError(
            f"unknown index format {fmt!r} in {path}; known formats: {known}"
        )
    return loader(path)
