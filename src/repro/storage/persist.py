"""Index persistence: save a built learned index to disk and load it back.

A production system rebuilds rarely (the whole point of ELSI) and reopens
often, so built indices must round-trip through storage.  What an index's
durable state *is* belongs to the index: every concrete
:class:`~repro.indices.base.LearnedSpatialIndex` returns it as a plain tree
of dicts, lists, scalars and ndarrays (``state_dict()``) and rebuilds
itself from one (``from_state()``).  This module only moves such a tree to
and from one ``.npz``: every ndarray is lifted out into an archive member
and the rest is JSON (``allow_pickle`` stays off, so loading runs no code
from the file).  Derived state — a leaf set's per-member arrays — is
never written; ``from_state()`` rebuilds it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.indices import LEARNED_INDICES

__all__ = ["load_index", "save_index"]

#: The one format tag.  Files from before the state protocol carry a
#: ``repro-<index>-v1`` tag and no reader for them is kept.
FORMAT = "repro-index-v2"

#: A dict of this one key stands where the tree held ndarray number ``i``.
_ARRAY = "__ndarray__"

class OldFormatError(Exception):
    """The file is an intact snapshot in a format no longer read: a retired
    format tag, or key columns / nets stored as float32 by a build from
    before every index stored float64 (its probes would map to float64
    keys and miss).

    Deliberately not a ``ValueError``: the file is not damaged, so the
    snapshot manager must not quarantine it as corrupt.
    """


def _lift(tree, arrays: dict):
    """Copy of ``tree`` with each ndarray moved into ``arrays``."""
    if isinstance(tree, np.ndarray):
        arrays[f"a{len(arrays)}"] = tree
        return {_ARRAY: len(arrays) - 1}
    if isinstance(tree, dict):
        return {key: _lift(value, arrays) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_lift(value, arrays) for value in tree]
    return tree


def _member(arrays, name: str, path: Path) -> np.ndarray:
    """One array of the archive at ``path``.

    Deflate checks nothing before a member's closing CRC, so damage near a
    member's start reaches numpy's header parser as garbage, and what that
    raises has no one type (``zlib.error``, ``TokenError``, ...): here it
    all becomes the ``ValueError`` callers treat as "unusable file".
    """
    try:
        member = arrays[name]
    except Exception as exc:  # a missing member (KeyError) included
        raise ValueError(f"array {name!r} of {path} is unreadable: {exc!r}") from exc
    if not isinstance(member, np.ndarray):  # no .npy magic: numpy hands back bytes
        raise ValueError(f"member {name!r} of {path} is not an array")
    return member


def _lower(tree, arrays, path: Path):
    """Inverse of :func:`_lift`: put each ndarray back where it stood."""
    if isinstance(tree, dict):
        if tree.keys() == {_ARRAY}:
            return _member(arrays, f"a{tree[_ARRAY]}", path)
        return {key: _lower(value, arrays, path) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_lower(value, arrays, path) for value in tree]
    return tree


def _dtypes(tree) -> set:
    """The dtypes of every ndarray in ``tree``."""
    if isinstance(tree, np.ndarray):
        return {tree.dtype}
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return set().union(*map(_dtypes, tree))
    return set()


def _write_tree(tree, path: str | Path) -> None:
    arrays: dict[str, np.ndarray] = {}
    document = json.dumps(_lift(tree, arrays))
    arrays["meta"] = np.frombuffer(document.encode(), dtype=np.uint8)
    np.savez_compressed(Path(path), **arrays)


def _read_tree(path: Path) -> dict:
    try:
        archive = np.load(path)
    except NotImplementedError as exc:  # zipfile, on a damaged version field
        raise ValueError(f"{path} is not a readable archive: {exc}") from exc
    with archive as arrays:
        if "meta" not in arrays:
            raise ValueError(f"not a repro index file (no meta entry): {path}")
        document = json.loads(_member(arrays, "meta", path).tobytes().decode())
        if not isinstance(document, dict):
            raise ValueError(f"not a repro index file (meta is no object): {path}")
        return _lower(document, arrays, path)


def save_index(index, path: str | Path) -> None:
    """Persist a built index as one compressed ``.npz``.

    Any concrete :class:`~repro.indices.base.LearnedSpatialIndex` is
    supported; anything else (traditional baselines) raises ``TypeError``
    naming the supported set, an unbuilt index ``ValueError``.
    """
    if type(index) not in LEARNED_INDICES.values():
        raise TypeError(
            f"no persistence support for {type(index).__name__}; "
            f"supported index types: {', '.join(sorted(LEARNED_INDICES))}"
        )
    _write_tree(
        {"format": FORMAT, "index": index.name, "state": index.state_dict()}, path
    )


def load_index(path: str | Path):
    """Load an index saved by :func:`save_index`; queryable immediately.

    The file is outside input: a tag other than :data:`FORMAT`, an index
    name or constructor parameter no class declares, or a reference to an
    array the archive lacks raises ``ValueError`` naming it — except a
    pre-protocol ``repro-*-v1`` tag or a float32 state, which raise
    :class:`OldFormatError`.
    """
    path = Path(path)
    document = _read_tree(path)
    fmt = document.get("format")
    if isinstance(fmt, str) and fmt.startswith("repro-") and fmt.endswith("-v1"):
        raise OldFormatError(
            f"{path} has the retired format tag {fmt!r}; this version reads "
            f"{FORMAT!r} only — rebuild the index and save it again"
        )
    if fmt != FORMAT:
        raise ValueError(f"unknown index format {fmt!r} in {path}")
    name = document.get("index")
    cls = LEARNED_INDICES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            f"unknown index name {name!r} in {path}; "
            f"known names: {', '.join(sorted(LEARNED_INDICES))}"
        )
    if np.dtype(np.float32) in _dtypes(document["state"]):
        raise OldFormatError(
            f"{path} stores float32 keys or nets, written by a float32 build; "
            f"this version stores float64 only — rebuild the index and save it again"
        )
    return cls.from_state(document["state"])
