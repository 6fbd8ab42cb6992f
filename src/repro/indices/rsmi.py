"""RSMI (Qi et al., PVLDB 2020): recursive spatial model index.

RSMI builds a hierarchy of space partitions: each node maps its points to a
space-filling-curve order *local to the node's bounding box*, learns a model
over that order, and routes points to ``fanout`` children by the model's own
prediction.  Because routing at query time repeats the build-time
computation exactly, point queries of indexed points always reach the right
leaf.  Window (and hence kNN) queries are *approximate*: the per-node models
are not monotone, so the child range predicted for a window's corner keys
can miss a child holding a matching point — this is the mechanism behind the
sub-100 % recall the paper reports for RSMI (Figure 12(b)).

Every node model is trained through the pluggable
:class:`~repro.indices.base.ModelBuilder`, which is exactly the multi-model
scenario Figure 3 illustrates ELSI accelerating (models M_{0,0}, M_{1,0},
M_{1,1} built one at a time).

The build is level-wise: each node of a level is sorted on its local
curve, fitted and split in turn, so the models are fitted breadth first
(one ``rsmi.fit_level`` span per level).  A fit by a fixed method is a
pure function of its partition, so the tree is the one a depth-first
recursion would build; a random-choice builder draws its methods in
breadth-first order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.indices.base import LearnedSpatialIndex, ModelBuilder, TrainedModel, group_by
from repro.indices.run import KeyedRun
from repro.obs.trace import span as _span
from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues
from repro.storage.blocks import BlockStore

__all__ = ["RSMIIndex"]


@dataclass
class _Node:
    """One RSMI partition: a model plus either children or, for a leaf, the
    keyed run its model was fitted over (``run.model is model``; the run's
    insert count widens the leaf's scans — no retraining on insert)."""

    bounds: Rect
    model: TrainedModel
    n: int
    children: list["_Node | None"] = field(default_factory=list)
    run: KeyedRun | None = None
    depth: int = 0

    def __post_init__(self) -> None:
        # Derived state for the window walk, set here and by :meth:`link`.
        # A window is a row ``[lo, -hi]``: it meets the box where the row
        # is ``<= [hi, -lo]`` (``reach``), and ``max(row, [lo, -hi])``
        # (``floor``) clips it to the box.
        lo, hi = self.bounds.lo_array, self.bounds.hi_array
        self.reach = np.concatenate((hi, -lo))
        self.floor = np.concatenate((lo, -hi))
        self._index_children()

    def link(self, branch: int, child: "_Node") -> None:
        """Put ``child`` in slot ``branch``."""
        self.children[branch] = child
        self._index_children()

    def _index_children(self) -> None:
        """The non-empty children, highest branch first (``kids``), and
        their branches as a column (``kid_branch``)."""
        slots = [
            b for b in reversed(range(len(self.children))) if self.children[b] is not None
        ]
        self.kids = [self.children[b] for b in slots]
        self.kid_branch = np.array(slots, dtype=np.int64)[:, None]

    @property
    def is_leaf(self) -> bool:
        return self.run is not None

    def state_dict(self) -> dict:
        """This node and its subtree — insertion-widened leaves
        (``inserts``) and the unbalanced subtrees built-in insertion
        produces included."""
        if self.run is None:
            pair, inserts = {"store": None, "model": self.model.state_dict()}, 0
        else:
            pair, inserts = self.run.state_dict(), self.run.inserts
        return {
            "bounds": [self.bounds.lo, self.bounds.hi],
            "model": pair["model"],
            "n": self.n,
            "children": [
                None if child is None else child.state_dict()
                for child in self.children
            ],
            "store": pair["store"],
            "depth": self.depth,
            "inserts": inserts,
        }

    @classmethod
    def from_state(cls, state: dict) -> "_Node":
        run = state["store"] and KeyedRun.from_state(state, inserts=state["inserts"])
        return cls(
            bounds=Rect.from_arrays(*state["bounds"]),
            model=run.model if run else TrainedModel.from_state(state["model"]),
            n=state["n"],
            children=[
                None if child is None else cls.from_state(child)
                for child in state["children"]
            ],
            run=run,
            depth=state["depth"],
        )


class RSMIIndex(LearnedSpatialIndex):
    """The RSMI learned spatial index.

    Parameters
    ----------
    leaf_capacity:
        Partitions at or below this size become leaves.
    fanout:
        Children per internal node.
    bits:
        Morton resolution for the per-node local curve.
    """

    name = "RSMI"
    state_params = ("leaf_capacity", "fanout", "bits")

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        leaf_capacity: int = 2_000,
        fanout: int = 4,
        bits: int = 16,
    ) -> None:
        super().__init__(builder, block_size)
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.bits = bits
        self.root: _Node | None = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, points: np.ndarray) -> "RSMIIndex":
        pts = self._prepare_points(points)
        self.bounds = Rect.bounding(pts)
        self.n_points = len(pts)
        with _span("rsmi.build", n=len(pts)) as build_span:
            self.root = self._build_subtree(pts, self.bounds, depth=0)
            build_span.set(models=self.n_models(), depth=self.depth())
        return self

    def _structure_state(self) -> dict:
        return {"root": self.root.state_dict()}

    def _restore_structure(self, state: dict) -> None:
        self.root = _Node.from_state(state["root"])

    def _nodes(self):
        """Every node of the hierarchy (a stack walk: a node before its
        subtree, later siblings' subtrees first)."""
        self._check_built()
        assert self.root is not None
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for c in node.children if c is not None)

    def runs(self):
        return (node.run for node in self._nodes() if node.is_leaf)

    def _node_keys(self, points: np.ndarray, bounds: Rect) -> np.ndarray:
        """Morton codes local to the node's bounding box, as float64 keys."""
        return zvalues(points, bounds, self.bits).astype(np.float64)

    def _sort_by_node_keys(
        self, points: np.ndarray, bounds: Rect
    ) -> tuple[np.ndarray, np.ndarray]:
        """Key-sort a partition on its node-local curve (timed as prepare)."""
        started = time.perf_counter()
        keys = self._node_keys(points, bounds)
        order = np.argsort(keys, kind="stable")
        sorted_pts = points[order]
        sorted_keys = keys[order]
        self.build_stats.prepare_seconds += time.perf_counter() - started
        return sorted_pts, sorted_keys

    def _split_specs(
        self, node: _Node, sorted_pts: np.ndarray, sorted_keys: np.ndarray
    ) -> "list[tuple[int, np.ndarray, Rect]]":
        """Decide leaf vs. split for a freshly modelled node.

        Returns the non-empty child partitions as ``(branch, points,
        bounds)`` in branch order — empty for a leaf.
        """
        leaf = len(sorted_pts) <= self.leaf_capacity or node.depth >= 16
        if not leaf:
            branch = self._route(node.model, sorted_keys, len(sorted_pts))
            # Degenerate model: everything routed to one child.  Fall back
            # to a leaf; the scan bounds still guarantee point lookups.
            leaf = np.bincount(branch, minlength=self.fanout).max() == len(sorted_pts)
        if leaf:
            store = BlockStore(sorted_pts, sorted_keys, block_size=self.block_size)
            node.run = KeyedRun(store, node.model)
            return []
        specs = []
        for b in range(self.fanout):
            mask = branch == b
            if mask.any():
                child_pts = sorted_pts[mask]
                specs.append((b, child_pts, Rect.bounding(child_pts)))
        return specs

    def _build_subtree(self, points: np.ndarray, bounds: Rect, depth: int) -> _Node:
        """Build a subtree one level at a time (full builds start at the
        root, leaf-overflow rebuilds at the old leaf's depth): each node of
        the level, in order, is key-sorted on its local curve, fitted,
        linked to its parent and split."""
        root: _Node | None = None
        # A frontier entry: (parent, branch, points, bounds); the root has
        # no parent.
        frontier: list = [(None, 0, points, bounds)]
        while frontier:
            deeper: list = []
            with _span("rsmi.fit_level", level=depth, nodes=len(frontier)):
                for parent, branch, pts, box in frontier:
                    sorted_pts, sorted_keys = self._sort_by_node_keys(pts, box)
                    model = self.builder.build_model(
                        sorted_keys,
                        sorted_pts,
                        self.build_stats,
                        lambda p, box=box: self._node_keys(p, box),
                    )
                    node = _Node(bounds=box, model=model, n=len(pts), depth=depth)
                    if parent is None:
                        root = node
                    else:
                        parent.link(branch, node)
                    specs = self._split_specs(node, sorted_pts, sorted_keys)
                    if specs:
                        node.children = [None] * self.fanout
                    deeper.extend((node, b, sub, sub_box) for b, sub, sub_box in specs)
            frontier = deeper
            depth += 1
        assert root is not None
        return root

    def _route(self, model: TrainedModel, keys: np.ndarray, n: int) -> np.ndarray:
        """Child assignment: the model's predicted rank, bucketed by fanout
        (positions are never negative, so only the top needs a bound)."""
        pos = model.predict_positions(keys)
        return np.minimum((pos * self.fanout) // max(n, 1), self.fanout - 1)

    # ------------------------------------------------------------------
    # Built-in insertion (the Figure 1 mechanism)
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> None:
        """RSMI's built-in insertion: route to a leaf by the existing
        models, append to the leaf's pages, and — when a leaf overflows —
        rebuild it *locally* into a subtree with new models.  Skewed
        insertions therefore deepen one region of the hierarchy while the
        rest stays shallow: the unbalanced structure of Figure 1."""
        self._check_built()
        assert self.root is not None
        q = np.asarray(point, dtype=np.float64)
        parent: _Node | None = None
        branch = -1
        node = self.root
        while not node.is_leaf:
            key = float(self._node_keys(q[None, :], node.bounds)[0])
            b = int(self._route(node.model, np.array([key]), node.n)[0])
            child = node.children[b]
            if child is None:
                # First point routed here: open a fresh single-point leaf.
                child = self._make_singleton_leaf(q, node.bounds, node.depth + 1)
                node.link(b, child)
                self.n_points += 1
                return
            parent, branch = node, b
            node = child
        node.run.insert(q, float(self._node_keys(q[None, :], node.bounds)[0]))
        self.n_points += 1
        store = node.run.store
        if len(store) > 2 * self.leaf_capacity and node.depth < 16:
            rebuilt = self._build_subtree(store.points, node.bounds, node.depth)
            if parent is None:
                self.root = rebuilt
            else:
                parent.link(branch, rebuilt)

    def _make_singleton_leaf(self, point: np.ndarray, bounds: Rect, depth: int) -> _Node:
        keys = self._node_keys(point[None, :], bounds)
        model = self.builder.build_model(keys, point[None, :], self.build_stats)
        store = BlockStore(point[None, :], keys, block_size=self.block_size)
        return _Node(bounds, model, n=1, run=KeyedRun(store, model), depth=depth)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_plan(self, pts: np.ndarray):
        """A level-wise descent: the probes at one node map and route
        together, one model invocation each per internal hop, so each
        repeats the build-time routing computation and an indexed point
        reaches the leaf that stores it.  A probe routed to an empty child
        slot is answered False."""
        assert self.root is not None
        leaves: list[KeyedRun] = []
        run = np.full(len(pts), -1, dtype=np.int64)
        keys = np.zeros(len(pts))
        # (node, the probes there, their coordinates) for one tree level.
        level = [(self.root, np.arange(len(pts)), pts)]
        while level:
            deeper = []
            for node, probes, at in level:
                node_keys = self._node_keys(at, node.bounds)
                if node.is_leaf:
                    run[probes] = len(leaves)
                    keys[probes] = node_keys
                    leaves.append(node.run)
                    continue
                self.query_stats.model_invocations += len(probes)
                branch = self._route(node.model, node_keys, node.n)
                for b, sub in group_by(branch, self.fanout):
                    if node.children[b] is not None:
                        deeper.append((node.children[b], probes[sub], at[sub]))
            level = deeper
        return leaves, run, keys

    def window_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """One tree walk shared by the whole batch, one entry per (leaf,
        window) it reaches.

        A single DFS carries the set of still-active windows through each
        node: per node, both corner keys of *every* active window map and
        predict in one model pass (charged as 2 ``model_invocations`` per
        window and visited node).  Each window descends into the child
        range its corner predictions bracket; the per-node models are not
        monotone, so that range can miss a child holding a match — RSMI's
        characteristic approximate recall.  Traversal is pre-order, so a
        window's result rows do not depend on what else is in the batch.
        """
        assert self.root is not None
        leaves: list[KeyedRun] = []
        empty = np.empty(0, dtype=np.int64)
        run, lo_parts, hi_parts, owner = [empty], [empty], [empty], [empty]
        d = win_lo.shape[1]
        top = self.fanout - 1
        # Each window as one row ``[lo, -hi]`` (see ``_Node.reach``): one
        # comparison tests it against a box, one maximum clips it.
        signed = np.concatenate((win_lo, -win_hi), axis=1)
        stack: list[tuple[_Node, np.ndarray]] = [(self.root, np.arange(len(win_lo)))]
        while stack:
            node, active = stack.pop()
            rows = signed.take(active, axis=0)
            # Closed-box intersection test (touching counts), vectorised
            # over the active windows — mirrors Rect.intersects.
            hit = np.logical_and.reduce(rows <= node.reach, axis=1)
            active = active[hit]
            w = len(active)
            if w == 0:
                continue
            # Clip each window to the node's box before mapping, so
            # corner codes stay inside the local curve's domain.
            clipped = np.maximum(rows[hit], node.floor)
            z = self._node_keys(
                np.concatenate((clipped[:, :d], -clipped[:, d:])), node.bounds
            )
            self.query_stats.model_invocations += 2 * w
            lo_all, hi_all = node.model.search_ranges(z)
            pos_lo, pos_hi = lo_all[:w], hi_all[w:]
            if node.is_leaf:
                pos_lo, pos_hi = node.run.scan_bounds(pos_lo, pos_hi)
                run.append(np.full(w, len(leaves)))
                lo_parts.append(pos_lo)
                hi_parts.append(pos_hi)
                owner.append(active)
                leaves.append(node.run)
                continue
            # The child range each window's corner predictions bracket (a
            # low position is never negative, so only its top is bounded).
            n = max(node.n, 1)
            b_lo = np.minimum((pos_lo * self.fanout) // n, top)
            b_hi = np.maximum(np.minimum(((pos_hi - 1) * self.fanout) // n, top), 0)
            branch = node.kid_branch
            reached = (b_lo <= branch) & (branch <= b_hi)
            # Children pushed high-branch-first, so the LIFO pop visits
            # each window's children in ascending pre-order.
            for child, mask in zip(node.kids, reached):
                sub = active[mask]
                if len(sub):
                    stack.append((child, sub))
        return leaves, *map(np.concatenate, (run, lo_parts, hi_parts, owner))

    def _knn_first_sides(self, pts: np.ndarray, k: int) -> np.ndarray:
        """First kNN window sides from each query's leaf: :meth:`point_plan`
        names it (its routing charged as a point lookup's), and the 2k rows
        around the query's rank among the leaf's keys set the side
        (:meth:`~repro.indices.base.LearnedSpatialIndex._store_seed_sides`).
        Those rows are indexed points, so a leaf of at least k rows
        certifies the side; a query routed to an empty slot or to a smaller
        leaf keeps the global-density guess."""
        sides = super()._knn_first_sides(pts, k)
        with _span("query.knn_seed", index=self.name, queries=len(pts), k=k):
            leaves, run, keys = self.point_plan(pts)
            for r, rows in group_by(run, len(leaves)):
                store = leaves[r].store
                if len(store) >= k:
                    sides[rows] = self._store_seed_sides(store, pts[rows], keys[rows], k)
        return sides

    def map(self, points: np.ndarray) -> np.ndarray:
        """Global Morton keys over the root bounds (CDF tracking only;
        per-node queries use node-local curves)."""
        self._check_built()
        assert self.bounds is not None
        return self._node_keys(np.atleast_2d(np.asarray(points, dtype=np.float64)), self.bounds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum leaf depth (the rebuild predictor's index-depth feature)."""
        return max(node.depth for node in self._nodes() if node.is_leaf)

    def n_models(self) -> int:
        """Number of learned models in the hierarchy."""
        return sum(1 for _ in self._nodes())

    @property
    def error_width(self) -> int:
        """Worst node-model ``err_l + err_u``."""
        return max(node.model.error_width for node in self._nodes())
