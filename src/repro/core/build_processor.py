"""The ELSI build processor: Algorithm 1's ``compute_set`` + ``train`` path.

:class:`ELSIModelBuilder` is a :class:`~repro.indices.base.ModelBuilder`
that a base index uses in place of OG training.  Per model it:

1. picks a build method — fixed (``method=``), learned (``selector=``, the
   method scorer of Section IV-B1), or uniformly random (``random_choice=``,
   the "Rand" ablation of Table II);
2. runs the method's ``compute_set`` to obtain the reduced training set
   ``D_S`` (falling back SP → OG if the method fails, e.g. MR with no match
   within ε);
3. trains the index model on ``D_S`` — or loads MR's pre-trained weights;
4. measures the empirical error bounds over the *full* partition, which is
   the ``M(n)`` term of Section VI-B and what keeps predict-and-scan exact.

All component times are recorded in the index's
:class:`~repro.indices.base.BuildStats` for the Table I decomposition.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import ELSIConfig
from repro.core.methods.base import BuildMethod, MethodResult, make_method_pool
from repro.core.methods.model_reuse import MethodFailure
from repro.indices.base import BuildStats, MapFn, ModelBuilder, TrainedModel, fit_model
from repro.ml.trainer import TrainConfig
from repro.obs.trace import span as _span
from repro.spatial.cdf import uniform_dissimilarity

__all__ = ["ELSIModelBuilder"]


class ELSIModelBuilder(ModelBuilder):
    """ELSI's drop-in builder for any map-and-sort base index.

    Parameters
    ----------
    config:
        System parameters (method pool, λ, FFN hyperparameters, ...).
    selector:
        A trained method selector (``select(n, dist_u, applicable, lam, w_q)
        -> name``); when given, it drives method choice per model.
    method:
        Fixed method name; overrides the selector.
    random_choice:
        Pick uniformly among applicable methods (the Table II "Rand"
        ablation).
    """

    def __init__(
        self,
        config: ELSIConfig | None = None,
        selector=None,
        method: str | None = None,
        random_choice: bool = False,
    ) -> None:
        self.config = config or ELSIConfig()
        self.selector = selector
        self.fixed_method = method
        self.random_choice = random_choice
        self._rng = np.random.default_rng(self.config.seed)
        self.pool: list[BuildMethod] = make_method_pool(self.config)
        self._by_name = {m.name: m for m in self.pool}
        if method is not None and method not in self._by_name:
            raise ValueError(f"method {method!r} not in pool {sorted(self._by_name)}")
        if selector is None and method is None and not random_choice:
            # Sensible untrained default: SP is the cheapest safe reduction.
            self.fixed_method = "SP"

    # ------------------------------------------------------------------
    def _choose(self, sorted_keys: np.ndarray, map_fn: MapFn | None) -> BuildMethod:
        """Pick the build method for this partition (scorer invocation)."""
        applicable = [m for m in self.pool if m.applicable(map_fn)]
        if not applicable:
            raise RuntimeError("no applicable build method for this partition")
        if self.fixed_method is not None:
            chosen = self._by_name[self.fixed_method]
            if chosen.applicable(map_fn):
                return chosen
            # Fixed method inapplicable here (e.g. CL for LISA): fall back.
            return self._by_name.get("SP", applicable[0])
        if self.random_choice:
            return applicable[int(self._rng.integers(len(applicable)))]
        assert self.selector is not None
        dist_u = uniform_dissimilarity(sorted_keys, assume_sorted=True)
        name = self.selector.select(
            n=len(sorted_keys),
            dist_u=dist_u,
            methods=[m.name for m in applicable],
            lam=self.config.lam,
            w_q=self.config.w_q,
        )
        return self._by_name[name]

    def _fallback_chain(self, first: BuildMethod, map_fn: MapFn | None):
        """The chosen method, then SP, then OG (always applicable)."""
        chain = [first]
        for name in ("SP", "OG"):
            method = self._by_name.get(name)
            if method is not None and method is not first and method.applicable(map_fn):
                chain.append(method)
        return chain

    # ------------------------------------------------------------------
    def build_model(
        self,
        sorted_keys: np.ndarray,
        sorted_points: np.ndarray,
        stats: BuildStats,
        map_fn: MapFn | None = None,
    ) -> TrainedModel:
        """Algorithm 1 for one partition: choose a method, run its
        ``compute_set`` (the ``cost_ex`` term), then fit on ``D_S`` and
        measure the bounds over the full partition (:func:`fit_model`)."""
        n = len(sorted_keys)
        if n == 0:
            raise ValueError("cannot build a model over an empty partition")

        select_started = time.perf_counter()
        with _span("build.method_select", n=n) as sel_span:
            chosen = self._choose(sorted_keys, map_fn)
            sel_span.set(method=chosen.name)
        extra_seconds = time.perf_counter() - select_started

        result: MethodResult | None = None
        used: BuildMethod = chosen
        with _span("build.compute_set", method=chosen.name, n=n) as cs_span:
            for method in self._fallback_chain(chosen, map_fn):
                try:
                    result = method.compute_set(sorted_keys, sorted_points, map_fn)
                    used = method
                    break
                except MethodFailure:
                    continue
            if result is None:
                raise RuntimeError("every build method failed, including OG")
            cs_span.set(used=used.name, train_size=len(result.train_keys))
        extra_seconds += result.extra_seconds

        return fit_model(
            sorted_keys,
            result.train_keys,
            result.train_ranks,
            stats,
            hidden=self.config.hidden_size,
            train_config=TrainConfig(epochs=self.config.train_epochs),
            method_name=used.name,
            seed=self.config.seed,
            pretrained_state=result.pretrained_state,
            extra_seconds=extra_seconds,
        )
