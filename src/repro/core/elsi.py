"""The ELSI system facade (Figure 3).

Ties the pieces together behind the paper's three APIs:

- ``build``: construct a base index through the ELSI build processor
  (Algorithm 1), with the method chosen per model by the trained selector,
  a fixed method, or the Rand ablation;
- ``update``: wrap a built index in the update processor (side list +
  rebuild predictor);
- ``to_rebuild``: exposed through the returned
  :class:`~repro.core.update_processor.UpdateProcessor`.

Typical use::

    elsi = ELSI(ELSIConfig(lam=0.8))
    elsi.train_selector(lambda b: ZMIndex(builder=b))   # one-off preparation
    index = elsi.build(ZMIndex, points)                 # fast build
    processor = elsi.updates(index)                     # side-list updates
"""

from __future__ import annotations

import numpy as np

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.scorer import MethodScorer
from repro.core.selector import collect_selector_data, train_ffn_selector
from repro.core.update_processor import RebuildPredictor, UpdateProcessor
from repro.indices.base import LearnedSpatialIndex
from repro.obs.trace import span as _span

__all__ = ["ELSI"]


class ELSI:
    """The efficient-learning-of-spatial-indices system.

    Parameters
    ----------
    config:
        System parameters (λ, w_Q, method pool, method hyperparameters).
    selector:
        A pre-trained method scorer; ``train_selector`` fits one in-process.
    rebuild_predictor:
        A pre-trained rebuild predictor for the update processor.
    """

    def __init__(
        self,
        config: ELSIConfig | None = None,
        selector: MethodScorer | None = None,
        rebuild_predictor: RebuildPredictor | None = None,
    ) -> None:
        self.config = config or ELSIConfig()
        self.selector = selector
        self.rebuild_predictor = rebuild_predictor

    # ------------------------------------------------------------------
    # Preparation (offline, one-off — Section VII-B2)
    # ------------------------------------------------------------------
    def train_selector(
        self,
        index_factory,
        cardinalities: tuple[int, ...] = (500, 1_000, 2_000, 5_000, 10_000),
        deltas: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        n_queries: int = 200,
        seed: int = 0,
    ) -> MethodScorer:
        """Collect ground truth and fit the FFN method scorer."""
        records = collect_selector_data(
            index_factory,
            config=self.config,
            cardinalities=cardinalities,
            deltas=deltas,
            n_queries=n_queries,
            seed=seed,
        )
        self.selector = train_ffn_selector(
            records, method_names=tuple(self.config.methods), seed=seed
        )
        return self.selector

    # ------------------------------------------------------------------
    # Build (Algorithm 1 behind a base index)
    # ------------------------------------------------------------------
    def builder(
        self, method: str | None = None, random_choice: bool = False
    ) -> ELSIModelBuilder:
        """An ELSI model builder to hand to any base index constructor.

        Without arguments, uses the trained selector when available, else
        the SP default.  ``method`` forces a fixed method, ``random_choice``
        gives the Table II "Rand" ablation.
        """
        selector = None if (method or random_choice) else self.selector
        return ELSIModelBuilder(
            self.config,
            selector=selector,
            method=method,
            random_choice=random_choice,
        )

    def build(
        self,
        index_class: type[LearnedSpatialIndex],
        points: np.ndarray,
        method: str | None = None,
        random_choice: bool = False,
        **index_kwargs,
    ) -> LearnedSpatialIndex:
        """Build ``index_class`` on ``points`` through the build processor."""
        pts = np.asarray(points, dtype=np.float64)
        with _span(
            "build", index=index_class.name, n=len(pts), method=method or "auto"
        ):
            index = index_class(
                builder=self.builder(method=method, random_choice=random_choice),
                **index_kwargs,
            )
            index.build(pts)
        return index

    # ------------------------------------------------------------------
    # Updates (Figure 3's update / to_rebuild APIs)
    # ------------------------------------------------------------------
    def updates(self, index: LearnedSpatialIndex) -> UpdateProcessor:
        """Wrap a built index in ELSI's update processor.  Ask its
        ``to_rebuild`` after a batch of updates, or serve it through
        :class:`~repro.serve.server.IndexServer`, which asks every
        ``f_u`` updates."""
        return UpdateProcessor(index, predictor=self.rebuild_predictor)
