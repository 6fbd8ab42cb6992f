"""Tests for the one build dispatch: a loop, or the fused trainer."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.elsi import ELSI
from repro.core.selector import collect_selector_data
from repro.indices import ZMIndex
from repro.indices.base import ModelBuilder, OriginalBuilder, TrainedModel, run_fit_job
from repro.ml.ffn import FFN
from repro.ml.trainer import TrainConfig, train_regressor
from repro.perf.fused import can_fuse, train_regressors_fused


def test_one_build_dispatch(monkeypatch):
    """Model fits run in a loop or through the fused trainer: there is no
    pool, no executor object and no second place to choose one."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.perf.executor")

    root = Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        if "shard" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert name.split(".")[0] not in ("concurrent", "multiprocessing"), (
                    f"{path} imports {name}"
                )

    assert "parallel_workers" not in ELSIConfig.__dataclass_fields__
    for value in ("thread", "process", "gpu", "thread:4"):
        with pytest.raises(ValueError, match="'serial', 'fused'"):
            ELSIConfig(parallelism=value)
    for fn in (
        collect_selector_data,
        ModelBuilder.build_models,
        run_fit_job,
        OriginalBuilder.__init__,
        TrainedModel.measure_error_bounds,
    ):
        assert "executor" not in inspect.signature(fn).parameters, fn.__qualname__

    # A name nothing reads: lambda factories died on it with PicklingError.
    monkeypatch.setenv("REPRO_PARALLELISM", "process:2")
    elsi = ELSI(ELSIConfig(train_epochs=40, methods=("SP", "OG")))
    scorer = elsi.train_selector(
        lambda builder: ZMIndex(builder=builder, branching=1),
        cardinalities=(300,),
        deltas=(0.0, 0.5),
        n_queries=20,
    )
    assert scorer is elsi.selector


def test_config_validates_parallelism():
    assert ELSIConfig(parallelism="fused").parallelism == "fused"
    with pytest.raises(ValueError, match=r"\('serial', 'fused'\)"):
        ELSIConfig(parallelism="gpu")


# ----------------------------------------------------------------------
# Builds
# ----------------------------------------------------------------------
def _build(points, backend, branching=4):
    config = ELSIConfig(train_epochs=60, parallelism=backend)
    return ZMIndex(
        builder=ELSIModelBuilder(config, method="SP"), branching=branching
    ).build(points)


def test_fused_build_answers_queries(osm_points):
    index = _build(osm_points, "fused")
    assert index.point_queries(osm_points[:300]).all()
    assert not index.point_queries(osm_points[:50] + 2.0).any()


def test_fused_build_is_traced_like_the_serial_one(osm_points, tracer):
    """One ``build.train`` span per fused group, one ``build.error_bounds``
    span per model, and the group's wall time lands in ``BuildStats``."""

    _build(osm_points, "serial", branching=8)
    serial_train = tracer.find("build.train")
    serial_bounds = tracer.find("build.error_bounds")
    tracer.reset()
    index = _build(osm_points, "fused", branching=8)
    fused_train = tracer.find("build.train")
    leaves = len(index.model.models) - 1  # all but the stage-1 model
    assert leaves > 1
    assert len(serial_train) == leaves + 1
    assert len(tracer.find("build.error_bounds")) == len(serial_bounds) == leaves + 1

    (stage1,) = [s for s in fused_train if "fused" not in s.attrs]
    (group,) = [s for s in fused_train if s.attrs.get("fused")]
    assert group.attrs["models"] == leaves
    assert group.attrs["method"] == "SP"
    assert (
        group.attrs["train_size"] + stage1.attrs["train_size"]
        == index.build_stats.train_set_size
    )
    # train_seconds = the stage-1 fit + the group's one training loop,
    # both timed inside their spans.
    in_spans = sum(s.duration for s in fused_train)
    assert 0.8 * in_spans <= index.build_stats.train_seconds <= in_spans


# ----------------------------------------------------------------------
# Fused trainer
# ----------------------------------------------------------------------
def test_fused_training_close_to_serial():
    rng = np.random.default_rng(3)
    config = TrainConfig(epochs=120)
    xs = [np.sort(rng.random(200 + 30 * i)) for i in range(3)]
    ys = [np.linspace(0.0, 1.0, len(x)) for x in xs]

    fused_nets = [FFN([1, 16, 1], seed=i) for i in range(3)]
    assert can_fuse(fused_nets, config)
    result = train_regressors_fused(fused_nets, xs, ys, config)
    assert len(result.final_losses) == 3

    for i, (x, y) in enumerate(zip(xs, ys)):
        serial_net = FFN([1, 16, 1], seed=i)
        train_regressor(serial_net, x, y, config)
        np.testing.assert_allclose(
            fused_nets[i].predict(x), serial_net.predict(x), atol=1e-6
        )


def test_can_fuse_rejects_mixed_architectures():
    config = TrainConfig(epochs=10)
    assert not can_fuse([FFN([1, 16, 1])], config)
    assert not can_fuse([FFN([1, 16, 1]), FFN([1, 8, 1])], config)
    assert not can_fuse(
        [FFN([1, 16, 1]), FFN([1, 16, 1])], TrainConfig(epochs=10, batch_size=32)
    )
