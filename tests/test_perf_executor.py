"""One trainer, one precision: every index model is fitted by one serial
loop (``fit_model``) and stores float64 keys under float64 nets."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.elsi import ELSI
from repro.core.selector import collect_selector_data
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.indices.base import ModelBuilder, OriginalBuilder, TrainedModel, fit_model
from repro.storage.persist import save_index
from tests.spans import spans_named

SRC = Path(repro.__file__).parent


def _sites(text):
    """Files of ``src/repro`` with a line holding ``text``."""
    return sorted(
        {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines()
            if text in line
        }
    )


def _snapshot_bytes(tmp_path, name):
    """Every learned index built once over the same points, saved: the
    bytes of the four snapshots."""
    from repro.data import load_dataset

    points = load_dataset("OSM1", 1_500)
    config = ELSIConfig(train_epochs=20)
    out = []
    for cls, params in (
        (ZMIndex, {"branching": 4}),
        (MLIndex, {"branching": 4}),
        (RSMIIndex, {"leaf_capacity": 300}),
        (LISAIndex, {}),
    ):
        index = cls(builder=ELSIModelBuilder(config, method="SP"), **params)
        path = tmp_path / f"{name}-{cls.name}.npz"
        save_index(index.build(points), path)
        out.append(path.read_bytes())
    return out


def test_one_build_dispatch(monkeypatch, tmp_path):
    """One serial trainer and one precision: no fused trainer, no pool or
    executor, no float32 mode, and no environment variable that changes
    a build."""
    for module in ("repro.perf.fused", "repro.perf.executor"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    for path in SRC.rglob("*.py"):
        if "shard" in path.relative_to(SRC).parts:
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
    for value in ("fused", "thread", "process", "gpu", "thread:4"):
        with pytest.raises(ValueError, match=f"parallelism.*{value!r}"):
            ELSIConfig(parallelism=value)
    for value in ("float32", "float16"):
        with pytest.raises(ValueError, match=f"dtype.*{value!r}"):
            ELSIConfig(dtype=value)
    for fn in (
        collect_selector_data,
        ModelBuilder.build_model,
        fit_model,
        OriginalBuilder.__init__,
        TrainedModel.measure_error_bounds,
    ):
        params = inspect.signature(fn).parameters
        assert not {"executor", "dtype", "parallelism"} & set(params), fn.__qualname__

    for name in (
        "resolve_dtype",
        "MODEL_DTYPES",
        "cast_boundaries",
        "fusion_rejection_reason",
        "REPRO_DTYPE",
        "REPRO_PARALLELISM",
        "build_models",
        "_fit_level",
        "_CellJob",
        "min_partition_size",
    ):
        assert _sites(name) == [], name
    assert _sites("float32") == ["storage/persist.py"]

    # The environment the old modes read changes no byte of any build.
    plain = _snapshot_bytes(tmp_path, "plain")
    monkeypatch.setenv("REPRO_DTYPE", "float32")
    monkeypatch.setenv("REPRO_PARALLELISM", "fused")
    assert _snapshot_bytes(tmp_path, "env") == plain

    # Nor does it break a selector training run: a lambda factory once
    # died on a process pool with PicklingError.
    elsi = ELSI(ELSIConfig(train_epochs=40, methods=("SP", "OG")))
    scorer = elsi.train_selector(
        lambda builder: ZMIndex(builder=builder, branching=1),
        cardinalities=(300,),
        deltas=(0.0, 0.5),
        n_queries=20,
    )
    assert scorer is elsi.selector


def test_config_validates_parallelism():
    """The two build-side fields accept their one value each."""
    config = ELSIConfig(parallelism="serial", dtype="float64")
    assert (config.parallelism, config.dtype) == ("serial", "float64")
    with pytest.raises(ValueError, match=r"parallelism can only be 'serial', got 'gpu'"):
        ELSIConfig(parallelism="gpu")


def test_build_is_traced_per_model(osm_points, tracer):
    """One ``build.train`` and one ``build.error_bounds`` span per model, and
    ``BuildStats`` that add up to the spans."""
    config = ELSIConfig(train_epochs=60)
    index = ZMIndex(builder=ELSIModelBuilder(config, method="SP"), branching=8)
    index.build(osm_points)
    models = len(index.model.models)
    assert models > 2
    train = spans_named(tracer, "build.train")
    assert len(train) == len(spans_named(tracer, "build.error_bounds")) == models
    assert index.build_stats.n_models == models
    assert {s.attrs["method"] for s in train} == {"SP"}
    assert sum(s.attrs["train_size"] for s in train) == index.build_stats.train_set_size
    # train_seconds is each fit's training loop, timed inside its span.
    assert 0.5 * sum(s.duration for s in train) <= index.build_stats.train_seconds
    assert index.build_stats.train_seconds <= sum(s.duration for s in train)
