"""The ``ctx`` fixture of the ablation / extension scripts (their scale is
``REPRO_SCALE``: ``smoke`` [default] / ``default`` / ``large``)."""

import pytest

from repro.bench.experiments import Context
from repro.bench.harness import ExperimentScale


@pytest.fixture(scope="session")
def ctx() -> Context:
    return Context(ExperimentScale.from_env())
