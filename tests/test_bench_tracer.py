"""The benchmark tracer still reaches the polish layers it times.

``bench/tracer.py`` wraps the scipy optimizers bound in ``hilbert`` and
``phase_metric`` as each module's polish layer, and a traced benchmark run
fails when a predicted span stays empty.  This test imports the tracer
as it is, installs it, and runs one fit and one distance that should reach
both polish layers, so a change that stops reaching one shows here.
"""

import importlib.util
import pathlib

import numpy as np

import phaselat
import phaselat.cli  # noqa: F401  (Tracer.install wraps names in phaselat.cli)
from conftest import random_vec

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_both_polish_layers():
    tracer = _load_tracer().Tracer()
    rng = np.random.default_rng(3)
    tracer.install()
    try:
        f, g = random_vec(rng, 5, "real"), random_vec(rng, 5, "real")
        phaselat.fit_hilbert_norm(f, g, phaselat.NormSpec(3.0), field="real")
        f, g = random_vec(rng, 5, "complex"), random_vec(rng, 5, "complex")
        phaselat.unimodular_distance(f, g, phaselat.NormSpec(3.0))
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert {"hilbert.polish", "phase_metric.polish",
            "hilbert.fit_hilbert_norm.real.3.0"} <= seen
