"""The benchmark's tracer wraps package functions by the names it looks up.

``perfbench/tracing.py`` replaces attributes of ``schedchain.cli`` and
``schedchain.analysis`` for a traced pass and reads the arguments of the calls
it wraps.  These tests load it by path, as the benchmark does, so a name the
package drops or a signature it changes fails here and not only under
``--trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

from schedchain import Distribution, SchemeParams, analysis, cli, model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PB_ARG = "0.27,0.15,0.17,0.18,0.23"
MODULES = {"cli": cli, "analysis": analysis}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable(tracing):
    for module, attr, span, _ in tracing._WRAPPED:
        assert callable(getattr(MODULES[module], attr, None)), f"{module}.{attr}"
        assert span in tracing.SPANS


def test_work_counters_read_real_calls(tracing):
    params = SchemeParams(0.4, 0.3, 0.2, 0.1, 5)
    args = (params,)
    matrix = cli.build_matrix(*args)
    assert tracing._matrix_work(args, matrix) == {"useful": 16, "dense": 36}
    args = (Distribution.from_process_probs((0.27, 0.15, 0.17, 0.18, 0.23)), matrix, 7)
    assert tracing._propagate_work(args, cli.propagate(*args)) == {"cells": 8 * 6}


def test_traced_calls_record_every_exact_layer(tracing, capsys):
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        assert cli.main(["run", "--scheme", "III_A", "--p", "0.5", "--pb", PB_ARG,
                         "--quanta", "20"]) == 0
        assert cli.main(["compare", "--preset", "I_A", "--preset", "II_A",
                         "--pb", PB_ARG, "--quanta", "20"]) == 0
    capsys.readouterr()
    # the pass leaves the package as it found it
    assert cli.build_matrix is analysis.build_matrix is model.build_matrix
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["model.build_matrix.calls"] == metrics["model.propagate.calls"] == 3
    assert metrics["analysis.metrics.calls"] == 2
    assert all(metrics[f"{name}.failed"] == 0 for name in tracing.SPANS)
    assert metrics["model.propagate.cells_per_s"] > 0
