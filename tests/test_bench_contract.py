"""The names the benchmark's tracer (perfbench/tracer.py) hooks must exist,
the values it records must keep the shape its checks read, and the
settings its checks (perfbench/checks.py) copy must equal the library's.

The tracer wraps levyaug functions by module and attribute name; a rename
under src/ would otherwise only show up as failed benchmark operations.
"""

import ast
import importlib
import os
import sys

import numpy as np

from levyaug import Example, RngState, cli, logistic, poisson_family, simulation
from levyaug.dataio import write_dataset

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

import traced  # noqa: E402
import tracer  # noqa: E402


def _traced_names() -> list[tuple[str, str, str]]:
    """``_TRACED`` as written in tracer.py, read from its source, so that the
    check does not rest on importing the tracer."""
    source = open(os.path.join(PERFBENCH, "tracer.py"), encoding="utf-8").read()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no _TRACED")


def _check_constants() -> dict[str, float]:
    """The module-level constants of perfbench/checks.py, read from its
    source: the checks compute their answers apart from levyaug, so they
    hold their own copies of the library's settings."""
    source = open(os.path.join(PERFBENCH, "checks.py"), encoding="utf-8").read()
    return {
        ast.unparse(node.targets[0]): ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    }


def test_the_benchmark_checks_use_the_library_settings():
    constants = _check_constants()
    assert constants["FIT_TOL"] == logistic._FIT_TOL  # the gradient check's bound
    assert constants["STRONG_RIDGE"] == simulation._STRONG_RIDGE


def test_every_traced_name_resolves():
    for module_name, attr, _ in _traced_names():
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    assert callable(getattr(RngState, "spawn", None)), "RngState.spawn"  # patched by install()


def test_tracer_counts_thin_and_train(tmp_path):
    g = RngState(5).spawn()
    data, pseudo, model = tmp_path / "data.csv", tmp_path / "pseudo.csv", tmp_path / "m.txt"
    examples = [Example(x=g.poisson(3.0, size=3), y=1 + i % 2, t=9.0) for i in range(10)]
    write_dataset(data, poisson_family(3), examples)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.main([
            "thin", "--input", str(data), "--output", str(pseudo),
            "--alpha", "0.5", "-B", "4", "--seed", "1",
        ]) == 0
        assert cli.main([
            "train", "--pseudo", str(pseudo), "--originals", str(data), "--out", str(model),
            "--ridge-lambda", "0.1",
        ]) == 0
    finally:
        spans.uninstall()
    metrics = spans.layer_metrics()
    assert metrics["thinning.draws"] == 40
    assert metrics["logistic.fits"] == 1
    assert metrics["logistic.solves"] == 1  # two classes, one lambda: one minimize call
    assert metrics["logistic.nfev"] > 0
    assert np.isfinite(metrics["logistic.fit_s"])


def test_tracer_checks_a_poisson_limit_fit(tmp_path):
    g = RngState(6).spawn()
    data, model = tmp_path / "data.csv", tmp_path / "m.txt"
    examples = [Example(x=g.poisson(4.0, size=3), y=1 + i % 2, t=12.0) for i in range(16)]
    write_dataset(data, poisson_family(3), examples)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.main([
            "limit", "--originals", str(data), "--family", "poisson", "--out", str(model),
        ]) == 0
    finally:
        spans.uninstall()
    assert len(spans.limit_fits) == 1
    assert traced.capture_problems(spans, None) == []
