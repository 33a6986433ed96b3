"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps the functions named in its ``TARGETS`` by
looking them up in the package, and ``Tracer.install`` raises
AttributeError on a name that is gone, which would break every traced
benchmark run.  The module is loaded by path, as the benchmark loads it,
and is not edited here.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rhfill import flags
from rhfill.convergence import RepFamily, limit_set_convergence, sanov_generators
from rhfill.groups import standard_f2_pair

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer,target", [
    (layer, target) for layer, targets in spans.TARGETS.items()
    for target in targets])
def test_trace_target_resolves(layer, target):
    home = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    if "." in target:   # Class.method, looked up in the class's own dict
        cls_name, attr = target.split(".")
        assert callable(vars(getattr(home, cls_name))[attr])
    else:
        assert callable(getattr(home, target))


def test_tracer_counts_the_flag_layer():
    pair = standard_f2_pair()
    rep = sanov_generators()
    family = RepFamily(pair, rep, {3: rep})
    powers = [np.linalg.matrix_power(rep["a"], k) for k in range(1, 7)]
    with spans.Tracer() as tracer:
        report = limit_set_convergence(family, word_depth=3)
        # looked up at call time, where the tracer has wrapped it
        flags.q_divergence(powers)
    metrics = tracer.metrics()
    # the screening classifies exactly and takes no gaps, so the one
    # divergence certificate is the direct call; then one cloud per member
    assert metrics["flags.q_divergence.calls"] == 1
    assert metrics["flags.limit_cloud_points"] == 2 * report["base_size"] > 0
    assert metrics["flags.q_limit_set.s"] > 0.0
