"""The library names the benchmark under ``perfbench/`` reads.

The benchmark's tracer wraps every function its ``TRACED`` table lists, and
its workloads and partial-trace oracle call a few more names. Its own
self-tests build whole workloads and stay out of this suite, so this file
checks only that every such name is still there: a cut to the public
surface that drops one fails here instead of inside a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_tracing():
    # perfbench/ is on the path for this import only; its modules carry
    # generic names (tracing, workloads, oracle), so they leave sys.modules
    # again once the table is read
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in set(sys.modules) - before:
            if not name.startswith("blochbounds"):
                del sys.modules[name]
    return tracing


TRACING = _import_tracing()
TRACED = [(layer, name) for layer, names in TRACING.TRACED.items()
          for name in names]


def test_every_layer_is_a_module():
    for layer in TRACING.LAYERS:
        importlib.import_module(f"blochbounds.{layer}")
    assert set(TRACING.TRACED) <= set(TRACING.LAYERS)


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"blochbounds.{layer}")
    assert callable(getattr(module, name, None)), f"{layer}.{name} is gone"


def test_names_the_workloads_and_oracle_read():
    import blochbounds
    from blochbounds import bounds, cli, linalg, states, tensors

    assert isinstance(blochbounds.__version__, str)
    assert issubclass(linalg.ValidationError, Exception)
    assert callable(cli.main)
    ctx = linalg.PartitionContext(2, 2)
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = states.make_state(states.StateSpec("dense", ctx,
                                             {"matrix": np.outer(v, v)}))
    spec = states.StateSpec.from_dict({"kind": "bell"})
    assert spec.seed is None and spec.ctx.n_parties == 2
    assert np.allclose(states.make_state(spec).mat, rho.mat)
    # the oracle's reduced purities
    assert abs(linalg.purity(linalg.partial_trace(rho, 0b01)) - 0.5) < 1e-12
    payload = tensors.all_tensors(rho).as_payload()
    assert [p["subset"] for p in payload] == [[1], [2], [1, 2]]
    rep = bounds.analyze(rho, samples_for_roof=2, seed=0)
    for field in ("concurrence_lower", "concurrence_lower_raw",
                  "tangle_lower_raw", "tangle_upper", "roof_upper_estimate"):
        assert isinstance(getattr(rep, field), float)
    assert "tolerances" in rep.as_dict()
    assert abs(bounds.pure_concurrence_purity(rho) - 1.0) < 1e-12
