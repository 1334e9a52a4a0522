"""The benchmark's traced run finds every layer its workloads exist to exercise.

bench/run.py --trace 1 fails when a span key of REQUIRED shows zero calls,
which happens when a library function is renamed or reached through a
binding the tracer does not rebind. This runs a tiny certify-coord-like job
under the benchmark's own Tracer and checks the same keys.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from ehrlab import (
    DualFamily,
    NormSpec,
    OptimizerSettings,
    make_dense,
    make_diagonal,
    make_kernel,
)
from ehrlab import ehrling

BENCH = Path(__file__).resolve().parent.parent / "bench"
L2 = NormSpec.lp(2)
TINY = OptimizerSettings(n_starts=4, iterations=3, polish_rounds=1, harden_rounds=2)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_coord_required_layers_are_traced():
    Tracer = _load("tracer").Tracer
    required = _load("run").REQUIRED["certify-coord"]
    d = 8
    rng = np.random.default_rng(0)
    K = np.exp(-np.abs(np.subtract.outer(np.arange(d), np.arange(d))) / 3.0)
    operators = [
        make_diagonal(2.0 ** -np.arange(d), L2, L2),
        make_dense(rng.standard_normal((d, d)) * 2.0 ** -np.arange(d), L2, L2),
        make_kernel(K, 0.5, L2, L2),
    ]
    fam = DualFamily(mode="coordinate", space=L2)
    with Tracer() as tracer:
        for T in operators:
            # through the module, as the workload calls it: the tracer
            # rebinds module attributes, not names imported before it ran
            ehrling.certify(T, L2, fam, eps_grid=(0.5, 0.25), opt=TINY)
    calls = Counter(span[0] for span in tracer.spans)
    assert {key: calls[key] for key in required if not calls[key]} == {}
