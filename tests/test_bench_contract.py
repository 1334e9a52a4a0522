"""The benchmark's traced run finds every layer its workloads exist to exercise.

bench/run.py --trace 1 fails when a span key of REQUIRED shows zero calls,
which happens when a library function is renamed or reached through a
binding the tracer does not rebind. These run a tiny job like each
workload under the benchmark's own Tracer and check the same keys.
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
from ehrlab import SamplerSettings, cli, ehrling, veryweak

BENCH = Path(__file__).resolve().parent.parent / "bench"
L2 = NormSpec.lp(2)
TINY = OptimizerSettings(n_starts=4, iterations=3, polish_rounds=1, harden_rounds=2)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _untraced(required, tracer) -> dict:
    calls = Counter(span[0] for span in tracer.spans)
    return {key: calls[key] for key in required if not calls[key]}


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
    assert _untraced(required, tracer) == {}


def test_verify_bulk_required_layers_are_traced():
    Tracer = _load("tracer").Tracer
    required = _load("run").REQUIRED["verify-bulk"]
    wl = _load("workloads")
    d = 8
    rng = np.random.default_rng(0)
    weighted = NormSpec.weighted_lp(2, wl.weights(rng, d))
    h1 = NormSpec.sobolev_h1(1.0 / (d + 1))
    # (operator, domain norm, family mode), one per layer the workload needs
    cases = [
        (make_diagonal(wl.decaying_diagonal(rng, d, 1.5), weighted, L2), "dense-rational"),
        (make_dense(wl.decaying_dense(rng, d, 1.5), NormSpec.lp(3), L2), "dense-rational"),
        (make_kernel(wl.exponential_kernel(rng, d, 1.5), 1.0 / d, h1, L2), "coordinate"),
        (make_diagonal(wl.decaying_diagonal(rng, d, 1.5), L2, L2), "coordinate"),
    ]
    U = rng.standard_normal((16, d))
    with Tracer() as tracer:
        for T, mode in cases:
            fam = DualFamily(mode, T.domain, dim=d if T.domain.kind == "sobolev-h1" else None)
            ehrling.verify_certificate(T, T.domain, fam, 0.25, 1.0,
                                       sampler=SamplerSettings(n_samples=32))
            veryweak.very_weak_norm_batch(fam, U, tau=1e-10)
    assert _untraced(required, tracer) == {}


def test_scenario_mix_documents_validate():
    # the schema accepts only the keys each job, operator kind and sequence
    # rule reads; every document validates as a pass and the warm-up send it
    wl = _load("workloads")
    rng = np.random.default_rng(0)
    for job in wl.JOBS:
        for i in range(wl.PER_JOB):
            doc = wl.scenario_doc(rng, job, i)[0]
            doc["output"] = {"report": "report.json", "csv": "rows.csv"}
            cli.validate_scenario(doc)
            doc["budget"] = dict(doc.get("budget", {}), n_starts=4)
            cli.validate_scenario(doc)


def test_scenario_mix_required_layers_are_traced(tmp_path):
    Tracer = _load("tracer").Tracer
    required = _load("run").REQUIRED["scenario-mix"]
    wl = _load("workloads")
    rng = np.random.default_rng(0)
    docs = []
    for job in wl.JOBS:
        # document 0 of each job; falsify's is the shift
        doc, _ = wl.scenario_doc(rng, job, 0)
        doc["budget"] = dict(doc.get("budget", {}), n_starts=4, iterations=4, polish_rounds=2)
        docs.append(doc)
    with Tracer() as tracer:
        for doc in docs:
            cli.validate_scenario(doc)
            cli.run(doc, output_dir=tmp_path)
    assert _untraced(required, tracer) == {}
