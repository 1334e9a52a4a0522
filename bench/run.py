"""ehrlab benchmark: seeded workloads timed from outside the library.

    python3 bench/run.py --workload certify-coord --seed 1 --seconds 20 --trace 0

Runs one workload (certify-coord, verify-bulk or scenario-mix) as a single
closed-loop client: passes over the workload's operations repeat until
--seconds have elapsed. The outputs of every operation are checked, and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the library's public
functions are wrapped and the metrics are the per-layer ones. The line
before it holds provenance, the check failures and the untimed verdict
probe. The library is imported from src/ of the checkout and nowhere else.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SCENARIO = ROOT / "scenarios" / "certify_diag16.json"
SETUP_RUNS = 5
# Counters of the golden 16-dim diagonal certify at the parent of this
# benchmark; the traced run reproduces them to check the wrappers.
GOLDEN_COUNTERS = {"optimize.maximize_direction.calls": 69,
                   "optimize.maximize_direction.objective_calls": 10388,
                   "optimize.maximize_direction.objective_rows": 4912855}
# Span keys each workload exists to exercise: zero calls means a wrapper
# missed a binding, and the run fails.
REQUIRED = {
    "certify-coord": ["ehrling.certify", "optimize.bisect_modulus",
                      "optimize.maximize_direction", "optimize.ball_points",
                      "spaces.norm_batch.lp", "veryweak.very_weak_norm_batch.coordinate",
                      "operators.apply_batch.diagonal", "operators.apply_batch.dense",
                      "operators.apply_batch.kernel"],
    "verify-bulk": ["ehrling.verify_certificate", "optimize.ball_points",
                    "spaces.norm_batch.lp", "spaces.norm_batch.weighted-lp",
                    "spaces.norm_batch.sobolev-h1",
                    "veryweak.very_weak_norm_batch.coordinate",
                    "veryweak.very_weak_norm_batch.dense-rational",
                    "spaces.DualFamily.prefix_matrix", "operators.apply_batch.diagonal",
                    "operators.apply_batch.dense", "operators.apply_batch.kernel"],
    "scenario-mix": ["cli.validate_scenario", "cli.run", "ehrling.certify",
                     "ehrling.falsify", "ehrling.reverse_certificate",
                     "ehrling.three_space_certificate", "convergence.classify",
                     "convergence.appendix_counterexample", "optimize.bisect_modulus",
                     "optimize.maximize_direction", "operators.apply_batch.shift"],
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas() -> None:
    # One BLAS thread: within the nproc cap, and steadier than two on a
    # shared 2-core machine (two threads spread about 10% run to run).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _import_library():
    if not (SRC / "ehrlab" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC / 'ehrlab'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import ehrlab
    if Path(ehrlab.__file__).resolve().parent != SRC / "ehrlab":
        sys.exit(f"bench: imported ehrlab from {ehrlab.__file__}, not from {SRC}")
    return ehrlab


def _setup_child() -> None:
    """Import plus warm-up in a fresh interpreter; prints the seconds taken."""
    _pin_blas()
    _import_library()
    import workloads
    workloads.warm_up(OUT / f"warm-{os.getpid()}")
    print(f"{time.perf_counter() - _T0:.6f}")


def _setup_seconds() -> float:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _op_medians(op_times) -> dict:
    """Median seconds per operation kind; a leading document index is dropped."""
    by_kind = {}
    for label, dt in op_times:
        by_kind.setdefault(re.sub(r"^\d+ ", "", label), []).append(dt)
    return {k: round(statistics.median(v), 6) for k, v in by_kind.items()}


class Runner:
    """Runs passes of one workload and keeps outputs, op times and verdicts."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None      # outputs of the first pass
        self.op_times = []     # (label, seconds) of every operation run
        self.pass_times = []
        self.mismatches = []   # (pass index, label, message)
        self.attempted = 0
        self.verify_rates = []  # verified points per second of verify time, per pass

    def key(self, out):
        from workloads import Raised
        return out.error if isinstance(out, Raised) else self.wl.summary(out)

    def one_pass(self) -> float:
        from ehrlab.ehrling import VerificationReport
        from workloads import Raised
        ops = self.wl.ops()
        gc.collect()
        outputs = []
        points = verify_s = 0.0
        t_pass = time.perf_counter()
        for label, op in ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted as a failed operation; the run goes on
                out = Raised(exc)
            dt = time.perf_counter() - t0
            self.op_times.append((label, dt))
            outputs.append(out)
            if isinstance(out, VerificationReport):
                points += out.n_points
                verify_s += dt
        elapsed = time.perf_counter() - t_pass
        if verify_s:
            self.verify_rates.append(points / verify_s)
        self.pass_times.append(elapsed)
        self.attempted += len(ops)
        if self.first is None:
            self.first = outputs
        else:
            n = len(self.pass_times) - 1
            for (label, _), a, b in zip(ops, self.first, outputs):
                if self.key(a) != self.key(b):
                    what = getattr(b, "error", "output differs between passes")
                    self.mismatches.append((n, label, f"{label}: pass {n}: {what}"))
        return elapsed

    def failed(self, failed_ops) -> int:
        """Operations run that failed: a check failure fails the op in every pass."""
        bad = {(n, label) for n in range(len(self.pass_times)) for label in failed_ops}
        bad |= {(n, label) for n, label, _ in self.mismatches}
        return len(bad)

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while not self.pass_times or time.perf_counter() - start < seconds:
            self.one_pass()


def _trace_metrics(args, wl, workloads, runner):
    from tracer import Tracer, layer_metrics

    with Tracer() as golden:
        workloads.golden_certify(SCENARIO)
    got = layer_metrics(golden.spans)
    selftest = {k.replace("optimize.", "selftest."): got[k] for k in GOLDEN_COUNTERS}
    match = all(got[k] == v for k, v in GOLDEN_COUNTERS.items())
    if not match:
        print(f"bench: counter self-test differs from the golden baseline: "
              f"{selftest} vs {GOLDEN_COUNTERS}", file=sys.stderr)

    # untraced passes for half the time, then one traced pass
    runner.run_for(args.seconds / 2)
    untraced = statistics.median(runner.pass_times)
    tracer = Tracer()
    with tracer:
        traced = runner.one_pass()
    metrics = layer_metrics(tracer.spans)
    keys = {span[0] for span in tracer.spans}
    missing = [k for k in REQUIRED[wl.name] if k not in keys]
    if missing:
        raise RuntimeError(f"layers with zero calls on {wl.name}: {missing}")
    metrics.update(selftest)
    metrics["selftest.counters_match"] = int(match)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.spans)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.csv")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        _setup_child()
        return 0

    _pin_blas()
    _import_library()
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    workloads.warm_up(OUT / "warm")
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / f"mix-{os.getpid()}")
    runner = Runner(wl)

    if args.trace:
        metrics = _trace_metrics(args, wl, workloads, runner)
    else:
        setup_s = _setup_seconds()
        runner.run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = workloads.Checker()
    constants = wl.check(runner.first, chk)
    probe = workloads.verdict_probe(SCENARIO, OUT / f"probe-{os.getpid()}")
    failures = chk.failures + [msg for _, _, msg in runner.mismatches]
    failed = runner.failed(chk.failed_ops)

    if not args.trace:
        # timed verify calls where the workload has them, else the untimed
        # re-verification of its certified rows
        rates = runner.verify_rates or [chk.verify_rate()]
        times = [dt for _, dt in runner.op_times]
        metrics = {
            "wall_s": statistics.median(runner.pass_times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "job_p50_s": _percentile(times, 50),
            "job_p90_s": _percentile(times, 90),
            "verify_points_per_s": statistics.median(rates),
            "cert_C_geomean": statistics.geometric_mean(constants),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    info = {
        "workload": wl.name, "why": why[wl.name], "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(runner.pass_times), "ops": len(runner.op_times),
        "pass_s": [round(t, 4) for t in runner.pass_times],
        "op_p50_s": _op_medians(runner.op_times),
        "ops_failed_frac": failed / runner.attempted, "failures": failures[:20],
        "verdict_probe": probe, "verdict_errors": probe["verdict_errors"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": _blas_threads(),
        "nproc": _nproc(), "cpu": _cpu_model(),
    }
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != wanted:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ wanted}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
