"""Seeded workloads for the benchmark and the checks on their outputs.

Every workload is a list of operations that call the library only through
its public functions. A pass runs each operation once. The inputs are made
from the seed alone, and each operation's output is checked against what is
known about the generated instance, not against the library's own handles.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
from scipy.fft import dct

# Operations call through the module objects so that the traced run, which
# rebinds these names in the library's modules, sees them.
from ehrlab import cli, ehrling, veryweak
from ehrlab.operators import (apply_batch, make_dense, make_diagonal,
                              make_kernel, operator_from_json)
from ehrlab.optimize import OptimizerSettings, SamplerSettings
from ehrlab.spaces import (DualFamily, Element, NormSpec, dual_norm,
                           enumerate_phi, family_from_json, norm, norm_batch,
                           normspec_from_json, pair)
from ehrlab.veryweak import tail_bound, very_weak_norm_batch

RESIDUAL_TOL = 1e-8     # a re-verified row fails above this residual
REF_TERMS = 60          # series terms of the reference enclosures
CHECK_SAMPLES = 100_000  # fresh ball points per re-verified row
L2 = NormSpec.lp(2)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

JITTER = 0.02  # relative size of the seeded perturbations


def decaying_diagonal(rng, d: int, top: float) -> np.ndarray:
    """lambda_k = top * 2^(-(k-1)/2), each entry jittered, lambda_1 = top."""
    lam = 2.0 ** (-0.5 * np.arange(d)) * (1.0 + JITTER * rng.uniform(-1, 1, d))
    return lam * (top / lam[0])


def decaying_dense(rng, d: int, top: float) -> np.ndarray:
    """Jittered orthonormal DCT matrix times 2^(-(k-1)/2) on column k.

    Every entry is nonzero and the columns decay like the diagonal's; the
    spectral norm is scaled to top.
    """
    H = dct(np.eye(d), norm="ortho", axis=0)
    A = (H + JITTER * rng.standard_normal((d, d)) / math.sqrt(d)) * 2.0 ** (-0.5 * np.arange(d))
    return A * (top / np.linalg.norm(A, 2))


def exponential_kernel(rng, d: int, top: float) -> np.ndarray:
    """Samples of exp(-|x - y| / ell - beta * y) on a midpoint grid.

    The beta factor makes column k decay like 2^(-k/2), as in the other
    operators; ell is jittered, and the samples are scaled so that the
    operator norm is top.
    """
    x = (np.arange(d) + 0.5) / d
    ell = 0.2 * (1.0 + JITTER * rng.uniform(-1, 1))
    beta = 0.5 * d * math.log(2.0)
    K = np.exp(-np.abs(x[:, None] - x[None, :]) / ell - beta * x[None, :])
    return K * (top / np.linalg.norm(K / d, 2))


def ball_sample(rng, X: NormSpec, n: int, d: int) -> np.ndarray:
    """n random points of the X unit ball, then the normalized basis vectors."""
    V = rng.standard_normal((n, d))
    pts = V / norm_batch(X, V)[:, None] * rng.random(n)[:, None] ** (1.0 / d)
    E = np.eye(d)
    return np.vstack([pts, E / norm_batch(X, E)[:, None]])


def columns(T, d: int) -> np.ndarray:
    """Codomain (l2) norms of T e_k, k = 1..d."""
    return norm_batch(T.codomain, apply_batch(T, np.eye(d)))


def coordinate_duals(X: NormSpec, d: int) -> np.ndarray:
    """Dual norms of the coordinate functionals e_k* on X."""
    return np.array([dual_norm(X, np.eye(d)[k]) for k in range(d)])


def valid_constant(T, X: NormSpec, d: int, eps: float) -> float:
    """A constant C for which ||Tu|| <= eps ||u||_X + C |u|_Phi provably holds.

    Phi is the coordinate family on X. Split the columns into a tail whose
    summed norms times dual norms stay below eps and a head; on the head,
    |u_k| = 2^k ||e_k*|| * (2^-k |u_k| / ||e_k*||), which is the k-th
    series term of |u|_Phi.
    """
    a = columns(T, d) * coordinate_duals(X, d)
    tail = np.cumsum(a[::-1])[::-1]          # tail[k] = sum_{j >= k} a_j
    head = int(np.argmax(np.append(tail, 0.0) <= eps))
    if head == 0:
        return 1.0
    return float(np.max(a[:head] * 2.0 ** np.arange(1, head + 1)))


def reference_enclosure(fam: DualFamily, u: np.ndarray, terms: int = REF_TERMS) -> tuple:
    """(lo, hi) of |u|_Phi from enumerate_phi, pair and tail_bound.

    Coordinate families stop at the element's dimension, where every later
    member annihilates u; the tail bound is still added, which only widens.
    """
    el = Element(u)
    if fam.mode == "coordinate":
        terms = el.dim
    lo = sum(2.0 ** -k * abs(pair(enumerate_phi(fam, k), el)) for k in range(1, terms + 1))
    return lo, lo + tail_bound(terms, norm(fam.space, el))


def upper_residual(T, X: NormSpec, fam: DualFamily, u, eps: float, C: float) -> float:
    """||Tu||_Y - eps ||u||_X - C * (reference upper bound of |u|_Phi)."""
    u = np.asarray(u, dtype=np.float64)
    y = float(norm_batch(T.codomain, apply_batch(T, u[None, :]))[0])
    return y - eps * norm(X, Element(u)) - C * reference_enclosure(fam, u)[1]


def fresh_seed(seed: int) -> int:
    return 1_000_003 + seed


class Raised:
    """Stands in for the output of an operation that raised; checks fail it."""

    def __init__(self, exc: BaseException):
        self.error = f"raised {type(exc).__name__}: {exc}"


class Checker:
    """Collects failures and times the re-verification calls."""

    def __init__(self):
        self.failures = []
        self.failed_ops = set()
        self.verified_points = 0
        self.verify_s = 0.0

    def expect(self, ok: bool, op: str, what: str) -> bool:
        if not ok:
            self.failures.append(f"{op}: {what}")
            self.failed_ops.add(op)
        return ok

    def usable(self, out, op: str) -> bool:
        """False, and op failed, if the operation raised instead of returning."""
        return self.expect(not isinstance(out, Raised), op, getattr(out, "error", ""))

    def verify_rate(self) -> float:
        """Points re-verified per second of re-verification."""
        return self.verified_points / self.verify_s

    def reverify(self, T, X, fam, eps: float, C: float, seed: int, op: str) -> bool:
        """Re-check a certified row on a fresh sample with the lower enclosure."""
        sampler = SamplerSettings(n_samples=CHECK_SAMPLES, seed=fresh_seed(seed))
        t0 = time.perf_counter()
        rep = ehrling.verify_certificate(T, X, fam, eps, C, sampler=sampler)
        self.verify_s += time.perf_counter() - t0
        self.verified_points += rep.n_points
        return self.expect(rep.max_residual <= RESIDUAL_TOL and rep.witness is None, op,
                           f"eps={eps}: residual {rep.max_residual:.3g} on a fresh sample")


# ---------------------------------------------------------------------------
# certify-coord
# ---------------------------------------------------------------------------

class CertifyCoord:
    name = "certify-coord"

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.fam = DualFamily("coordinate", L2)
        self.instances = [
            ("diagonal-64", make_diagonal(decaying_diagonal(rng, 64, 1.5), L2, L2)),
            ("dense-32", make_dense(decaying_dense(rng, 32, 1.5), L2, L2)),
            ("kernel-32", make_kernel(exponential_kernel(rng, 32, 1.5), 1.0 / 32, L2, L2)),
        ]

    def ops(self):
        return [(label, lambda T=T: ehrling.certify(T, L2, self.fam))
                for label, T in self.instances]

    @staticmethod
    def summary(cert):
        return json.dumps(cert.as_dict(), sort_keys=True)

    def check(self, outputs, chk: Checker) -> list:
        constants = []
        for (label, T), cert in zip(self.instances, outputs):
            if not chk.usable(cert, label):
                continue
            # exit-status rule of the CLI; a compact operator with the
            # coordinate family must certify (exit 0)
            chk.expect(all(r.residual <= 0.0 for r in cert.rows), label,
                       "certificate inconclusive")
            chk.expect(len(cert.rows) == 5, label, f"{len(cert.rows)} rows")
            for r in cert.rows:
                if chk.expect(math.isfinite(r.C) and r.C > 0.0, label, f"C = {r.C}"):
                    constants.append(r.C)
                    chk.reverify(T, L2, self.fam, r.eps, r.C, self.seed, label)
        return constants


# ---------------------------------------------------------------------------
# verify-bulk
# ---------------------------------------------------------------------------

def weights(rng, d: int) -> np.ndarray:
    """Weights rising from 1/2 to 2, each jittered."""
    return 2.0 ** np.linspace(-1, 1, d) * (1 + JITTER * rng.uniform(-1, 1, d))


class VerifyBulk:
    name = "verify-bulk"

    # (operator, domain norm, family mode, d, n_samples, expected verdict)
    PLAN = [
        ("diagonal", "lp2", "coordinate", 64, 280_000, "pass"),
        ("dense", "lp3", "dense-rational", 64, 280_000, "pass"),
        ("kernel", "h1", "coordinate", 64, 280_000, "fail"),
        ("diagonal", "weighted", "dense-rational", 16, 160_000, "fail"),
        ("dense", "lp2", "coordinate", 16, 160_000, "fail"),
        ("kernel", "lp3", "coordinate", 16, 160_000, "pass"),
        ("diagonal", "h1", "dense-rational", 16, 160_000, "pass"),
        ("kernel", "weighted", "coordinate", 16, 160_000, "pass"),
    ]

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for rep, xname, mode, d, n, verdict in self.PLAN:
            X = {"lp2": L2, "lp3": NormSpec.lp(3), "h1": NormSpec.sobolev_h1(1.0 / (d + 1)),
                 "weighted": None}[xname] or NormSpec.weighted_lp(2, weights(rng, d))
            if rep == "diagonal":
                T = make_diagonal(decaying_diagonal(rng, d, 1.5), X, L2)
            elif rep == "dense":
                T = make_dense(decaying_dense(rng, d, 1.5), X, L2)
            else:
                T = make_kernel(exponential_kernel(rng, d, 1.5), 1.0 / d, X, L2)
            fam = DualFamily(mode, X, dim=d if X.kind == "sobolev-h1" else None)
            ratios = columns(T, d) / norm_batch(X, np.eye(d))
            if verdict == "fail":
                # half the largest basis ratio, and a constant too small to
                # make up the rest at the normalized basis vector
                eps = 0.5 * float(ratios.max())
                C = 0.25 * float(ratios.max())
            elif mode == "coordinate":
                eps = 0.25
                C = 1.01 * valid_constant(T, X, d, eps)
            else:
                # an eps above a bound on ||T||_{X -> l2} holds for any C
                eps = 1.01 * float(np.sum(columns(T, d) * coordinate_duals(X, d)))
                C = 1.0
            label = f"{rep}-{xname}-{mode}-{d}"
            self.cases.append((label, T, X, fam, eps, C, n, verdict))
        # one l2 ball sample per size feeds every very_weak_norm_batch call
        sizes = sorted({(n, d) for _, _, _, d, n, _ in self.PLAN})
        self.points = {n: ball_sample(rng, L2, n, d) for n, d in sizes}

    def ops(self):
        out = []
        for label, T, X, fam, eps, C, n, _ in self.cases:
            sampler = SamplerSettings(n_samples=n, seed=self.seed)
            out.append((f"verify {label}", lambda T=T, X=X, fam=fam, eps=eps, C=C, s=sampler:
                        ehrling.verify_certificate(T, X, fam, eps, C, sampler=s)))
            out.append((f"very-weak {label}", lambda fam=fam, U=self.points[n]:
                        veryweak.very_weak_norm_batch(fam, U, tau=1e-10)))
        return out

    @staticmethod
    def summary(result):
        if isinstance(result, tuple):
            return (result[0].tobytes(), result[1].tobytes())
        return json.dumps(result.as_dict(), sort_keys=True)

    def check(self, outputs, chk: Checker) -> list:
        """Checks every case; returns the input C of the accepted valid pairs.

        verify-bulk certifies nothing itself, so the constants it reports are
        its own inputs: they change only when a valid pair is rejected.
        """
        constants = []
        for i, (label, T, X, fam, eps, C, n, verdict) in enumerate(self.cases):
            rep, enc = outputs[2 * i], outputs[2 * i + 1]
            op, vw_op = f"verify {label}", f"very-weak {label}"
            if chk.usable(rep, op) and self._check_report(rep, T, X, fam, eps, C, verdict,
                                                          op, chk):
                constants.append(C)
            if chk.usable(enc, vw_op):
                self._check_enclosures(enc, fam, self.points[n], vw_op, chk)
        return constants

    @staticmethod
    def _check_report(rep, T, X, fam, eps, C, verdict, op, chk) -> bool:
        """True if a valid pair was accepted; a violated pair must yield a witness."""
        if verdict == "pass":
            return chk.expect(rep.passed and rep.witness is None and rep.max_residual <= 0.0,
                              op, f"valid pair rejected ({rep.max_residual:.3g})")
        w = rep.witness
        if chk.expect(not rep.passed and w is not None, op, "violation missed"):
            res = upper_residual(T, X, fam, w.u.coeffs, eps, C)
            chk.expect(res > 0.0, op, f"witness residual {res:.3g} not positive")
        return False

    @staticmethod
    def _check_enclosures(enc, fam, U, op, chk) -> None:
        lo, hi = enc
        chk.expect(lo.shape == (len(U),) and bool(np.all(lo <= hi)), op,
                   "malformed enclosures")
        chk.expect(bool(np.all(hi - lo <= 1e-10 * (1 + 1e-9))), op, "enclosure wider than tau")
        for j in range(0, len(U), len(U) // 16):
            rlo, rhi = reference_enclosure(fam, U[j])
            chk.expect(lo[j] <= rhi + 1e-12 and rlo <= hi[j] + 1e-12, op,
                       f"row {j} enclosure misses the reference")


# ---------------------------------------------------------------------------
# scenario-mix
# ---------------------------------------------------------------------------

COMPACT_BUDGET = {"n_starts": 16, "iterations": 20, "polish_rounds": 10,
                  "harden_rounds": 4}
# Jobs per pass: an even split over the seven jobs. The repository holds no
# record of how the jobs are used, so no weighting would be better founded.
JOBS = ("norm", "counterexample", "classify", "falsify", "reverse", "certify", "three-space")
PER_JOB = 15


def _vec(a) -> list:
    return [float(x) for x in a]


def _dim(i: int, lo: int = 4, hi: int = 16) -> int:
    """Dimensions cycle through lo..hi by document index, the same for every seed."""
    return lo + (5 * i) % (hi - lo + 1)


def _space_doc(i: int, d: int, rng) -> dict:
    kind = i % 5
    if kind < 3:
        return {"kind": "lp", "p": (2, 3, 1.5)[kind]}
    if kind == 3:
        return {"kind": "weighted-lp", "p": 2, "weights": _vec(weights(rng, d))}
    return {"kind": "sobolev-h1", "h": 1.0 / (d + 1)}


def _operator_doc(i: int, d: int, rng) -> dict:
    kind = i % 3
    if kind == 0:
        return {"kind": "diagonal", "lambda": _vec(decaying_diagonal(rng, d, 1.5))}
    if kind == 1:
        return {"kind": "dense", "matrix": [_vec(r) for r in decaying_dense(rng, d, 1.5)]}
    return {"kind": "kernel", "samples": [_vec(r) for r in exponential_kernel(rng, d, 1.5)],
            "spacing": 1.0 / d}


def scenario_doc(rng, job: str, i: int):
    """The i-th document of a job, plus the exit statuses its instance allows.

    The index fixes the structure (dimension, norms, operator kind, rule);
    the seeded generator only perturbs the numbers, so every seed gives the
    same mix of work.
    """
    d = _dim(i)
    l2 = {"kind": "lp", "p": 2}
    coord = {"mode": "coordinate", "space": l2}
    if job == "norm":
        space = _space_doc(i, d, rng)
        mode = "dense-rational" if space["kind"] == "lp" and (i // 5) % 2 else "coordinate"
        fam = {"mode": mode, "space": space}
        if space["kind"] == "sobolev-h1":
            fam["dim"] = d
        return {"job": "norm", "family": fam, "element": _vec(rng.standard_normal(d)),
                "tolerance": 1e-8}, {0}
    if job == "counterexample":
        fam = {"mode": ("coordinate", "dense-rational")[(i // 2) % 2],
               "space": {"kind": "lp", "p": (2, 3)[i % 2]}}
        return {"job": "counterexample", "family": fam,
                "indices": list(range(1 + i % 4, 5 + i % 4))}, {0}
    if job == "classify":
        rule = ("basis", "strongly-convergent", "appendix-counterexample")[i % 3]
        seq = {"rule": rule}
        if rule == "basis":
            seq["dim"] = d
        elif rule == "strongly-convergent":
            seq.update(target=_vec(rng.standard_normal(d) / d), rate=0.5, horizon=40)
        else:
            seq["horizon"] = 4 + i % 5
        return {"job": "classify", "family": coord, "sequence": seq}, {0}
    if job == "falsify":
        if i % 2 == 0:
            # the shift: e_{d-1} forces C = 2^(d-2) > c_max
            return {"job": "falsify", "operator": {"kind": "shift"}, "norm1": l2,
                    "family": coord, "eps": 0.5, "c_max": float(2 ** (d - 3)),
                    "budget": {"dim": d}, "seed": i}, {2}
        lam = decaying_diagonal(rng, d, 1.5)
        cap = 10.0 * valid_constant(make_diagonal(lam, L2, L2), L2, d, 0.5)
        # c_max above a valid constant: no witness exists, so exit 3 only
        return {"job": "falsify", "operator": {"kind": "diagonal", "lambda": _vec(lam)},
                "norm1": l2, "family": coord, "eps": 0.5, "c_max": cap, "seed": i}, {3}
    if job == "reverse":
        d = _dim(i, 4, 12)
        lam = np.linspace(1.5, 0.5, d) * (1 + JITTER * rng.uniform(-1, 1, d))
        return {"job": "reverse", "operator": {"kind": "diagonal", "lambda": _vec(lam)},
                "family": coord, "eps": (0.5, 0.25)[i % 2], "budget": COMPACT_BUDGET,
                "seed": i}, {0}
    if job == "certify":
        d = _dim(i, 4, 12)
        return {"job": "certify", "operator": _operator_doc(i, d, rng), "norm1": l2,
                "norm2": coord, "eps_grid": [0.5, 0.125], "budget": COMPACT_BUDGET,
                "seed": i}, {0}
    if job == "three-space":
        d = _dim(i, 4, 12)
        return {"job": "three-space",
                "inner": {"kind": "diagonal", "lambda": _vec(np.ones(d))},
                "outer": {"kind": "diagonal", "lambda": _vec(decaying_diagonal(rng, d, 1.5))},
                "eps_grid": [0.5, 0.125], "budget": COMPACT_BUDGET, "seed": i}, {0}
    raise ValueError(job)


class ScenarioMix:
    name = "scenario-mix"

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.out_dir = out_dir
        self.docs = []
        for job in JOBS:
            for i in range(PER_JOB):
                doc, allowed = scenario_doc(rng, job, i)
                n = len(self.docs)
                doc["output"] = {"report": f"{n:03d}-report.json", "csv": f"{n:03d}-rows.csv"}
                self.docs.append((doc, allowed))
        self.passes = 0

    def ops(self):
        pass_dir = self.out_dir / f"pass{self.passes}"
        self.passes += 1
        return [(f"{i:03d} {doc['job']}", lambda doc=doc, d=pass_dir: self._run(doc, d))
                for i, (doc, _) in enumerate(self.docs)]

    @staticmethod
    def _run(doc, out):
        cli.validate_scenario(doc)
        status = cli.run(doc, output_dir=out)
        return status, (out / doc["output"]["report"]).read_bytes()

    @staticmethod
    def summary(result):
        return result

    def check(self, outputs, chk: Checker) -> list:
        constants = []
        for (doc, allowed), out in zip(self.docs, outputs):
            job = doc["job"]
            what = f"{doc['output']['report'][:3]} {job}"
            if not chk.usable(out, what):
                continue
            status, raw = out
            if not chk.expect(status in allowed, what,
                              f"exit {status}, expected {sorted(allowed)}"):
                continue
            result = json.loads(raw)["result"]
            handler = getattr(self, "_check_" + job.replace("-", "_"))
            constants.extend(handler(doc, result, chk, what) or [])
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return constants

    def _check_norm(self, doc, result, chk, what):
        enc = result["enclosure"]
        fam = family_from_json(doc["family"])
        rlo, rhi = reference_enclosure(fam, np.asarray(doc["element"]))
        chk.expect(enc["lo"] <= enc["hi"] <= enc["lo"] + doc["tolerance"] * (1 + 1e-9)
                   and enc["lo"] <= rhi + 1e-12 and rlo <= enc["hi"] + 1e-12,
                   what, f"enclosure {enc} misses the reference [{rlo}, {rhi}]")

    def _check_counterexample(self, doc, result, chk, what):
        fam = family_from_json(doc["family"])
        for e in result["elements"]:
            n = e["n"]
            hi = reference_enclosure(fam, np.asarray(e["coeffs"]))[1]
            chk.expect(abs(e["norm"] - n) <= 1e-9 * n and hi < 1.0 / n,
                       what, f"u_{n} has norm {e['norm']} and very weak bound {hi}")

    def _check_classify(self, doc, result, chk, what):
        verdict = result["report"]["verdict"]
        rule = doc["sequence"]["rule"]
        allowed = {"strongly-convergent": {"strong"},
                   "basis": {"weak-not-strong", "bounded-divergent"},
                   "appendix-counterexample": {"very-weak-only", "bounded-divergent",
                                               "unbounded"}}[rule]
        chk.expect(verdict in allowed, what, f"verdict {verdict} for a {rule} sequence")

    def _check_falsify(self, doc, result, chk, what):
        w = result["witness"]
        if w is None:
            return
        T = operator_from_json(doc["operator"])
        res = upper_residual(T, L2, family_from_json(doc["family"]), w["u"],
                             doc["eps"], doc["c_max"])
        chk.expect(res > 0.0, what, f"witness residual {res:.3g} not positive")

    def _check_certify(self, doc, result, chk, what):
        T = operator_from_json(doc["operator"])
        X = normspec_from_json(doc["norm1"])
        fam = family_from_json(doc["norm2"])
        rows = result["certificate"]["rows"]
        for r in rows:
            chk.reverify(T, X, fam, r["eps"], r["C"], self.seed, what)
        return [r["C"] for r in rows]

    def _check_three_space(self, doc, result, chk, what):
        theta = operator_from_json(doc["inner"])
        tau = operator_from_json(doc["outer"])
        d = len(doc["inner"]["lambda"])
        U = ball_sample(np.random.default_rng(fresh_seed(self.seed)), theta.domain, CHECK_SAMPLES, d)
        Y = apply_batch(theta, U)
        y = norm_batch(theta.codomain, Y)
        z = norm_batch(tau.codomain, apply_batch(tau, Y))
        x = norm_batch(theta.domain, U)
        rows = result["certificate"]["rows"]
        for r in rows:
            res = float(np.max(y - r["eps"] * x - r["C"] * z))
            chk.expect(res <= RESIDUAL_TOL, what, f"eps={r['eps']}: residual {res:.3g}")
        return [r["C"] for r in rows]

    def _check_reverse(self, doc, result, chk, what):
        T = operator_from_json(doc["operator"])
        fam = family_from_json(doc["family"])
        d = len(doc["operator"]["lambda"])
        U = ball_sample(np.random.default_rng(fresh_seed(self.seed)), T.domain, CHECK_SAMPLES, d)
        _, vw_hi = very_weak_norm_batch(fam, U, tau=1e-12)
        y = norm_batch(T.codomain, apply_batch(T, U))
        r = result["row"]
        # the very weak norm is the bounded side here: its upper bound is the safe one
        res = float(np.max(vw_hi - r["eps"] * norm_batch(T.domain, U) - r["C"] * y))
        chk.expect(res <= RESIDUAL_TOL, what, f"residual {res:.3g}")
        return [r["C"]]


WORKLOADS = {cls.name: cls for cls in (CertifyCoord, VerifyBulk, ScenarioMix)}


# ---------------------------------------------------------------------------
# untimed probes
# ---------------------------------------------------------------------------

def verdict_probe(scenario_path: Path, out_dir: Path) -> dict:
    """certify_diag16 with the dense-rational family as norm2.

    The operator is compact and certifiable, so exit 2 (falsified) is a false
    verdict; exit 0 or 3 is honest.
    """
    doc = json.loads(scenario_path.read_text(encoding="utf-8"))
    doc["norm2"] = {"mode": "dense-rational", "space": doc["norm2"]["space"]}
    doc.pop("output", None)
    cli.validate_scenario(doc)
    status = cli.run(doc, output_dir=out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"scenario": "certify_diag16 with norm2 = dense-rational",
            "exit_status": status, "honest": [0, 3],
            "verdict_errors": int(status not in (0, 3))}


def golden_certify(scenario_path: Path):
    """The golden 16-dim diagonal certify, called the way the workloads call it."""
    doc = json.loads(scenario_path.read_text(encoding="utf-8"))
    T = operator_from_json(doc["operator"])
    return ehrling.certify(T, normspec_from_json(doc["norm1"]), family_from_json(doc["norm2"]))


def warm_up(out_dir: Path) -> None:
    """Fill lazy caches: one tiny call into each layer and each CLI job."""
    rng = np.random.default_rng(12345)
    T = make_diagonal(decaying_diagonal(rng, 4, 1.5), L2, L2)
    fam = DualFamily("coordinate", L2)
    small = OptimizerSettings(n_starts=4, iterations=4, polish_rounds=2, harden_rounds=1)
    ehrling.certify(T, L2, fam, (0.5,), opt=small, sampler=SamplerSettings(n_samples=64))
    ehrling.verify_certificate(T, L2, DualFamily("dense-rational", L2), 2.0, 1.0,
                       opt=small, sampler=SamplerSettings(n_samples=64))
    for i, job in enumerate(JOBS):
        doc, _ = scenario_doc(rng, job, i)
        doc["budget"] = dict(doc.get("budget", {}), n_starts=4, iterations=4, polish_rounds=2)
        doc["output"] = {"report": f"warm{i}.json", "csv": f"warm{i}.csv"}
        cli.validate_scenario(doc)
        cli.run(doc, output_dir=out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
