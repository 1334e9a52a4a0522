"""Convergence-mode diagnostics and the unbounded very-weak-null construction.

A sequence can converge in norm, weakly (probed through finitely many
functionals), or merely in the very weak norm; on bounded sets the last two
agree, and the implication chain strong => weak => very weak never reverses
without boundedness. The classifier reports which mode the data supports at
a declared tolerance, always preferring the weakest verdict consistent with
the diagnostics.

The counterexample generator shows what boundedness failure looks like: for
each n it picks N_n with 2^-N_n < 1/n^2, takes a nonzero vector annihilated
by the first N_n family members (a nullspace computation on the pairing
matrix), and scales it to norm n. The resulting sequence has very weak norm
below 1/n while its strong norm grows without bound, so it is very-weak-null
and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import DimensionMismatchError, EhrlabError, ToleranceError
from .spaces import (
    DualFamily,
    Element,
    enumerate_phi,
    norm,
    normalized_functional,
    pair,
)
from .veryweak import very_weak_norm

__all__ = [
    "SequenceGen",
    "ModeReport",
    "classify",
    "cutoff_index",
    "default_dim",
    "appendix_counterexample",
    "implication_suite",
    "default_probes",
    "basis_sequence",
    "strongly_convergent_sequence",
    "counterexample_sequence",
]

DIM_MARGIN = 4  # spare coordinates past N_n + n in the default dimension
N_ENUMERATED = 32  # leading family members among the default probes
N_RANDOM = 32  # damped random probes among the default probes
PROBE_SEED = 0
ENVELOPE = 0.5  # random probe coefficients are damped by ENVELOPE^k

# ---------------------------------------------------------------------------
# sequence generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceGen:
    """A finite prefix u_1..u_horizon of a sequence and its declared limit."""

    elements: tuple
    target: Element | None = None

    def __post_init__(self):
        if not self.elements:
            raise ToleranceError("a sequence needs at least one element")

    @property
    def horizon(self) -> int:
        return len(self.elements)


def basis_sequence(dim: int, horizon: int | None = None) -> SequenceGen:
    """u_n = e_n inside a fixed truncation."""
    horizon = dim if horizon is None else horizon
    if horizon > dim:
        raise DimensionMismatchError(
            f"basis sequence horizon {horizon} exceeds dim {dim}")
    eye = np.eye(dim)
    return SequenceGen(tuple(Element(eye[n]) for n in range(horizon)))


def strongly_convergent_sequence(target: Element, rate: float = 0.5,
                                 horizon: int = 32) -> SequenceGen:
    """u_n = target + rate^n e_1."""
    if not (0.0 < rate < 1.0):
        raise ToleranceError(f"rate must lie in (0, 1), got {rate}")
    e1 = np.zeros(target.dim)
    e1[0] = 1.0
    return SequenceGen(tuple(Element(target.coeffs + rate ** n * e1)
                             for n in range(1, horizon + 1)), target)


def counterexample_sequence(fam: DualFamily, horizon: int = 16) -> SequenceGen:
    """u_n from the unbounded very-weak-null construction."""
    return SequenceGen(tuple(appendix_counterexample(fam, n)
                             for n in range(1, horizon + 1)))


# ---------------------------------------------------------------------------
# the unbounded very-weak-null construction
# ---------------------------------------------------------------------------

def cutoff_index(n: int) -> int:
    """Least N with 2^-N < 1/n^2, computed exactly: bit_length(n^2)."""
    if n < 1:
        raise ToleranceError(f"sequence index must be >= 1, got {n}")
    return (n * n).bit_length()


def default_dim(n: int) -> int:
    return cutoff_index(n) + n + DIM_MARGIN


def _counterexample_tol(n: int) -> float:
    """Enclosure width that still separates the very weak norm of u_n from 1/n."""
    return 0.5 / (n * n * max(n, 2))


def appendix_counterexample(fam: DualFamily, n: int) -> Element:
    """u_n with strong norm exactly n and very weak norm certified below 1/n.

    The dimension N_n + n + DIM_MARGIN exceeds the N_n rows of the pairing
    matrix, so the matrix always has a nullspace.
    """
    N = cutoff_index(n)
    P = fam.prefix_matrix(N, default_dim(n))
    ns = null_space(P)
    xi = ns[:, 0]
    # SVD signs are arbitrary; canonicalize so runs agree bit for bit
    nz = np.flatnonzero(np.abs(xi) > 1e-12)
    if nz.size and xi[nz[0]] < 0.0:
        xi = -xi

    scale = float(n) / norm(fam.space, Element(xi))
    u = Element(xi * scale)

    # construction guarantees, checked on every return
    got = norm(fam.space, u)
    if abs(got - n) > 1e-10 * max(1.0, n):
        raise EhrlabError(f"norm check failed: {got} vs {n}")
    worst = float(np.abs(P @ u.coeffs).max())
    if worst > 1e-9:
        raise EhrlabError(f"annihilation check failed: residual {worst:.3g}")
    enclosure = very_weak_norm(fam, u, tau=_counterexample_tol(n))
    if not enclosure.hi < 1.0 / n:
        raise EhrlabError(
            f"very weak norm bound failed: hi={enclosure.hi} vs 1/{n}")
    return u


# ---------------------------------------------------------------------------
# probes and classification
# ---------------------------------------------------------------------------

def default_probes(fam: DualFamily, dim: int) -> list[Element]:
    """Deterministic probe set: enumeration prefix plus damped random probes.

    The random probes draw Gaussian coefficients under a geometric envelope
    (ENVELOPE^k on coordinate k) and are rescaled into the dual unit ball.
    The envelope makes their overlap with deep coordinates decay, so a
    genuinely weakly-null sequence registers as such at a finite horizon.
    """
    probes = []
    for k in range(1, N_ENUMERATED + 1):
        try:
            probes.append(enumerate_phi(fam, k))
        except EhrlabError:
            break
    rng = np.random.default_rng(PROBE_SEED)
    damp = ENVELOPE ** np.arange(1, dim + 1)
    for _ in range(N_RANDOM):
        probes.append(normalized_functional(
            fam.space, rng.standard_normal(dim) * damp))
    return probes


@dataclass
class ModeReport:
    """Per-step diagnostics plus the supported convergence verdict."""

    verdict: str
    norms: list
    strong_residuals: list
    weak_residuals: list
    very_weak: list          # CertifiedValue per step
    tol: float
    flags: list
    probe_count: int

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "norms": self.norms,
            "strong_residuals": self.strong_residuals,
            "weak_residuals": self.weak_residuals,
            "very_weak": [cv.as_dict() for cv in self.very_weak],
            "flags": self.flags,
            "probe_count": self.probe_count,
        }


def _trailing(values: list) -> list:
    return values[len(values) // 2:]


def classify(g: SequenceGen, fam: DualFamily, tol: float = 1e-3) -> ModeReport:
    """Classify the convergence mode supported by the sequence data.

    Thresholds, all on the trailing half of the horizon: strong when the
    norm residual stays below tol; weak-not-strong when the sequence is
    bounded (norms <= 1/tol), every probe residual stays below tol, and the
    strong residual stays above 10*tol; very-weak-only when the very weak
    enclosure stays below tol while the norms exceed 1/tol. Data between
    thresholds yields the weakest consistent verdict plus a diagnostic flag.
    The probes are default_probes; the very weak enclosures are taken to
    width tol / 100.
    """
    if tol <= 0.0:
        raise ToleranceError(f"tol must be positive, got {tol}")

    limit = g.target
    probes = default_probes(fam, max(e.dim for e in g.elements))

    norms, strong_res, weak_res, vw = [], [], [], []
    for u in g.elements:
        w = (u - limit) if limit is not None else u
        norms.append(norm(fam.space, u))
        strong_res.append(norm(fam.space, w))
        weak_res.append(max(abs(pair(f, w)) for f in probes))
        vw.append(very_weak_norm(fam, w, tol / 100.0))

    flags = []
    t_strong = max(_trailing(strong_res))
    t_weak = max(_trailing(weak_res))
    t_vw = max(cv.hi for cv in _trailing(vw))
    t_norm_max = max(_trailing(norms))
    t_norm_min = min(_trailing(norms))

    bounded = t_norm_max <= 1.0 / tol
    unbounded_trend = t_norm_min > 1.0 / tol
    if not bounded and not unbounded_trend:
        flags.append("boundedness ambiguous on the trailing half")

    if t_strong < tol:
        if t_weak > tol or t_vw > tol:
            # numerically impossible for dual-normalized probes; keep honest
            flags.append("implication chain violated by probe data")
            verdict = "bounded-divergent"
        else:
            verdict = "strong"
    elif bounded and t_weak < tol and t_vw < tol:
        if t_strong < 10.0 * tol:
            flags.append("strong residual inside the guard band [tol, 10*tol)")
        verdict = "weak-not-strong"
    elif unbounded_trend and t_vw < tol:
        verdict = "very-weak-only"
    elif bounded:
        verdict = "bounded-divergent"
    else:
        verdict = "unbounded"

    return ModeReport(
        verdict=verdict, norms=norms, strong_residuals=strong_res,
        weak_residuals=weak_res, very_weak=vw, tol=tol, flags=flags,
        probe_count=len(probes),
    )


def implication_suite(g: SequenceGen, fam: DualFamily, tol: float = 1e-3) -> dict:
    """Check strong => weak => very-weak step by step on the sequence data.

    Probe functionals and family members live in the dual unit ball, so
    |<phi, w>| <= ||w|| and the very weak lower bound obeys lo <= ||w||; a
    violation of either is a bug report, not a mathematical finding.
    """
    report = classify(g, fam, tol=tol)
    violations = []
    for i, (s, w, cv) in enumerate(zip(report.strong_residuals,
                                       report.weak_residuals,
                                       report.very_weak), start=1):
        if w > s + 1e-9:
            violations.append(
                f"step {i}: probe residual {w:.3g} exceeds norm residual {s:.3g}")
        if cv.lo > s + 1e-9:
            violations.append(
                f"step {i}: very weak lower bound {cv.lo:.3g} exceeds norm residual {s:.3g}")
    return {
        "ok": not violations,
        "violations": violations,
        "verdict": report.verdict,
        "steps": g.horizon,
    }
