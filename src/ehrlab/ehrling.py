"""Certification, falsification, and reversal of Ehrling-type inequalities.

The forward inequality reads ||Tu||_Y <= eps * norm1(u) + C * norm2(u). When
T restricted to the norm1 unit ball is continuous at 0 in norm2, the largest
delta with sup{||Tu||_Y : norm1(u) <= 1, norm2(u) <= delta} <= eps converts
into a certificate with C = eps / delta: any u splits into the delta-small
part (where the restricted sup bounds ||Tu||) and the rest (where norm2(u) / delta
exceeds norm1(u) after scaling). The reverse inequality swaps the roles:
norm2(u) <= eps * norm_X(u) + C * ||Tu||_Y, meaningful for injective T.

Soundness conventions, applied throughout:

* a PASS verdict evaluates residuals with the *lower* enclosure bound of
  norm2, so a nonpositive residual implies the inequality for the true value;
* a FAIL verdict / witness divides by the *upper* bound, so the forced
  constant is a genuine lower bound on any admissible C;
* the inner maximization admits points by the lower bound, which can only
  enlarge the feasible region and shrink the certified delta; "no modulus"
  is proved only when, with the upper bound deciding feasibility, the sup
  at the floor still exceeds eps by more than 64 * dim ulps of rounding;
* dense enclosures sum 35 terms (optimize.ENCLOSURE_TERMS): tail 2^-35 ||u||.

optimize.ratio_objective builds every quotient searched here (sharp
constant, falsify, hardening attack), each enclosure on its side as above.

The moduli of all rows come from one search (optimize.bisect_modulus): the
upper bound on delta and the descent that brackets each row are shared, and
each bracket is narrowed by ITP interpolation in ln delta. A trial that a
point the row already knows refutes (one reading above eps there) fails
with no search; the trials left open share one grouped search per round.
Certificates are hardened after that search: a dedicated ascent attacks the
PASS residual, and delta shrinks until the attack comes back empty; each
round attacks every row not yet hardened in one grouped search. A grouped
search calls each objective on one row's directions only, so every row
comes out as it would alone. Rows of a certificate table may inherit the
constant of a smaller-eps row (valid there implies valid here), which
enforces monotonicity without weakening any claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blocks import _each_block, _row_blocks
from .errors import NonInjectiveError, ToleranceError, UnsupportedNormError
from .operators import LinearOperator, as_matrix
from .optimize import (
    NormHandle,
    OptimizerSettings,
    SamplerSettings,
    _maximize_group,
    _unit,
    ball_points,
    bisect_modulus,
    maximize_direction,
    norm_handle,
    ratio_objective,
)
from .spaces import DualFamily, Element, NormSpec

__all__ = [
    "CertificateRow",
    "EhrlingCertificate",
    "Witness",
    "VerificationReport",
    "OptimalConstantResult",
    "certify",
    "optimal_constant",
    "verify_certificate",
    "falsify",
    "reverse_certificate",
    "three_space_certificate",
]

DEFAULT_EPS_GRID = (1.0, 0.5, 0.25, 0.125, 0.0625)


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateRow:
    eps: float
    delta: float
    C: float
    method: str
    residual: float

    def as_dict(self) -> dict:
        return {"eps": self.eps, "delta": self.delta, "C": self.C,
                "method": self.method, "residual": self.residual}


@dataclass
class EhrlingCertificate:
    """Rows sorted by descending eps; each row verified on its sample."""

    rows: list
    operator_label: str
    norm1_label: str
    norm2_label: str

    def as_dict(self) -> dict:
        return {
            "operator": self.operator_label,
            "norm1": self.norm1_label,
            "norm2": self.norm2_label,
            "rows": [r.as_dict() for r in self.rows],
        }


@dataclass(frozen=True)
class Witness:
    """A point that forces every admissible constant above lower_bound_on_C."""

    u: Element
    eps: float
    lower_bound_on_C: float
    residual: float = float("nan")
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "u": self.u.coeffs.tolist(),
            "eps": self.eps,
            "lower_bound_on_C": self.lower_bound_on_C,
            "residual": self.residual,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    passed: bool
    max_residual: float
    n_points: int
    worst: Element
    witness: Witness | None = None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "n_points": self.n_points,
            "witness": self.witness.as_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class OptimalConstantResult:
    value: float
    witness: Element
    approximate: bool


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _operator_dim(T: LinearOperator, opt: OptimizerSettings) -> int:
    if opt.dim is not None:
        return int(opt.dim)
    if T.repr_kind == "diagonal":
        return int(T.lam.size)
    if T.repr_kind == "dense":
        return int(T.matrix.shape[1])
    if T.repr_kind == "kernel":
        return int(T.samples.shape[0])
    return 16  # the default truncation for dimension-free reprs


def _handles(T: LinearOperator, norm1, norm2):
    return norm_handle(norm1), norm_handle(norm2), norm_handle(T.codomain, (T,))


def _sample(hy: NormHandle, h1: NormHandle, h2: NormHandle, pts: np.ndarray):
    """Points with their (hy, h1, h2 lo, h2 hi) values: the verification
    sample, a certificate's witness pool, or a single witness candidate.

    None of them depends on (eps, C), so every verification of the same
    points reuses them (see _residuals) instead of re-evaluating them. They
    are evaluated in row blocks through blocks._each_block, under the block
    and worker policy that blocks states.
    """
    y, n1, lo, hi = (np.empty(pts.shape[0]) for _ in range(4))

    def block(s):
        lo[s], hi[s] = h2.bounds(pts[s])
        y[s] = hy.hi(pts[s])
        n1[s] = h1.hi(pts[s])

    _each_block(block, _row_blocks(*pts.shape))
    return pts, y, n1, lo, hi


def _residuals(sample, eps: float, C: float):
    """PASS residuals (norm2 lower bound) and FAIL residuals (norm2 upper
    bound) of ||Tu|| <= eps norm1(u) + C norm2(u) at an evaluated sample."""
    _, y, n1, lo, hi = sample
    num = y - eps * n1
    return num - C * lo, num - C * hi


def _max_pass(eps: float, C: float, *samples) -> float:
    """The largest PASS residual over evaluated samples; a NaN propagates."""
    return float(np.max([_residuals(s, eps, C)[0].max() for s in samples]))


def _witness(hy: NormHandle, h1: NormHandle, h2: NormHandle, u: np.ndarray,
             eps: float, C: float, note: str) -> Witness | None:
    """The Witness at u: the constant it forces and its residual against C,
    both taken with the norm2 upper bound (the FAIL side). None unless these
    recomputed values, not only the search's batch values (which can differ
    in the last bit), show the violation: residual > 0 and bound > C."""
    _, y, n1, _, hi = _sample(hy, h1, h2, u[None, :])
    num, den = float(y[0] - eps * n1[0]), float(hi[0])
    bound = num / den if den > 0.0 else float("inf")
    residual = num - C * den
    if not (residual > 0.0 and bound > C):
        return None
    return Witness(u=Element(u), eps=eps, lower_bound_on_C=bound,
                   residual=residual, note=note)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _attack(hy, h1, h2, eps, C, extra):
    """The search problem of the ascent on the PASS residual
    hy - eps*h1 - C*h2.lo over the h1 unit sphere, searched as its
    0-homogeneous form (hy - eps*h1 - C*h2.lo) / h1 from the starts extra."""
    f, fg = ratio_objective([(1.0, hy, "hi"), (-eps, h1, "hi"), (-C, h2, "lo")],
                            (h1, "hi"))
    return f, fg, extra


def verify_certificate(T: LinearOperator, norm1, norm2, eps: float, C: float,
                       sampler: SamplerSettings = SamplerSettings(),
                       opt: OptimizerSettings = OptimizerSettings()) -> VerificationReport:
    """Evaluate the inequality on ball samples and basis vectors.

    The reported residual is the conservative one (norm2 lower bound): if it
    is <= 0 the inequality holds at every sampled point for the true norm2
    value. A Witness is attached only when the upper-bound residual is
    positive somewhere and stays positive when recomputed at that point,
    which proves a genuine violation.
    """
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2)
    sample = _sample(hy, h1, h2, ball_points(sampler, dim, h1))
    pass_res, fail_res = _residuals(sample, eps, C)
    k = int(np.argmax(pass_res))
    max_pass, worst = float(pass_res[k]), sample[0][k]
    witness = None
    if fail_res.max() > 0.0:
        witness = _witness(hy, h1, h2, sample[0][int(np.argmax(fail_res))], eps, C,
                           "upper-bound residual positive: genuine violation")
    return VerificationReport(
        passed=max_pass <= 0.0,
        max_residual=max_pass,
        n_points=int(pass_res.size),
        worst=Element(worst),
        witness=witness,
    )


def _certify_rows(hy, h1, h2, eps_grid, dim, opt, sampler):
    """Search every row's modulus in one call, then harden and verify one row
    per eps; then enforce monotonicity.

    Hardening shrinks a row's delta by 0.8 until the residual attack comes
    back empty. Each round attacks every row not yet hardened in one grouped
    search (optimize._maximize_group); a row's attacks depend on its own
    pool alone, so it hardens exactly as it would by itself.

    hy is the bounded side and h2 the constraint norm, so the reverse form
    comes through here with its handles exchanged.
    """
    eps_sorted = sorted({float(e) for e in eps_grid}, reverse=True)
    if not eps_sorted:
        raise ToleranceError("eps grid must contain at least one value")
    sample = _sample(hy, h1, h2, ball_points(sampler, dim, h1))
    moduli = bisect_modulus(hy, h1, h2, eps_sorted, dim, opt)
    deltas = [delta for delta, _ in moduli]
    pools = [pool for _, pool in moduli]
    open_rows = list(range(len(eps_sorted)))
    for _ in range(opt.harden_rounds):
        if not open_rows:
            break
        Cs = [eps_sorted[i] / deltas[i] for i in open_rows]
        found = _maximize_group([_attack(hy, h1, h2, eps_sorted[i], C, np.vstack(pools[i]))
                                 for i, C in zip(open_rows, Cs)], dim, opt)
        still_open = []
        for i, C, (attack_val, v) in zip(open_rows, Cs, found):
            pools[i].append(_unit(h1, v[None, :])[0])
            max_pass = _max_pass(eps_sorted[i], C, sample,
                                 _sample(hy, h1, h2, np.vstack(pools[i])))
            if max(attack_val, max_pass) <= 0.0:
                continue  # hardened
            deltas[i] *= 0.8
            still_open.append(i)
        open_rows = still_open
    rows = [CertificateRow(eps=eps, delta=delta, C=eps / delta, method="modulus",
                           residual=float("nan"))
            for eps, delta in zip(eps_sorted, deltas)]

    # sound envelope: a row may inherit the constant of any smaller-eps row
    for i in range(len(rows) - 2, -1, -1):
        if rows[i + 1].C < rows[i].C:
            rows[i] = replace(rows[i], C=rows[i + 1].C,
                              delta=rows[i].eps / rows[i + 1].C)

    # final verification stamps the reported residuals
    joint = _sample(hy, h1, h2, np.vstack([w for pool in pools for w in pool]))
    return [replace(r, residual=_max_pass(r.eps, r.C, sample, joint)) for r in rows]


def certify(T: LinearOperator, norm1, norm2, eps_grid=DEFAULT_EPS_GRID,
            opt: OptimizerSettings = OptimizerSettings(),
            sampler: SamplerSettings = SamplerSettings()) -> EhrlingCertificate:
    """Constructive certificate table over an eps grid (descending)."""
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2)
    rows = _certify_rows(hy, h1, h2, eps_grid, dim, opt, sampler)
    return EhrlingCertificate(
        rows=rows, operator_label=T.label,
        norm1_label=h1.label, norm2_label=h2.label,
    )


def optimal_constant(T: LinearOperator, norm1, norm2, eps: float,
                     opt: OptimizerSettings = OptimizerSettings()) -> OptimalConstantResult:
    """Estimate of the sharp constant sup (||Tu||_Y - eps*norm1(u)) / norm2(u).

    Multi-start ascent plus the coordinate-axis scan; clamped below at 0.
    A point where the norm2 lower bound vanishes while the numerator stays
    positive makes the ratio unbounded (reachable in dense mode, where the
    enclosure's leading terms can miss a direction): the estimate is then
    inf, flagged approximate, so it still dominates every witness bound.
    """
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2)
    f, fg = ratio_objective([(1.0, hy, "hi"), (-eps, h1, "hi")], (h2, "lo"))
    val, v = maximize_direction(f, dim, opt, value_and_grad=fg)
    return OptimalConstantResult(value=max(0.0, float(val)), witness=Element(v),
                                 approximate=not math.isfinite(val))


def falsify(T: LinearOperator, norm1, fam: DualFamily, eps: float, c_max: float,
            opt: OptimizerSettings = OptimizerSettings()) -> Witness | None:
    """Search for u forcing C > c_max in ||Tu||_Y <= eps*norm1(u) + C*|u|_Phi.

    Scans the basis directions in ascending index first (their enclosures are
    exact in coordinate mode), then runs the ascent. Returns None when the
    budget is exhausted: inconclusive, not a proof of validity.
    """
    if c_max <= 0.0:
        raise ToleranceError(f"c_max must be positive, got {c_max}")
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, fam)
    f, fg = ratio_objective([(1.0, hy, "hi"), (-eps, h1, "hi")], (h2, "hi"))

    B = _unit(h1, np.eye(dim))
    for k in np.flatnonzero(f(B) > c_max):
        w = _witness(hy, h1, h2, B[k], eps, c_max, f"basis direction e_{k + 1}")
        if w is not None:
            return w

    val, v = maximize_direction(f, dim, opt, value_and_grad=fg)
    if math.isfinite(val) and val > c_max:
        return _witness(hy, h1, h2, _unit(h1, v[None, :])[0], eps, c_max, "ascent")
    return None


# ---------------------------------------------------------------------------
# reverse and three-space forms
# ---------------------------------------------------------------------------

def _check_reflexive_model(ns: NormSpec):
    if ns.kind in ("lp", "weighted-lp") and not (1.0 < ns.p < math.inf):
        raise UnsupportedNormError(
            f"reverse certification needs 1 < p < inf, got p={ns.p:g}"
        )


def reverse_certificate(T: LinearOperator, fam: DualFamily, eps: float,
                        opt: OptimizerSettings = OptimizerSettings(),
                        sampler: SamplerSettings = SamplerSettings()) -> CertificateRow:
    """Certificate for |u|_Phi <= eps*norm_X(u) + C*||Tu||_Y on injective T.

    The domain norm must be a reflexive model (lp with 1 < p < inf, or the
    Hilbertian sobolev-h1); injectivity on the truncation is checked through
    the smallest singular value of the materialized matrix. The row's modulus
    is searched, hardened and verified by the same pipeline as certify.
    """
    _check_reflexive_model(T.domain)
    dim = _operator_dim(T, opt)
    M = as_matrix(T, dim)
    smin = float(np.linalg.svd(M, compute_uv=False)[-1])
    if smin <= 1e-10:
        raise NonInjectiveError(
            f"smallest singular value {smin:.3g} on the dim-{dim} truncation"
        )

    hX, famh, yh = _handles(T, T.domain, fam)
    # roles exchanged: the very weak norm is the bounded side and ||Tu||_Y the
    # constraint norm, so the residual is |u|_Phi - eps*||u||_X - C*||Tu||_Y
    (row,) = _certify_rows(famh, hX, yh, (eps,), dim, opt, sampler)
    return replace(row, method="reverse")


def three_space_certificate(theta: LinearOperator, tau_op: LinearOperator,
                            eps_grid=DEFAULT_EPS_GRID,
                            opt: OptimizerSettings = OptimizerSettings(),
                            sampler: SamplerSettings = SamplerSettings()) -> EhrlingCertificate:
    """Certificate table for ||theta(u)||_Y <= eps*norm_X(u) + C*||tau(theta(u))||_Z.

    The induced second norm is norm2(u) = ||tau(theta(u))||_Z, and the
    machinery is exactly the two-norm one with that composite handle.
    """
    dim = _operator_dim(theta, opt)
    h1 = norm_handle(theta.domain)
    h2 = norm_handle(tau_op.codomain, (theta, tau_op))
    hy = norm_handle(theta.codomain, (theta,))
    rows = _certify_rows(hy, h1, h2, eps_grid, dim, opt, sampler)
    return EhrlingCertificate(
        rows=rows, operator_label=f"{theta.label} / {tau_op.label}",
        norm1_label=h1.label, norm2_label=h2.label,
    )
