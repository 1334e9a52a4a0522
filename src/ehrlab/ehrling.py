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
  enlarge the feasible region and shrink the certified delta.

Certificates are hardened after bisection: a dedicated ascent attacks the
PASS residual, and delta shrinks until the attack comes back empty. Rows of
a certificate table may inherit the constant of a smaller-eps row (valid
there implies valid here), which enforces monotonicity without weakening any
claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonInjectiveError, ToleranceError, UnsupportedNormError
from .operators import LinearOperator, as_matrix
from .optimize import (
    NormHandle,
    OptimizerSettings,
    SamplerSettings,
    ball_points,
    bisect_modulus,
    maximize_direction,
    norm_handle,
    operator_handle,
    ratio_objective,
)
from .spaces import DualFamily, Element, NormSpec

__all__ = [
    "OptimizerSettings",
    "SamplerSettings",
    "CertificateRow",
    "EhrlingCertificate",
    "Witness",
    "VerificationReport",
    "OptimalConstantResult",
    "modulus_delta",
    "certificate_from_modulus",
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

    def row(self, eps: float) -> CertificateRow:
        for r in self.rows:
            if math.isclose(r.eps, eps, rel_tol=1e-12):
                return r
        raise KeyError(f"no certificate row at eps={eps}")


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

    def as_dict(self) -> dict:
        return {"value": self.value, "approximate": self.approximate,
                "witness": self.witness.coeffs.tolist()}


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


def _norm_cap(norm_x: NormSpec | None, norm1: NormHandle, dim: int,
              opt: OptimizerSettings) -> float:
    """Upper estimate of the strong norm over the norm1 unit ball.

    Used only to fix the enclosure term count, so a loose factor is fine.
    """
    if norm_x is None:
        return 1.0

    f, fg = ratio_objective(norm_handle(norm_x), norm1)
    light = replace(opt, iterations=20, polish_rounds=10)
    val, _ = maximize_direction(f, dim, light, value_and_grad=fg)
    return 2.0 * max(val, 1.0)


def _handles(T: LinearOperator, norm1, norm2, dim: int, opt: OptimizerSettings):
    h1 = norm_handle(norm1)
    fam_space = None
    if isinstance(norm2, DualFamily):
        fam_space = norm2.space
    elif isinstance(norm2, NormSpec) and norm2.kind == "very-weak":
        fam_space = norm2.family.space
    cap = _norm_cap(fam_space, h1, dim, opt) if fam_space is not None else 1.0
    h2 = norm_handle(norm2, enclosure_tol=opt.enclosure_tol, norm_cap=cap)
    return h1, h2, operator_handle((T,), T.codomain)


def _sample(hy: NormHandle, h1: NormHandle, h2: NormHandle, pts: np.ndarray):
    """A verification sample with its (hy, h1, h2 lo, h2 hi) values.

    None of them depends on (eps, C), so every verification of the same
    sample reuses them instead of re-evaluating all of its points.
    """
    lo, hi = h2.bounds(pts)
    return pts, hy.hi(pts), h1.hi(pts), lo, hi


def _unit(h1: NormHandle, V: np.ndarray) -> np.ndarray:
    """The rows of V scaled onto the h1 unit sphere (zero rows left alone)."""
    n1 = h1.hi(V)
    return V / np.where(n1 > 0.0, n1, 1.0)[:, None]


def _unit_grad(h1: NormHandle, V: np.ndarray):
    """_unit(h1, V), plus the chain rule taking a gradient at W back to V.

    For W = V / s(V): grad_V phi(W) = (grad phi - <grad phi, W> grad s) / s.
    """
    n1, g1 = h1.hi_grad(V)
    s = np.where(n1 > 0.0, n1, 1.0)[:, None]
    W = V / s
    return W, lambda Gw: (Gw - (Gw * W).sum(axis=1)[:, None] * g1) / s


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with +-inf where den vanishes and -inf in place of NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))
    return np.where(np.isnan(r), -np.inf, r)


def _quotient_grad(r: np.ndarray, gnum: np.ndarray, den: np.ndarray,
                   gden: np.ndarray) -> np.ndarray:
    """Gradient of r = num / den; rows with den = 0 come out non-finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (gnum - r[:, None] * gden) / den[:, None]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def modulus_delta(T: LinearOperator, norm1, norm2, eps: float,
                  opt: OptimizerSettings = OptimizerSettings()) -> float:
    """Largest certified delta with sup{||Tu||_Y : norm1<=1, norm2<=delta} <= eps.

    Bisection runs to relative width 1e-3 (configurable) and returns the
    feasible end of the bracket. Raises NoModulusError when the restricted
    supremum still exceeds eps at the configured delta floor. When the
    constraint never binds (the unconstrained supremum is already <= eps)
    the upper search bound itself is returned.
    """
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2, dim, opt)
    delta, _ = bisect_modulus(hy, h1, h2, eps, dim, opt)
    return float(delta)


def certificate_from_modulus(eps: float, delta: float) -> CertificateRow:
    """The constructive constant: C = eps / delta, exact in floating point."""
    if not (eps > 0.0 and delta > 0.0):
        raise ToleranceError("eps and delta must be positive")
    return CertificateRow(eps=float(eps), delta=float(delta),
                          C=float(eps) / float(delta), method="modulus",
                          residual=float("nan"))


def _attack_residual(hy, h1, h2, eps, C, dim, opt, extra=None):
    """Ascent on the PASS residual hy - eps*h1 - C*h2.lo over the h1 unit sphere."""

    def f(V):
        W = _unit(h1, V)
        return hy.hi(W) - eps - C * h2.lo(W)

    def fg(V):
        W, back = _unit_grad(h1, V)
        (y, gy), (n2, g2) = hy.hi_grad(W), h2.lo_grad(W)
        return y - eps - C * n2, back(gy - C * g2)

    val, v = maximize_direction(f, dim, opt, extra_starts=extra, value_and_grad=fg)
    n1 = float(h1.hi(v[None, :])[0])
    return val, v / n1 if n1 > 0.0 else v


def _verify_points(hy, h1, h2, eps, C, sample, witnesses):
    """PASS and FAIL residuals on the sample followed by the witnesses.

    Returns (pass residuals, fail residuals, point), where point(k) is the
    k-th point in that order.
    """
    pts, y, n1, lo, hi = sample
    W = None
    if witnesses:
        W = np.vstack([np.atleast_2d(w) for w in witnesses])
        if W.shape[1] < pts.shape[1]:
            W = np.pad(W, ((0, 0), (0, pts.shape[1] - W.shape[1])))
        _, wy, wn1, wlo, whi = _sample(hy, h1, h2, W)
        y, n1, lo, hi = (np.concatenate(pair) for pair in
                         ((y, wy), (n1, wn1), (lo, wlo), (hi, whi)))
    pass_res = y - eps * n1 - C * lo
    fail_res = y - eps * n1 - C * hi
    n = pts.shape[0]
    return pass_res, fail_res, lambda k: pts[k] if k < n else W[k - n]


def verify_certificate(T: LinearOperator, norm1, norm2, eps: float, C: float,
                       sampler: SamplerSettings = SamplerSettings(),
                       opt: OptimizerSettings = OptimizerSettings(),
                       witnesses=()) -> VerificationReport:
    """Evaluate the inequality on ball samples, basis vectors, and witnesses.

    The reported residual is the conservative one (norm2 lower bound): if it
    is <= 0 the inequality holds at every sampled point for the true norm2
    value. A Witness is attached only when the upper-bound residual is
    positive somewhere, which proves a genuine violation.
    """
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2, dim, opt)
    sample = _sample(hy, h1, h2, ball_points(sampler, dim, h1))
    pass_res, fail_res, point = _verify_points(
        hy, h1, h2, eps, C, sample, list(witnesses))
    k = int(np.argmax(pass_res))
    max_pass, worst = float(pass_res[k]), point(k)
    witness = None
    if fail_res.max() > 0.0:
        k = int(np.argmax(fail_res))
        u = point(k)
        denom = float(h2.hi(u[None, :])[0])
        num = float(hy.hi(u[None, :])[0] - eps * h1.hi(u[None, :])[0])
        witness = Witness(
            u=Element(u), eps=eps,
            lower_bound_on_C=num / denom if denom > 0.0 else float("inf"),
            residual=float(fail_res[k]),
            note="upper-bound residual positive: genuine violation",
        )
    return VerificationReport(
        passed=max_pass <= 0.0,
        max_residual=max_pass,
        n_points=int(pass_res.size),
        worst=Element(worst),
        witness=witness,
    )


def _certify_rows(hy, h1, h2, eps_grid, dim, opt, sampler):
    """Bisect, harden, and verify one row per eps; then enforce monotonicity."""
    if not len(tuple(eps_grid)):
        raise ToleranceError("eps grid must contain at least one value")
    sample = _sample(hy, h1, h2, ball_points(sampler, dim, h1))
    rows = []
    pools = []
    eps_sorted = sorted({float(e) for e in eps_grid}, reverse=True)
    for eps in eps_sorted:
        delta, info = bisect_modulus(hy, h1, h2, eps, dim, opt)
        pool = info["witnesses"]
        C = eps / delta
        # hardening: shrink delta until the residual attack comes back empty
        for _ in range(opt.harden_rounds):
            warm = np.vstack([np.atleast_2d(w) for w in pool]) if pool else None
            attack_val, attacker = _attack_residual(
                hy, h1, h2, eps, C, dim, opt, extra=warm)
            pool.append(attacker)
            max_pass = _verify_points(hy, h1, h2, eps, C, sample, pool)[0].max()
            if max(attack_val, max_pass) <= 0.0:
                break
            delta *= 0.8
            C = eps / delta
        rows.append(CertificateRow(eps=eps, delta=delta, C=C,
                                   method="modulus", residual=float("nan")))
        pools.append(pool)

    # sound envelope: a row may inherit the constant of any smaller-eps row
    for i in range(len(rows) - 2, -1, -1):
        if rows[i + 1].C < rows[i].C:
            rows[i] = replace(rows[i], C=rows[i + 1].C,
                              delta=rows[i].eps / rows[i + 1].C)

    # final verification stamps the reported residuals
    out = []
    all_pool = [w for pool in pools for w in pool]
    for r in rows:
        max_pass = _verify_points(hy, h1, h2, r.eps, r.C, sample, all_pool)[0].max()
        out.append(replace(r, residual=float(max_pass)))
    return out


def certify(T: LinearOperator, norm1, norm2, eps_grid=DEFAULT_EPS_GRID,
            opt: OptimizerSettings = OptimizerSettings(),
            sampler: SamplerSettings = SamplerSettings()) -> EhrlingCertificate:
    """Constructive certificate table over an eps grid (descending)."""
    dim = _operator_dim(T, opt)
    h1, h2, hy = _handles(T, norm1, norm2, dim, opt)
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
    h1, h2, hy = _handles(T, norm1, norm2, dim, opt)

    def f(V):
        y = hy.hi(V)
        n1 = h1.hi(V)
        return _quotient(y - eps * n1, h2.lo(V))

    def fg(V):
        (y, gy), (n1, g1), (n2, g2) = hy.hi_grad(V), h1.hi_grad(V), h2.lo_grad(V)
        r = _quotient(y - eps * n1, n2)
        return r, _quotient_grad(r, gy - eps * g1, n2, g2)

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
    h1, h2, hy = _handles(T, norm1, fam, dim, opt)

    B = _unit(h1, np.eye(dim))
    num = hy.hi(B) - eps * h1.hi(B)
    den = h2.hi(B)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0))
    for k in range(dim):
        if ratios[k] > c_max:
            u = B[k]
            return Witness(
                u=Element(u), eps=eps, lower_bound_on_C=float(ratios[k]),
                residual=float(num[k] - c_max * den[k]),
                note=f"basis direction e_{k + 1}",
            )

    def f(V):
        W = _unit(h1, V)
        return _quotient(hy.hi(W) - eps, h2.hi(W))

    def fg(V):
        W, back = _unit_grad(h1, V)
        (y, gy), (d2, g2) = hy.hi_grad(W), h2.hi_grad(W)
        r = _quotient(y - eps, d2)
        return r, back(_quotient_grad(r, gy, d2, g2))

    val, v = maximize_direction(f, dim, opt, value_and_grad=fg)
    if math.isfinite(val) and val > c_max:
        n1v = float(h1.hi(v[None, :])[0])
        u = v / n1v if n1v > 0.0 else v
        num_u = float(hy.hi(u[None, :])[0] - eps * h1.hi(u[None, :])[0])
        den_u = float(h2.hi(u[None, :])[0])
        return Witness(
            u=Element(u), eps=eps, lower_bound_on_C=num_u / den_u,
            residual=num_u - c_max * den_u, note="ascent",
        )
    return None


# ---------------------------------------------------------------------------
# reverse and three-space forms
# ---------------------------------------------------------------------------

_REFLEXIVE_KINDS = ("lp", "weighted-lp", "sobolev-h1")


def _check_reflexive_model(ns: NormSpec):
    if ns.kind not in _REFLEXIVE_KINDS:
        raise UnsupportedNormError(
            f"reverse certification needs a reflexive-model norm, got {ns.label}"
        )
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
    the smallest singular value of the materialized matrix.
    """
    _check_reflexive_model(T.domain)
    dim = _operator_dim(T, opt)
    M = as_matrix(T, dim)
    smin = float(np.linalg.svd(M, compute_uv=False)[-1])
    if smin <= 1e-10:
        raise NonInjectiveError(
            f"smallest singular value {smin:.3g} on the dim-{dim} truncation"
        )

    hX = norm_handle(T.domain)
    famh = norm_handle(fam, enclosure_tol=opt.enclosure_tol,
                       norm_cap=_norm_cap(fam.space, hX, dim, opt))
    # roles exchanged: the objective is the very weak norm upper bound and the
    # constraint norm is ||Tu||_Y
    yh = operator_handle((T,), T.codomain)
    delta, info = bisect_modulus(famh, hX, yh, eps, dim, opt)
    C = eps / delta

    # verification with exchanged roles: residual = |u|_hi - eps*||u||_X - C*||Tu||
    sample = _sample(famh, hX, yh, ball_points(sampler, dim, hX))
    for _ in range(opt.harden_rounds):
        aval, _ = _attack_residual(famh, hX, yh, eps, C, dim, opt)
        worst = _verify_points(famh, hX, yh, eps, C, sample, ())[0].max()
        if max(aval, worst) <= 0.0:
            break
        delta *= 0.8
        C = eps / delta
    res = _verify_points(famh, hX, yh, eps, C, sample, ())[0]
    return CertificateRow(eps=float(eps), delta=float(delta), C=float(C),
                          method="reverse", residual=float(res.max()))


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
    h2 = operator_handle((theta, tau_op), tau_op.codomain)
    hy = operator_handle((theta,), theta.codomain)
    rows = _certify_rows(hy, h1, h2, eps_grid, dim, opt, sampler)
    return EhrlingCertificate(
        rows=rows, operator_label=f"{theta.label} / {tau_op.label}",
        norm1_label=h1.label, norm2_label=h2.label,
    )
