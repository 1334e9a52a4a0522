"""Deterministic search machinery behind certification and falsification.

All maximizations here run over *directions*: every objective is built to be
invariant under positive scaling of its argument, so the search space is the
unit sphere of the reference norm. The recipe is fixed and seeded: a
coordinate-axis scan, a batch of random starts driven by subgradient ascent
with per-start adaptive steps, then a pattern-search polish around the
leaders. Identical settings give bit-for-bit identical trajectories.

Every objective comes as a pair: the value-only map used by the scan and the
polish, and a value-and-gradient map used by the ascent, built by the chain
rule from the closed-form subgradients of its pieces. Because objectives are
0-homogeneous, their Euclidean gradient is already tangent to the sphere.

Norm-like quantities enter through NormHandle, which returns the lower and
upper evaluations from one call, or one of them with a subgradient. Plain
norms have lo = hi; a dual family contributes the certified enclosure of the
very weak norm at a fixed term count (fixed so both bounds stay exactly
positively homogeneous); an operator handle evaluates ||A_k ... A_1 u|| and
pulls gradients back through the adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoModulusError, ToleranceError
from .operators import _adjoint_batch, apply_batch
from .spaces import DualFamily, NormSpec, _norm_grad, norm_batch
from .veryweak import _least_terms, very_weak_norm_batch

__all__ = [
    "OptimizerSettings",
    "SamplerSettings",
    "NormHandle",
    "maximize_direction",
    "ball_points",
    "bisect_modulus",
]


@dataclass(frozen=True)
class OptimizerSettings:
    """Budgets and seeds for the deterministic search.

    dim is the ambient truncation the search runs in; when None it is
    inferred from the operator (diagonal/dense/kernel carry one) and falls
    back to 16. delta_floor is the smallest modulus the bisection will
    consider before declaring that no modulus exists. enclosure_tol fixes the
    width of very-weak enclosures used inside the search.
    """

    seed: int = 0
    n_starts: int = 64
    iterations: int = 60
    polish_rounds: int = 30
    step_init: float = 0.25
    bisect_rel_width: float = 1e-3
    delta_floor: float = 1e-14
    enclosure_tol: float = 1e-10
    harden_rounds: int = 8
    dim: int | None = None


@dataclass(frozen=True)
class SamplerSettings:
    """Verification sample: random ball points plus the basis directions."""

    n_samples: int = 10000
    seed: int = 0
    include_basis: bool = True


# ---------------------------------------------------------------------------
# norm handles
# ---------------------------------------------------------------------------

class NormHandle:
    """Batched evaluation of a norm-like quantity and of its subgradients.

    bounds returns the (lo, hi) enclosure from one evaluation. lo_grad and
    hi_grad return one bound together with a subgradient row per operand
    row; their values are bit-identical to those of bounds.
    """

    label: str = ""

    def bounds(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def lo(self, U: np.ndarray) -> np.ndarray:
        return self.bounds(U)[0]

    def hi(self, U: np.ndarray) -> np.ndarray:
        return self.bounds(U)[1]

    def lo_grad(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def hi_grad(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _SpecHandle(NormHandle):
    def __init__(self, ns: NormSpec):
        self.ns = ns
        self.label = ns.label

    def bounds(self, U):
        v = norm_batch(self.ns, U)
        return v, v

    def lo_grad(self, U):
        v = norm_batch(self.ns, U)
        return v, _norm_grad(self.ns, U, v)

    hi_grad = lo_grad


class _FamilyHandle(NormHandle):
    """Very weak norm through a fixed-term enclosure.

    The term count is frozen up front (from the enclosure tolerance and a cap
    on the strong norms the search will see) so that both bounds are exactly
    positively homogeneous; the tail majorant stays valid for every argument
    regardless of the cap. The gradient of lo is sum_k 2^-k sign<phi_k,u> phi_k
    (w * sign(u) in coordinate mode); hi adds 2^-M times the strong-norm
    gradient outside coordinate mode. Where a pairing vanishes, each
    coordinate takes its one-sided derivative along +e_j (2^-k |phi_kj|), so
    axis-aligned rows, such as the axis scan's best row and basis-like warm
    starts, still get a direction off their kinks.
    """

    def __init__(self, fam: DualFamily, tol: float, norm_cap: float):
        self.fam = fam
        self.label = f"very-weak({fam.mode}, {fam.space.label})"
        cap = max(float(norm_cap), 1.0)
        self.terms = _least_terms(cap, tol)
        self._series = 2.0 ** (-np.arange(1, self.terms + 1, dtype=np.float64))
        self._prefix = {}  # operand width -> phi_1..phi_M cut to that width

    def bounds(self, U):
        return very_weak_norm_batch(self.fam, U, terms=self.terms)

    def _lo_gradient(self, U):
        d = U.shape[1]
        if self.fam.mode == "coordinate":
            w = self.fam.coordinate_weights(d)
            return np.where(U < 0.0, -w, w)
        P = self._prefix.get(d)
        if P is None:
            P = self._prefix[d] = self.fam.prefix_matrix(self.terms, d)[:, :d]
        S = U @ P.T
        return (np.sign(S) * self._series) @ P + ((S == 0.0) * self._series) @ np.abs(P)

    def lo_grad(self, U):
        lo, _ = self.bounds(U)
        return lo, self._lo_gradient(U)

    def hi_grad(self, U):
        _, hi = self.bounds(U)
        G = self._lo_gradient(U)
        if self.fam.mode != "coordinate":
            R = norm_batch(self.fam.space, U)
            G += 2.0 ** (-self.terms) * _norm_grad(self.fam.space, U, R)
        return hi, G


class _OperatorHandle(NormHandle):
    """u -> inner(A_k ... A_1 u) for an operator chain, inner at its upper bound.

    Both bounds are the inner upper bound (the conservative side for an
    objective value). Gradients pull the inner gradient back through the
    adjoints, last operator first.
    """

    def __init__(self, ops, inner: NormHandle):
        self.ops = tuple(ops)
        self.inner = inner
        self.label = " after ".join([inner.label] + [op.label for op in reversed(self.ops)])

    def _apply(self, U):
        widths = []
        for op in self.ops:
            widths.append(U.shape[1])
            U = apply_batch(op, U)
        return U, widths

    def bounds(self, U):
        v = self.inner.hi(self._apply(U)[0])
        return v, v

    def lo_grad(self, U):
        Y, widths = self._apply(U)
        v, G = self.inner.hi_grad(Y)
        for op, d in zip(reversed(self.ops), reversed(widths)):
            G = _adjoint_batch(op, G, d)
        return v, G

    hi_grad = lo_grad


def norm_handle(obj, *, enclosure_tol: float = 1e-10, norm_cap: float = 1.0) -> NormHandle:
    """Wrap a NormSpec or DualFamily (or pass a handle through) for batched use."""
    if isinstance(obj, NormHandle):
        return obj
    if isinstance(obj, DualFamily):
        return _FamilyHandle(obj, enclosure_tol, norm_cap)
    if isinstance(obj, NormSpec):
        if obj.kind == "very-weak":
            return _FamilyHandle(obj.family, obj.tolerance, norm_cap)
        return _SpecHandle(obj)
    raise ToleranceError(f"cannot build a norm handle from {type(obj).__name__}")


def operator_handle(ops, ynorm) -> NormHandle:
    """u -> ||A_k ... A_1 u||_Y for the operators ops, applied first to last."""
    return _OperatorHandle(ops, norm_handle(ynorm))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def ball_points(sampler: SamplerSettings, dim: int, norm1: NormHandle) -> np.ndarray:
    """Deterministic sample of the norm1 unit ball, plus normalized basis rows."""
    rng = np.random.default_rng(sampler.seed)
    X = rng.standard_normal((sampler.n_samples, dim))
    norms = norm1.hi(X)
    norms = np.where(norms > 0.0, norms, 1.0)
    radii = rng.random(sampler.n_samples) ** (1.0 / dim)
    pts = X / norms[:, None] * radii[:, None]
    if sampler.include_basis:
        E = np.eye(dim)
        en = norm1.hi(E)
        en = np.where(en > 0.0, en, 1.0)
        pts = np.vstack([pts, E / en[:, None]])
    return pts


# ---------------------------------------------------------------------------
# direction search
# ---------------------------------------------------------------------------

def _unit_rows(V: np.ndarray) -> np.ndarray:
    n = np.sqrt((V * V).sum(axis=1))
    bad = n < 1e-300
    if np.any(bad):
        V = V.copy()
        V[bad] = 0.0
        V[bad, 0] = 1.0
        n = np.where(bad, 1.0, n)
    return V / n[:, None]


def _usable(vals: np.ndarray, G: np.ndarray):
    """Rows whose value or gradient is not finite get no ascent direction."""
    bad = ~(np.isfinite(vals) & np.isfinite(G).all(axis=1))
    if np.any(bad):
        G[bad] = 0.0
    return vals, G


def maximize_direction(objective, dim: int, opt: OptimizerSettings,
                       extra_starts: np.ndarray | None = None, *, value_and_grad):
    """Maximize a scale-invariant batched objective over nonzero directions.

    objective maps an (n, dim) array of directions to (n,) values and must
    tolerate arbitrary nonzero rows; value_and_grad maps the same rows to
    (values, (n, dim) subgradients), with values bit-identical to
    objective's. The axis scan and the polish use objective; the starts and
    the ascent use value_and_grad, one call of n rows per iteration.
    Returns (best value, best direction).
    """
    rng = np.random.default_rng(opt.seed)

    blocks = [np.eye(dim), -np.eye(dim),
              rng.standard_normal((opt.n_starts, dim))]
    if extra_starts is not None and len(extra_starts):
        blocks.append(np.atleast_2d(np.asarray(extra_starts, dtype=np.float64)))
    axes = np.vstack(blocks[:2])
    axis_vals = objective(axes)

    # seed the ascent with the best axis as well
    k = int(np.argmax(axis_vals))
    V = np.vstack([_unit_rows(np.vstack(blocks[2:])), axes[k][None, :]])
    vals, G = _usable(*value_and_grad(V))

    n = V.shape[0]
    steps = np.full(n, opt.step_init)
    eye = np.eye(dim)

    for _ in range(opt.iterations):
        # rows scaled to unit max-entry first, so squaring cannot overflow
        D = G / np.maximum(np.abs(G).max(axis=1), 1e-300)[:, None]
        dn = np.sqrt((D * D).sum(axis=1))
        dn = np.where(dn > 0.0, dn, 1.0)
        W = _unit_rows(V + steps[:, None] * D / dn[:, None])
        fw, GW = _usable(*value_and_grad(W))
        better = fw > vals
        V[better] = W[better]
        vals[better] = fw[better]
        G[better] = GW[better]
        steps[better] *= 1.25
        steps[~better] *= 0.5
        if np.all(steps < 1e-12):
            break

    # pattern-search polish around the current leaders
    order = np.argsort(vals)[::-1][: min(4, n)]
    leaders = V[order].copy()
    lead_vals = vals[order].copy()
    radius = 0.1
    for _ in range(opt.polish_rounds):
        cands = (leaders[:, None, :] + radius * np.vstack([eye, -eye])[None, :, :])
        cands = cands.reshape(-1, dim)
        cv = objective(_unit_rows(cands)).reshape(len(leaders), 2 * dim)
        best_j = cv.argmax(axis=1)
        best_v = cv[np.arange(len(leaders)), best_j]
        improved = best_v > lead_vals
        moved = _unit_rows(cands.reshape(len(leaders), 2 * dim, dim)[
            np.arange(len(leaders)), best_j])
        leaders[improved] = moved[improved]
        lead_vals[improved] = best_v[improved]
        radius *= 0.7

    pool_vals = np.concatenate([axis_vals, vals, lead_vals])
    pool = np.vstack([axes, V, leaders])
    j = int(np.argmax(pool_vals))
    return float(pool_vals[j]), pool[j].copy()


def ratio_objective(num: NormHandle, den: NormHandle):
    """num.lo / den.hi as a search pair (value, value-and-gradient).

    Rows where den vanishes, or the quotient is not finite, read 0.
    """

    def ratio(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(b > 0.0, a / b, 0.0)
        return np.where(np.isfinite(r), r, 0.0)

    def f(V):
        return ratio(num.lo(V), den.hi(V))

    def fg(V):
        (a, ga), (b, gb) = num.lo_grad(V), den.hi_grad(V)
        r = ratio(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            return r, (ga - r[:, None] * gb) / b[:, None]

    return f, fg


# ---------------------------------------------------------------------------
# modulus bisection
# ---------------------------------------------------------------------------

def _restricted_sup(hy: NormHandle, norm1: NormHandle, norm2: NormHandle,
                    delta: float, dim: int, opt: OptimizerSettings, warm=None):
    """sup hy(u) over {norm1(u) <= 1, norm2(u) <= delta} by direction search.

    The objective rescales each direction v onto the boundary of the feasible
    region: c = min(1/norm1(v), delta/norm2(v)); its value is c * hy(v).
    The norm2 lower bound is used for feasibility, which can only enlarge the
    region and overestimate the supremum: the conservative side.
    """

    def scale(n1, n2):
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(n1 > 0.0, 1.0 / n1, np.inf)
            c2 = np.where(n2 > 0.0, delta / n2, np.inf)
        c = np.minimum(c1, c2)
        return c1, c2, np.where(np.isfinite(c), c, 0.0)  # both norms vanish: the zero ray

    def f(V):
        n1 = norm1.hi(V)
        n2 = norm2.lo(V)
        return hy.hi(V) * scale(n1, n2)[2]

    def fg(V):
        (n1, g1), (n2, g2), (y, gy) = norm1.hi_grad(V), norm2.lo_grad(V), hy.hi_grad(V)
        c1, c2, c = scale(n1, n2)
        # the binding branch of the min: d(1/n1) = -g1/n1^2, d(delta/n2) = -delta g2/n2^2
        with np.errstate(invalid="ignore", over="ignore"):
            dc = np.where((c1 <= c2)[:, None], -g1 * (c1 * c1)[:, None],
                          -g2 * (c2 * c2 / delta)[:, None])
            return y * c, gy * c[:, None] + y[:, None] * dc

    return maximize_direction(f, dim, opt, extra_starts=warm, value_and_grad=fg)


def bisect_modulus(hy: NormHandle, norm1: NormHandle, norm2: NormHandle, eps: float,
                   dim: int, opt: OptimizerSettings):
    """Largest delta (to relative width bisect_rel_width) with sup hy <= eps.

    hy is the objective seminorm (u -> ||Tu||_Y in the forward inequality);
    the sup runs over {norm1(u) <= 1, norm2(u) <= delta}. Returns
    (delta, info). info carries the witness pool for verification, the
    upper search bound, and whether the bound itself already satisfied the
    predicate (the degenerate case: the constraint never binds).
    """
    if eps <= 0.0:
        raise ToleranceError(f"eps must be positive, got {eps}")

    # upper search bound: sup norm2 over the norm1 unit ball
    f, fg = ratio_objective(norm2, norm1)
    bound, _ = maximize_direction(f, dim, opt, value_and_grad=fg)
    bound = max(bound, opt.delta_floor)

    witnesses = []

    def predicate(delta, warm):
        val, w = _restricted_sup(hy, norm1, norm2, delta, dim, opt, warm)
        witnesses.append(w)
        return val <= eps, val, w

    ok, val, w = predicate(bound, None)
    info = {"upper_bound": bound, "witnesses": witnesses, "degenerate": False,
            "sup_at_delta": val}
    if ok:
        info["degenerate"] = True
        return bound, info

    # geometric descent to bracket, then log-space bisection
    hi_d, lo_d = bound, None
    delta = bound
    warm = w[None, :]
    while delta > opt.delta_floor:
        delta = max(delta / 16.0, opt.delta_floor)
        ok, val, w = predicate(delta, warm)
        warm = w[None, :]
        if ok:
            lo_d = delta
            break
        hi_d = delta
    if lo_d is None:
        raise NoModulusError(eps, opt.delta_floor, val)

    while hi_d / lo_d > 1.0 + opt.bisect_rel_width:
        mid = float(np.sqrt(lo_d * hi_d))
        ok, val, w = predicate(mid, warm)
        warm = w[None, :]
        if ok:
            lo_d = mid
        else:
            hi_d = mid

    info["sup_at_delta"] = val
    return lo_d, info

