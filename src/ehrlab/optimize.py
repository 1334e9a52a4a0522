"""Deterministic search machinery behind certification and falsification.

All maximizations here run over *directions*: every objective is built to be
invariant under positive scaling of its argument, so the search space is the
unit sphere of the reference norm. The recipe is fixed and seeded: a
coordinate-axis scan, a batch of random starts driven by subgradient ascent
with per-start adaptive steps, then a pattern-search polish around the
leaders. Identical settings give bit-for-bit identical trajectories.

Independent searches of one certificate (the rows' ITP trials in
bisect_modulus, the hardening attacks in ehrling) run as one grouped search,
_maximize_group, of which maximize_direction is the one-problem case: the
ascent and polish arithmetic runs once over the stacked rows of all
problems, while each objective call sees the rows of one problem only, so
every problem's result is bit for bit that of a search of its own.

Every objective comes as a pair: the value-only map used by the scan and the
polish, and a value-and-gradient map used by the ascent, built by the chain
rule from the closed-form subgradients of its pieces. Because objectives are
0-homogeneous, their Euclidean gradient is already tangent to the sphere.
Every quotient is built by ratio_objective; only the restricted sup is not.

Norm-like quantities enter through NormHandle, which returns the lower and
upper evaluations from one call, or one of them with a subgradient. A
NormSpec handle has lo = hi and may carry an operator chain: it then
evaluates ||A_k ... A_1 u|| and pulls gradients back through the adjoints.
A dual family contributes the certified enclosure of the very weak norm at
the fixed term count ENCLOSURE_TERMS (fixed so both bounds stay exactly
positively homogeneous).

Verification samples are drawn by ball_points in chunks of _DRAW_ROWS rows,
each chunk from its own seeded stream, and evaluated by ehrling._sample in
row blocks of about 1 MiB. Both go through blocks._each_block, which shares
the chunks or blocks of a large sample with one worker thread started for
that call. Each chunk and block writes only its own rows, so every value is
the same for any thread count and any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _each_block
from .errors import NoModulusError, ToleranceError
from .operators import _adjoint_batch, apply_batch
from .spaces import DualFamily, NormSpec, _norm_grad, norm_batch
from .veryweak import very_weak_norm_batch

__all__ = [
    "OptimizerSettings",
    "SamplerSettings",
    "NormHandle",
    "maximize_direction",
    "ball_points",
    "bisect_modulus",
]

STEP_INIT = 0.25  # initial ascent step of every start
# series terms of every dense family handle: the tail majorant 2^-35 ||u||
# is at most 1e-10 for ||u|| <= 3.43
ENCLOSURE_TERMS = 35
BISECT_REL_WIDTH = 1e-3  # the modulus search stops at this relative bracket width
# ITP refinement of the modulus bracket in x = ln(delta / bound): the
# truncation step is ITP_K1 * width^2 / (initial width), and a row takes at
# most ITP_N0 steps more than bisection would
ITP_K1 = 0.05
ITP_N0 = 1
# bracket width in x that guarantees hi / lo <= 1 + BISECT_REL_WIDTH for the
# rounded deltas bound * exp(x)
_ITP_WIDTH = math.log1p(BISECT_REL_WIDTH) * (1.0 - 1e-9)
# relative rounding allowed per coordinate in a sup at the floor: the value
# is hy * min(1 / norm1, delta / norm2), three sums of at most 2 d + 2
# nonnegative rounded terms each, so it errs by under 64 d ulps
_ROUNDING = 64 * 2.0 ** -53
# a verification sample is drawn in chunks of this many rows, each from its
# own seeded stream, so a chunk's points do not depend on the thread or the
# block size that computes them
_DRAW_ROWS = 4096


@dataclass(frozen=True)
class OptimizerSettings:
    """Budgets and seeds for the deterministic search.

    dim is the ambient truncation the search runs in; when None it is
    inferred from the operator (diagonal/dense/kernel carry one) and falls
    back to 16. delta_floor is the smallest modulus the search will
    consider: the descent bound, bound/16, ... stops there. A row whose
    predicate still fails at it raises NoModulusError, with the sup found
    there when norm2's upper enclosure decides feasibility; it proves that
    no modulus exists only if it exceeds eps by more than 64 * dim ulps.
    """

    seed: int = 0
    n_starts: int = 64
    iterations: int = 60
    polish_rounds: int = 30
    delta_floor: float = 1e-14
    harden_rounds: int = 8
    dim: int | None = None


@dataclass(frozen=True)
class SamplerSettings:
    """Verification sample: random ball points plus the basis directions."""

    n_samples: int = 10000
    seed: int = 0


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
    """u -> ns(A_k ... A_1 u) for the operators ops, applied first to last
    (the norm itself when there are none). Gradients pull the norm's gradient
    back through the adjoints, last operator first."""

    def __init__(self, ns: NormSpec, ops=()):
        self.ns = ns
        self.ops = tuple(ops)
        self.label = " after ".join([ns.label] + [op.label for op in reversed(self.ops)])

    def _apply(self, U):
        widths = []
        for op in self.ops:
            widths.append(U.shape[1])
            U = apply_batch(op, U)
        return U, widths

    def bounds(self, U):
        v = norm_batch(self.ns, self._apply(U)[0])
        return v, v

    def lo_grad(self, U):
        Y, widths = self._apply(U)
        v = norm_batch(self.ns, Y)
        G = _norm_grad(self.ns, Y, v)
        for op, d in zip(reversed(self.ops), reversed(widths)):
            G = _adjoint_batch(op, G, d)
        return v, G

    hi_grad = lo_grad


class _FamilyHandle(NormHandle):
    """Very weak norm through a fixed-term enclosure.

    The term count M is ENCLOSURE_TERMS, read when the handle is built, so
    both bounds are exactly positively homogeneous; the tail majorant
    2^-M ||u|| holds for every argument, however large. The gradient of lo
    is sum_k 2^-k sign<phi_k,u> phi_k (w * sign(u) in coordinate mode); hi
    adds 2^-M times the strong-norm gradient outside coordinate mode. Where
    a pairing vanishes, each coordinate takes its one-sided derivative along
    +e_j (2^-k |phi_kj|), so axis-aligned rows, such as the axis scan's best
    row and basis-like warm starts, still get a direction off their kinks.
    """

    def __init__(self, fam: DualFamily):
        self.fam = fam
        self.label = f"very-weak({fam.mode}, {fam.space.label})"
        self.terms = ENCLOSURE_TERMS
        self._series = 2.0 ** (-np.arange(1, self.terms + 1, dtype=np.float64))

    def bounds(self, U):
        return very_weak_norm_batch(self.fam, U, terms=self.terms)

    def _lo_gradient(self, U):
        d = U.shape[1]
        if self.fam.mode == "coordinate":
            w = self.fam.coordinate_weights(d)
            return np.where(U < 0.0, -w, w)
        P = self.fam.prefix_matrix(self.terms, d)
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


def norm_handle(obj) -> NormHandle:
    """Wrap a NormSpec or DualFamily for batched use."""
    if isinstance(obj, DualFamily):
        return _FamilyHandle(obj)
    if isinstance(obj, NormSpec):
        return _SpecHandle(obj)
    raise ToleranceError(f"cannot build a norm handle from {type(obj).__name__}")


def operator_handle(ops, ynorm) -> NormHandle:
    """u -> ||A_k ... A_1 u||_Y for the operators ops, applied first to last."""
    return _SpecHandle(ynorm, ops)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _unit(h1: NormHandle, V: np.ndarray) -> np.ndarray:
    """The rows of V scaled onto the h1 unit sphere (zero rows left alone)."""
    n1 = h1.hi(V)
    return V / np.where(n1 > 0.0, n1, 1.0)[:, None]


def ball_points(sampler: SamplerSettings, dim: int, norm1: NormHandle) -> np.ndarray:
    """Deterministic sample of the norm1 unit ball, plus normalized basis rows.

    The sample is cut into chunks of _DRAW_ROWS rows. Chunk c draws its
    normals V, then its radii r, from its own stream
    default_rng(SeedSequence(seed, spawn_key=(c,))), and its rows are
    (V / norm1(V)) * r. So no point depends on the thread that draws its
    chunk, on the thread count or on the block size. The sample is held
    once, and the chunks are drawn and scaled in place through one
    _each_block pass, which shares them with a worker thread of its own past
    _SERIAL_BLOCKS chunks.
    """
    n = sampler.n_samples
    out = np.empty((n + dim, dim))

    def draw(s):
        rng = np.random.default_rng(np.random.SeedSequence(
            sampler.seed, spawn_key=(s.start // _DRAW_ROWS,)))
        rng.standard_normal(out=out[s])
        radii = rng.random(s.stop - s.start) ** (1.0 / dim)
        np.multiply(_unit(norm1, out[s]), radii[:, None], out=out[s])

    _each_block(draw, [slice(a, min(a + _DRAW_ROWS, n)) for a in range(0, n, _DRAW_ROWS)])
    out[n:] = _unit(norm1, np.eye(dim))
    return out


# ---------------------------------------------------------------------------
# direction search
# ---------------------------------------------------------------------------

def _unit_rows(V: np.ndarray) -> np.ndarray:
    n = np.sqrt((V * V).sum(axis=1))
    bad = n < 1e-300
    if bad.any():
        V = V.copy()
        V[bad] = 0.0
        V[bad, 0] = 1.0
        n = np.where(bad, 1.0, n)
    return V / n[:, None]


def _usable(vals: np.ndarray, G: np.ndarray):
    """Rows whose value or gradient is not finite get no ascent direction."""
    bad = ~(np.isfinite(vals) & np.isfinite(G).all(axis=1))
    if bad.any():
        G[bad] = 0.0
    return vals, G


def _slices(sizes) -> list:
    """Consecutive slices of these lengths, from 0."""
    cuts = np.cumsum([0, *sizes])
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


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
    return _maximize_group([(objective, value_and_grad, extra_starts)], dim, opt)[0]


def _maximize_group(problems, dim: int, opt: OptimizerSettings) -> list:
    """maximize_direction for every (objective, value_and_grad, extra_starts)
    of problems, in one search; returns their (best value, best direction).

    The rows of all problems are stacked, so each step of the ascent and of
    the polish is one pass over the arrays, but every objective call sees
    the contiguous rows of one problem only. (One call on several problems'
    rows would not be bit-identical: BLAS rounds a row differently at
    another position in the call.) The stacked arithmetic is row by row, a
    problem whose steps all fall below 1e-12 is frozen where a lone search
    stops, and leaders and winners are taken per problem, so each result is
    bit for bit what a maximize_direction call of its own returns.
    """
    rng = np.random.default_rng(opt.seed)
    starts = rng.standard_normal((opt.n_starts, dim))
    axes = np.vstack([np.eye(dim), -np.eye(dim)])

    axis_vals, blocks = [], []
    for objective, _, extra in problems:
        axis_vals.append(objective(axes))
        block = [starts]
        if extra is not None and len(extra):
            block.append(np.atleast_2d(np.asarray(extra, dtype=np.float64)))
        # seed the ascent with the best axis as well (_unit_rows keeps it exactly)
        block.append(axes[int(np.argmax(axis_vals[-1]))][None, :])
        blocks.append(np.vstack(block))
    rows = _slices([len(b) for b in blocks])
    firsts = [s.start for s in rows]
    live = np.ones(len(problems), dtype=bool)

    def evaluate(W, vals, G):  # every live problem's value_and_grad on its own rows
        for (_, value_and_grad, _), s, on in zip(problems, rows, live):
            if on:
                vals[s], G[s] = value_and_grad(W[s])
        return _usable(vals, G)

    V = _unit_rows(np.vstack(blocks))
    n = V.shape[0]
    vals, G = evaluate(V, np.empty(n), np.empty_like(V))
    fw, GW = np.empty(n), np.empty_like(V)
    steps = np.full(n, STEP_INIT)

    for _ in range(opt.iterations):
        # rows scaled to unit max-entry first, so squaring cannot overflow
        D = G / np.maximum(np.abs(G).max(axis=1), 1e-300)[:, None]
        dn = np.sqrt((D * D).sum(axis=1))
        D *= steps[:, None]
        D /= np.where(dn > 0.0, dn, 1.0)[:, None]
        D += V
        W = _unit_rows(D)
        # a frozen problem's rows keep the fw of its last step, which no
        # longer exceeds vals, so they never move again
        evaluate(W, fw, GW)
        better = fw > vals
        np.copyto(V, W, where=better[:, None])
        np.copyto(vals, fw, where=better)
        np.copyto(G, GW, where=better[:, None])
        steps *= np.where(better, 1.25, 0.5)
        live &= ~np.logical_and.reduceat(steps < 1e-12, firsts)
        if not live.any():
            break

    # pattern-search polish around each problem's current leaders
    order = [s.start + np.argsort(vals[s])[::-1][:4] for s in rows]
    lead_rows = _slices([len(o) for o in order])
    order = np.concatenate(order)
    leaders, lead_vals = V[order], vals[order]
    m, at = len(leaders), np.arange(len(leaders))
    radius = 0.1
    for _ in range(opt.polish_rounds):
        cands = _unit_rows((leaders[:, None, :] + radius * axes[None, :, :]).reshape(-1, dim))
        cv = np.concatenate([objective(cands[2 * dim * s.start: 2 * dim * s.stop])
                             for (objective, _, _), s in zip(problems, lead_rows)])
        cv = cv.reshape(m, 2 * dim)
        best_j = cv.argmax(axis=1)
        best_v = cv[at, best_j]
        improved = best_v > lead_vals
        np.copyto(leaders, cands.reshape(m, 2 * dim, dim)[at, best_j], where=improved[:, None])
        np.copyto(lead_vals, best_v, where=improved)
        radius *= 0.7

    out = []
    for a_vals, s, ls in zip(axis_vals, rows, lead_rows):
        pool_vals = np.concatenate([a_vals, vals[s], lead_vals[ls]])
        pool = np.vstack([axes, V[s], leaders[ls]])
        j = int(np.argmax(pool_vals))
        out.append((float(pool_vals[j]), pool[j].copy()))
    return out


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with +-inf where den vanishes and -inf in place of NaN."""
    r = np.divide(num, den, out=np.where(num > 0.0, np.inf, -np.inf), where=den > 0.0)
    return np.fmax(r, -np.inf, out=r)


def _quotient_grad(r: np.ndarray, gnum: np.ndarray, den: np.ndarray,
                   gden: np.ndarray) -> np.ndarray:
    """Gradient of r = num / den; rows with den = 0 come out non-finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (gnum - r[:, None] * gden) / den[:, None]


def ratio_objective(num, den):
    """The quotient (sum_i c_i h_i) / h as a search pair (value, value-and-gradient).

    num is a sequence of (c, handle, side) and den one (handle, side), where
    side "lo" or "hi" picks the handle's lower or upper bound. Each distinct
    (handle, side) is evaluated once per call.
    """
    keys = list(dict.fromkeys([(h, side) for _, h, side in num] + [den]))
    (c0, i0), *rest = [(float(c), keys.index((h, side))) for c, h, side in num]
    j = keys.index(den)
    values = [getattr(h, side) for h, side in keys]
    grads = [getattr(h, side + "_grad") for h, side in keys]

    def combine(parts):  # c_1 h_1 + c_2 h_2 + ..., left to right
        first = parts[i0] if c0 == 1.0 else c0 * parts[i0]
        return sum((c * parts[i] for c, i in rest), first)

    def f(V):
        vals = [ev(V) for ev in values]
        return _quotient(combine(vals), vals[j])

    def fg(V):
        vals, gs = zip(*[ev(V) for ev in grads])
        r = _quotient(combine(vals), vals[j])
        return r, _quotient_grad(r, combine(gs), vals[j], gs[j])

    return f, fg


# ---------------------------------------------------------------------------
# modulus search
# ---------------------------------------------------------------------------

def _restricted_problem(hy: NormHandle, norm1: NormHandle, norm2: NormHandle,
                        delta: float, warm=None, side: str = "lo"):
    """The search problem (objective, value_and_grad, warm) of sup hy(u) over
    {norm1(u) <= 1, norm2(u) <= delta}.

    The objective rescales each direction v onto the boundary of the feasible
    region: c = min(1/norm1(v), delta/norm2(v)); its value is c * hy(v).
    The norm2 lower bound decides feasibility by default: it can only enlarge
    the region and overestimate the supremum, the conservative side for a
    modulus. side="hi" keeps every valued point truly feasible instead.
    """
    n2_value, n2_grad = getattr(norm2, side), getattr(norm2, side + "_grad")

    def scale(n1, n2):
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(n1 > 0.0, 1.0 / n1, np.inf)
            c2 = np.where(n2 > 0.0, delta / n2, np.inf)
        c = np.minimum(c1, c2)
        return c1, c2, np.where(np.isfinite(c), c, 0.0)  # both norms vanish: the zero ray

    def f(V):
        n1 = norm1.hi(V)
        n2 = n2_value(V)
        return hy.hi(V) * scale(n1, n2)[2]

    def fg(V):
        (n1, g1), (n2, g2), (y, gy) = norm1.hi_grad(V), n2_grad(V), hy.hi_grad(V)
        c1, c2, c = scale(n1, n2)
        first = c1 <= c2
        # the binding branch of the min: d(1/n1) = -g1/n1^2, d(delta/n2) = -delta g2/n2^2;
        # every handle returns a fresh gradient array, so gy is summed into in place
        with np.errstate(invalid="ignore", over="ignore"):
            dc = np.where(first[:, None], g1, g2)
            dc *= np.where(first, -(c1 * c1), -(c2 * c2 / delta))[:, None]
            dc *= y[:, None]
            gy *= c[:, None]
            gy += dc
            return y * c, gy

    return f, fg, warm


def _restricted_sup(hy: NormHandle, norm1: NormHandle, norm2: NormHandle,
                    delta: float, dim: int, opt: OptimizerSettings, warm=None,
                    side: str = "lo"):
    """sup hy(u) over {norm1(u) <= 1, norm2(u) <= delta} by direction search
    (see _restricted_problem), warm started from the rows of warm."""
    f, fg, _ = _restricted_problem(hy, norm1, norm2, delta, side=side)
    return maximize_direction(f, dim, opt, extra_starts=warm, value_and_grad=fg)


def _restricted_sups(hy: NormHandle, norm1: NormHandle, norm2: NormHandle,
                     trials, dim: int, opt: OptimizerSettings) -> list:
    """_restricted_sup at every (delta, warm) of trials, in one grouped search."""
    return _maximize_group([_restricted_problem(hy, norm1, norm2, delta, warm)
                            for delta, warm in trials], dim, opt)


def _log_ratio(sup: float, eps: float):
    """ln(sup / eps), or None when sup is 0, inf or NaN."""
    if 0.0 < sup < math.inf:
        return math.log(sup) - math.log(eps)
    return None


def _itp_point(a: float, b: float, fa, fb, k1: float, r: float) -> float:
    """The next ITP trial in [a, b] (Oliveira & Takahashi, ACM TOMS 2020).

    fa <= 0 < fb are the values at the ends, or None where undefined; then
    the step is the midpoint. Otherwise the regula falsi point moves k1 (b-a)^2
    toward the midpoint (truncation) and stays within r of it (projection).
    """
    half = 0.5 * (a + b)
    if fa is None or fb is None:
        return half
    xf = (fb * a - fa * b) / (fb - fa)
    sigma = math.copysign(1.0, half - xf)
    step = k1 * (b - a) ** 2
    xt = xf + sigma * step if step <= abs(half - xf) else half
    return xt if abs(xt - half) <= r else half - sigma * r


def _known_sup(hy: NormHandle, norm1: NormHandle, norm2: NormHandle,
               delta: float, pool: list):
    """The largest value at delta of the restricted objective (see
    _restricted_problem) over the points of pool, with its point: a lower
    bound on the restricted sup at delta, found with no search."""
    P = np.vstack(pool)
    vals = _restricted_problem(hy, norm1, norm2, delta)[0](P)
    j = int(np.argmax(vals))
    return float(vals[j]), P[j]


def _itp_row(bound: float, eps: float, lo, hi, row: list, handles):
    """One row's ITP refinement of its bracket, as a coroutine.

    lo and hi are the (delta, sup, maximizer) links where the predicate
    held and failed; handles are the (hy, norm1, norm2) of the search. Each
    trial is first evaluated on the row's known points, row[1]: when one of
    them exceeds eps there, the trial fails with that value and point, and
    no search runs. Each other trial is yielded as its (delta, warm start)
    and sent back its (sup, maximizer). Either way the point joins row[1]
    and warm starts the next search, and row[0] keeps the last delta whose
    predicate held: its search and every point known then read at most eps.
    """
    (lo_d, val, w), (hi_d, hi_val, _) = lo, hi
    a, b = math.log(lo_d / bound), math.log(hi_d / bound)
    fa, fb = _log_ratio(val, eps), _log_ratio(hi_val, eps)
    k1 = ITP_K1 / (b - a)
    n_max = max(math.ceil(math.log2((b - a) / _ITP_WIDTH)), 0) + ITP_N0
    j = 0
    while hi_d / lo_d > 1.0 + BISECT_REL_WIDTH:
        r = max(0.5 * _ITP_WIDTH * 2.0 ** (n_max - j) - 0.5 * (b - a), 0.0)
        x = _itp_point(a, b, fa, fb, k1, r)
        trial = bound * math.exp(x)
        val, w_known = _known_sup(*handles, trial, row[1])
        if val > eps:
            w = w_known
        else:
            val, w = yield trial, w[None, :]
        row[1].append(w)
        if val <= eps:
            a, lo_d, fa = x, trial, _log_ratio(val, eps)
            row[0] = lo_d
        else:
            b, hi_d, fb = x, trial, _log_ratio(val, eps)
        j += 1


def _resume(search, sent):
    """What the coroutine search yields next when sent sent; None once it ends."""
    try:
        return search.send(sent)
    except StopIteration:
        return None


def bisect_modulus(hy: NormHandle, norm1: NormHandle, norm2: NormHandle, eps_grid,
                   dim: int, opt: OptimizerSettings):
    """Largest delta (to relative width BISECT_REL_WIDTH) with sup hy <= eps,
    for every eps of eps_grid.

    hy is the objective seminorm (u -> ||Tu||_Y in the forward inequality);
    the sup runs over {norm1(u) <= 1, norm2(u) <= delta}. Returns one
    (delta, witnesses) per eps, in grid order: the point of every
    predicate on the way to that delta (its search's maximizer, or the
    known point that decided it), a pool the verification reuses. When the
    upper search bound itself satisfies the predicate (the constraint never
    binds) it is returned as delta.

    Nothing before the refinement depends on eps: the upper search bound
    and the geometric descent bound, bound/16, ... (each search warm-started
    from the one before, down to where the smallest eps holds) run once per
    call, and every row takes its bracket from that one chain.

    A row's bracket [lo, hi] (predicate held at lo, failed at hi) is then
    narrowed by ITP in x = ln(delta / bound) on f = ln(sup / eps). Scaling
    a feasible point by delta/delta' keeps it feasible, so sup is
    nondecreasing and sup/delta nonincreasing: f has slope in [0, 1] in x,
    where interpolation beats halving. Each trial is bound * exp(x), warm
    started from the row's previous point; the result is the last lo, a
    delta whose predicate held, and no row takes more than ITP_N0 steps
    beyond the bisection count of its first bracket, however its trials
    are decided. A delta works for eps only if no feasible point reads
    above eps, so a trial is first evaluated on the row's witnesses so far
    (its chain links and the maximizers of its earlier trials): one above
    eps fails the trial with no search, and the row proposes its next trial
    at once. The rows refine in rounds: every row still open proposes
    trials until one is left that no known point decides, and one grouped
    search (_maximize_group) evaluates those. A point found after a delta
    was taken is not checked against it, so a later search can still find
    one that reads above eps at the returned delta. Each row's trials
    depend on its own points and results alone, so a grid call returns
    exactly what one-eps calls return.
    """
    eps_grid = [float(e) for e in eps_grid]
    for eps in eps_grid:
        if not eps > 0.0:
            raise ToleranceError(f"eps must be positive, got {eps}")

    # upper search bound: sup norm2 over the norm1 unit ball
    f, fg = ratio_objective([(1.0, norm2, "lo")], (norm1, "hi"))
    bound, _ = maximize_direction(f, dim, opt, value_and_grad=fg)
    bound = max(bound, opt.delta_floor)

    # the chain (delta, sup, maximizer) at bound, bound/16, ... down to the
    # first link where the smallest eps holds, or to the floor
    least = min(eps_grid, default=math.inf)  # an empty grid returns no rows
    chain = [(bound, *_restricted_sup(hy, norm1, norm2, bound, dim, opt))]
    while not (chain[-1][1] <= least or chain[-1][0] <= opt.delta_floor):
        prev, _, w = chain[-1]
        delta = max(prev / 16.0, opt.delta_floor)
        chain.append((delta, *_restricted_sup(hy, norm1, norm2, delta, dim, opt,
                                              w[None, :])))

    out, searches = [], []
    for eps in eps_grid:
        # the first link whose predicate holds, or else the floor
        k = next(k for k, (delta, val, _) in enumerate(chain)
                 if val <= eps or delta <= opt.delta_floor)
        delta, val, w = chain[k]
        if not val <= eps:
            # proved only if it still fails with norm2's upper bound
            # deciding feasibility, by more than the rounding of the value
            sup, _ = _restricted_sup(hy, norm1, norm2, delta, dim, opt,
                                     w[None, :], side="hi")
            raise NoModulusError(eps, opt.delta_floor, sup,
                                 proved=sup > eps * (1.0 + _ROUNDING * dim))
        out.append([delta, [c[2] for c in chain[:k + 1]]])
        if k:
            searches.append(_itp_row(bound, eps, chain[k], chain[k - 1], out[-1],
                                     (hy, norm1, norm2)))

    pending = [(s, _resume(s, None)) for s in searches]
    while pending := [(s, t) for s, t in pending if t is not None]:
        found = _restricted_sups(hy, norm1, norm2, [t for _, t in pending], dim, opt)
        pending = [(s, _resume(s, res)) for (s, _), res in zip(pending, found)]
    return [tuple(row) for row in out]
