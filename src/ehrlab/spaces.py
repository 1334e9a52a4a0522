"""Truncated normed sequence spaces: elements, norms, duality, dual families.

Everything here lives on finite truncations span{e_1, ..., e_d} of a real
sequence space. An element carries its coefficient vector against the
canonical basis; operands of different lengths are reconciled by zero
padding, which is exactly the canonical embedding of a truncation into any
larger one. A functional is a coefficient vector too, so it is an Element,
and pair is the dot product.

Three strong norm kinds are supported:

* ``lp(p)``            -- (sum |u_i|^p)^(1/p), max for p = inf;
* ``weighted-lp``      -- (sum (w_i |u_i|)^p)^(1/p), weights strictly positive
                          and inside the power so that scaling every weight by
                          s scales the norm by s exactly;
* ``sobolev-h1``       -- discrete first-order Sobolev norm on a uniform grid
                          with spacing h and zero boundary on both ends:
                          norm^2 = sum_i h u_i^2 + sum_{i=0..d} h ((u_{i+1}-u_i)/h)^2
                          with u_0 = u_{d+1} = 0.

The very weak norm is named by its dual family alone; the veryweak module
evaluates its certified enclosure.

A dual family enumerates functionals phi_1, phi_2, ... from the dual unit
ball. Coordinate mode yields normalized coordinate functionals; dense-rational
mode walks a fixed diagonal enumeration of dyadic-rational vectors and
rescales each into the dual unit ball. Both enumerations are pure functions
of (mode, space, k): bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import solveh_banded

from .errors import (
    DimensionMismatchError,
    EnumerationError,
    InvalidElementError,
    UnsupportedNormError,
)

__all__ = [
    "Element",
    "NormSpec",
    "DualFamily",
    "norm",
    "norm_batch",
    "pair",
    "dual_norm",
    "enumerate_phi",
    "normalized_functional",
    "normspec_from_json",
    "family_from_json",
]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _as_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidElementError(f"{what} must be a nonempty 1-d real vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidElementError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Element:
    """A vector in a truncated sequence space, indexed from coordinate 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coeffs, "element coefficients").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    def padded(self, dim: int) -> np.ndarray:
        """Coefficients zero-extended to the requested dimension."""
        if dim < self.dim:
            raise DimensionMismatchError(
                f"cannot pad a dim-{self.dim} element down to {dim}"
            )
        out = np.zeros(dim)
        out[: self.dim] = self.coeffs
        return out

    def __add__(self, other: "Element") -> "Element":
        d = max(self.dim, other.dim)
        return Element(self.padded(d) + other.padded(d))

    def __sub__(self, other: "Element") -> "Element":
        d = max(self.dim, other.dim)
        return Element(self.padded(d) - other.padded(d))

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Element(dim={self.dim}, coeffs={np.array2string(self.coeffs, threshold=8)})"


# ---------------------------------------------------------------------------
# norm specifications
# ---------------------------------------------------------------------------

_KINDS = ("lp", "weighted-lp", "sobolev-h1")


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Description of a norm on the truncation; build via the classmethods."""

    kind: str
    p: float | None = None
    weights: np.ndarray | None = None
    h: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedNormError(f"unknown norm kind {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.kind == "lp":
            return f"lp({self.p:g})" if math.isfinite(self.p) else "lp(inf)"
        if self.kind == "weighted-lp":
            return f"weighted-lp({self.p:g})[d={self.weights.size}]"
        return f"sobolev-h1(h={self.h:g})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def lp(cls, p: float) -> "NormSpec":
        p = float(p)
        if not (p >= 1.0):
            raise UnsupportedNormError(f"lp requires p >= 1, got {p}")
        return cls(kind="lp", p=p)

    @classmethod
    def weighted_lp(cls, p: float, weights) -> "NormSpec":
        p = float(p)
        if not (p >= 1.0):
            raise UnsupportedNormError(f"weighted-lp requires p >= 1, got {p}")
        w = _as_vector(weights, "weights").copy()
        if np.any(w <= 0.0):
            raise UnsupportedNormError("weighted-lp weights must be strictly positive")
        w.flags.writeable = False
        return cls(kind="weighted-lp", p=p, weights=w)

    @classmethod
    def sobolev_h1(cls, h: float) -> "NormSpec":
        h = float(h)
        if not (h > 0.0 and math.isfinite(h)):
            raise UnsupportedNormError(f"grid spacing must be positive, got {h}")
        return cls(kind="sobolev-h1", h=h)


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _lq_batch(U: np.ndarray, q: float) -> np.ndarray:
    if q == 2.0:  # U * U is |U| * |U|, bit for bit
        return np.sqrt((U * U).sum(axis=1))
    A = np.abs(U)
    if math.isinf(q):
        return A.max(axis=1)
    if q == 1.0:
        return A.sum(axis=1)
    return (A ** q).sum(axis=1) ** (1.0 / q)


def _h1_diffs(U: np.ndarray) -> np.ndarray:
    """Differences u_{i+1} - u_i, i = 0..d, of each row with u_0 = u_{d+1} = 0."""
    n, d = U.shape
    padded = np.zeros((n, d + 2))
    padded[:, 1:-1] = U
    return np.diff(padded, axis=1)


def norm_batch(ns: NormSpec, U: np.ndarray) -> np.ndarray:
    """Norms of the rows of U under ns. U has shape (n, d)."""
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    if ns.kind == "lp":
        return _lq_batch(U, ns.p)
    if ns.kind == "weighted-lp":
        d = U.shape[1]
        w = ns.weights
        if d > w.size:
            raise DimensionMismatchError(
                f"weighted-lp has {w.size} weights but operand has dim {d}"
            )
        return _lq_batch(U * w[:d], ns.p)
    if ns.kind == "sobolev-h1":
        h = ns.h
        diffs = _h1_diffs(U)
        return np.sqrt(h * (U * U).sum(axis=1) + (diffs * diffs).sum(axis=1) / h)
    raise UnsupportedNormError(ns.kind)


def _lq_grad(U: np.ndarray, N: np.ndarray, q: float) -> np.ndarray:
    """A subgradient of the lq norm at each row of U, given the row norms N.

    For q = 1 a zero coordinate takes its one-sided derivative along +e_j.
    """
    if math.isinf(q):
        G = np.zeros_like(U)
        rows = np.arange(U.shape[0])
        j = np.abs(U).argmax(axis=1)
        G[rows, j] = np.sign(U[rows, j])
        return G
    if q == 1.0:
        return np.where(U < 0.0, -1.0, 1.0)
    safe = np.where(N > 0.0, N, 1.0)[:, None]  # zero rows get the zero subgradient
    if q == 2.0:
        return U / safe
    return np.sign(U) * (np.abs(U) / safe) ** (q - 1.0)


def _norm_grad(ns: NormSpec, U: np.ndarray, N: np.ndarray) -> np.ndarray:
    """A subgradient of the strong norm ns at each row of U, given N = norm_batch(ns, U)."""
    if ns.kind == "lp":
        return _lq_grad(U, N, ns.p)
    if ns.kind == "weighted-lp":
        w = ns.weights[: U.shape[1]]
        return w * _lq_grad(U * w, N, ns.p)
    if ns.kind == "sobolev-h1":
        h = ns.h
        diffs = _h1_diffs(U)
        safe = np.where(N > 0.0, N, 1.0)[:, None]
        return (h * U + (diffs[:, :-1] - diffs[:, 1:]) / h) / safe
    raise UnsupportedNormError(f"no closed-form gradient for norm kind {ns.kind!r}")


def norm(ns: NormSpec, u: Element) -> float:
    """Norm of u under ns."""
    return float(norm_batch(ns, u.coeffs[None, :])[0])


# ---------------------------------------------------------------------------
# functionals and pairing
# ---------------------------------------------------------------------------

def pair(f: Element, u: Element) -> float:
    """Duality pairing <f, u>: the dot product, zero-padding the shorter."""
    d = max(f.dim, u.dim)
    return float(np.dot(f.padded(d), u.padded(d)))


def dual_norm(ns: NormSpec, f) -> float:
    """Dual norm of f (an Element or a bare coefficient vector):
    sup of <f, u> over the ns-unit ball."""
    vec = f.coeffs if isinstance(f, Element) else _as_vector(f, "functional")
    if ns.kind == "lp":
        return float(_lq_batch(vec[None, :], _conjugate(ns.p))[0])
    if ns.kind == "weighted-lp":
        w = ns.weights
        if vec.size > w.size:
            raise DimensionMismatchError(
                f"functional dim {vec.size} exceeds the {w.size} configured weights"
            )
        return float(_lq_batch((vec / w[: vec.size])[None, :], _conjugate(ns.p))[0])
    if ns.kind == "sobolev-h1":
        # Riesz representation: solve A x = f with the h1 Gram matrix
        # A = h I + K/h, K the Dirichlet second-difference matrix, then
        # dual norm = sqrt(f . x). Relative accuracy of the banded solve is
        # far below the contractual 1e-10 at these sizes.
        x = _riesz_solve(ns.h, vec)
        val = float(np.dot(vec, x))
        return math.sqrt(max(val, 0.0))
    raise UnsupportedNormError(
        f"dual norm is not defined for norm kind {ns.kind!r}"
    )


def _riesz_solve(h: float, rhs: np.ndarray) -> np.ndarray:
    d = rhs.size
    if d == 1:
        return rhs / (h + 2.0 / h)
    ab = np.zeros((2, d))
    ab[0, 1:] = -1.0 / h          # superdiagonal (upper banded form)
    ab[1, :] = h + 2.0 / h        # diagonal
    return solveh_banded(ab, rhs, lower=False)


@lru_cache(maxsize=64)
def _riesz_inverse_diag(h: float, d: int) -> np.ndarray:
    """Diagonal of the inverse h1 Gram matrix (for coordinate normalization)."""
    A = np.diag(np.full(d, h + 2.0 / h))
    off = np.full(d - 1, -1.0 / h)
    A += np.diag(off, 1) + np.diag(off, -1)
    diag = np.diag(np.linalg.inv(A)).copy()
    diag.flags.writeable = False
    return diag


def normalized_functional(ns: NormSpec, coeffs) -> Element:
    """Build a functional rescaled into the dual unit ball: f / max(1, dual norm)."""
    vec = _as_vector(coeffs, "functional coefficients")
    return Element(vec * (1.0 / max(1.0, dual_norm(ns, vec))))


# ---------------------------------------------------------------------------
# dual families
# ---------------------------------------------------------------------------

def _dense_block_walk(k: int):
    """Locate global index k (1-based) in the diagonal enumeration.

    Blocks are indexed by (support length s, dyadic level l) in diagonal
    order t = s + l = 1, 2, ..., s ascending within a diagonal. A block
    holds every tuple in {-2^l, ..., 2^l}^s / 2^l except the zero tuple.
    Returns (s, level, local index) with the local index 0-based.
    """
    if k < 1:
        raise EnumerationError(f"enumeration index must be >= 1, got {k}")
    t = 1
    while True:
        for s in range(1, t + 1):
            lvl = t - s
            base = 2 ** (lvl + 1) + 1
            size = base ** s - 1
            if k <= size:
                return s, lvl, k - 1
            k -= size
        t += 1


def _dense_raw_vector(k: int) -> np.ndarray:
    s, lvl, j = _dense_block_walk(k)
    base = 2 ** (lvl + 1) + 1
    half = 2 ** lvl
    # skip the all-zero tuple, whose odometer index is sum_i half * base^i
    zero_index = half * (base ** s - 1) // (base - 1)
    if j >= zero_index:
        j += 1
    digits = np.empty(s, dtype=np.int64)
    for i in range(s):
        digits[i] = j % base
        j //= base
    return (digits - half) / float(half)


@dataclass(eq=False)
class DualFamily:
    """Deterministic enumeration of functionals from the dual unit ball.

    mode "coordinate" yields the k-th coordinate functional normalized to
    dual norm 1; mode "dense-rational" walks the fixed diagonal enumeration
    of dyadic-rational vectors, rescaling each by 1/max(1, dual norm).
    """

    mode: str
    space: NormSpec
    dim: int | None = None
    # members, series weights and prefix matrices, each built once
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in ("coordinate", "dense-rational"):
            raise EnumerationError(f"unknown family mode {self.mode!r}")
        if self.space.kind in ("weighted-lp", "sobolev-h1") and self.dim is None:
            if self.space.kind == "weighted-lp":
                self.dim = int(self.space.weights.size)
            else:
                raise EnumerationError(
                    "a sobolev-h1 family needs an explicit truncation dim"
                )

    # -- enumeration -------------------------------------------------------

    def functional(self, k: int) -> Element:
        if k in self._cache:
            return self._cache[k]
        if self.mode == "coordinate":
            f = self._coordinate_functional(k)
        else:
            raw = _dense_raw_vector(k)
            if self.space.kind == "sobolev-h1" and raw.size < self.dim:
                # the h1 dual norm grows with the truncation: normalize
                # against the family's full dim, not the support width
                raw = np.pad(raw, (0, self.dim - raw.size))
            f = normalized_functional(self.space, raw)
        self._cache[k] = f
        return f

    def _coordinate_functional(self, k: int) -> Element:
        if k < 1:
            raise EnumerationError(f"enumeration index must be >= 1, got {k}")
        scale = self.coordinate_scales(k)[k - 1]
        # the h1 dual norm depends on the ambient truncation, so an h1
        # functional must carry its full dimension, not just k entries
        coeffs = np.zeros(self.dim if self.space.kind == "sobolev-h1" else k)
        coeffs[k - 1] = scale
        return Element(coeffs)

    def coordinate_scales(self, m: int) -> np.ndarray:
        """Normalization coefficients of the first m coordinate functionals."""
        if self.mode != "coordinate":
            raise EnumerationError("coordinate_scales applies to coordinate mode")
        ns = self.space
        if ns.kind == "lp":
            return np.ones(m)
        if ns.kind == "weighted-lp":
            if m > ns.weights.size:
                raise EnumerationError(
                    f"coordinate {m} exceeds the {ns.weights.size} configured weights"
                )
            return ns.weights[:m].copy()
        if self.dim is None or m > self.dim:
            raise EnumerationError(
                f"coordinate {m} outside the configured truncation dim {self.dim}"
            )
        return 1.0 / np.sqrt(_riesz_inverse_diag(ns.h, self.dim)[:m])

    def coordinate_weights(self, m: int) -> np.ndarray:
        """Series weights 2^-k c_k of the first m coordinate functionals.

        Built once per m and then shared (read-only); a width the family
        cannot serve raises on every call, as coordinate_scales does.
        """
        w = self._cache.get(("weights", m))
        if w is None:
            w = self.coordinate_scales(m) * 2.0 ** (-np.arange(1, m + 1, dtype=np.float64))
            w.flags.writeable = False
            self._cache[("weights", m)] = w
        return w

    def prefix_matrix(self, m: int, width: int) -> np.ndarray:
        """Coefficients of phi_1..phi_m as rows, cut or zero-padded to width columns.

        Built once per (m, width) and then shared (read-only). An h1 family
        refuses widths beyond its dim, where its members leave the dual unit
        ball, on every call.
        """
        P = self._cache.get(("prefix", m, width))
        if P is None:
            if self.space.kind == "sobolev-h1" and width > self.dim:
                raise EnumerationError(
                    f"width {width} outside the configured truncation dim {self.dim}"
                )
            P = np.zeros((m, width))
            for k in range(1, m + 1):
                row = self.functional(k).coeffs[:width]
                P[k - 1, : row.size] = row
            P.flags.writeable = False
            self._cache[("prefix", m, width)] = P
        return P


def enumerate_phi(fam: DualFamily, k: int) -> Element:
    """The k-th member of the family's enumeration (1-based, deterministic)."""
    return fam.functional(k)


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------

def normspec_from_json(obj: dict) -> NormSpec:
    kind = obj.get("kind")
    if kind == "lp":
        return NormSpec.lp(obj["p"])
    if kind == "weighted-lp":
        return NormSpec.weighted_lp(obj["p"], obj["weights"])
    if kind == "sobolev-h1":
        return NormSpec.sobolev_h1(obj["h"])
    raise UnsupportedNormError(f"unknown norm kind {kind!r}")


def family_from_json(obj: dict) -> DualFamily:
    return DualFamily(
        mode=obj.get("mode", "coordinate"),
        space=normspec_from_json(obj.get("space", {"kind": "lp", "p": 2})),
        dim=obj.get("dim"),
    )
