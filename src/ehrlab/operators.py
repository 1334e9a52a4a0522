"""Gallery of linear operators between truncated sequence spaces.

Each operator carries its domain and codomain norm specs. Whether it is
completely continuous is what certify and falsify decide; operators store no
such claim.

Representations:

* ``diagonal`` -- (Tu)_k = lam_k u_k, lam zero-extended past its stored prefix;
* ``dense``    -- an explicit m x n matrix;
* ``kernel``   -- (Tu)_i = h * sum_j K(x_i, y_j) u_j from grid samples of K;
* ``shift``    -- the right shift (Tu)_{k+1} = u_k, (Tu)_1 = 0, which raises
                  the truncation dimension by one and is an isometry on lp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, InvalidElementError, UnsupportedNormError
from .spaces import NormSpec, normspec_from_json

__all__ = [
    "LinearOperator",
    "apply_batch",
    "as_matrix",
    "make_diagonal",
    "make_dense",
    "make_kernel",
    "make_shift",
    "make_sobolev_embedding",
    "operator_from_json",
    "kernel_from_csv",
]

@dataclass(frozen=True, eq=False)
class LinearOperator:
    repr_kind: str
    domain: NormSpec
    codomain: NormSpec
    lam: np.ndarray | None = None      # diagonal
    matrix: np.ndarray | None = None   # dense
    samples: np.ndarray | None = None  # kernel grid values
    spacing: float | None = None       # kernel quadrature step
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.repr_kind)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def _diagonal_rows(U: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The rows of U times lam, which is zero-extended past its stored prefix,
    as a C-ordered array."""
    d = U.shape[1]
    if lam.size >= d:
        return np.multiply(U, lam[:d], order="C")
    out = np.zeros(U.shape)
    out[:, :lam.size] = U[:, :lam.size] * lam
    return out


def apply_batch(T: LinearOperator, U: np.ndarray) -> np.ndarray:
    """Apply T to the rows of U; returns rows in the codomain truncation."""
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    n, d = U.shape
    if T.repr_kind == "diagonal":
        return _diagonal_rows(U, T.lam)
    if T.repr_kind == "dense":
        rows, cols = T.matrix.shape
        if d > cols:
            raise DimensionMismatchError(
                f"operand dim {d} exceeds the matrix's {cols} columns"
            )
        Upad = U if d == cols else np.pad(U, ((0, 0), (0, cols - d)))
        return Upad @ T.matrix.T
    if T.repr_kind == "kernel":
        g = T.samples.shape[0]
        if d > g:
            raise DimensionMismatchError(
                f"operand dim {d} exceeds the kernel grid size {g}"
            )
        Upad = U if d == g else np.pad(U, ((0, 0), (0, g - d)))
        return T.spacing * (Upad @ T.samples.T)
    if T.repr_kind == "shift":
        out = np.zeros((n, d + 1))
        out[:, 1:] = U
        return out
    raise UnsupportedNormError(f"unknown operator repr {T.repr_kind!r}")


def _adjoint_batch(T: LinearOperator, G: np.ndarray, d: int) -> np.ndarray:
    """Apply the adjoint of T (restricted to a d-truncation) to the rows of G.

    G holds rows in the codomain truncation apply_batch produces from width
    d; the result has width d. Equals G @ as_matrix(T, d) without building
    the matrix: diagonal and shift act entrywise.
    """
    if T.repr_kind == "diagonal":
        return _diagonal_rows(G[:, :d], T.lam)
    if T.repr_kind == "dense":
        return (G @ T.matrix)[:, :d]
    if T.repr_kind == "kernel":
        return T.spacing * (G @ T.samples)[:, :d]
    if T.repr_kind == "shift":
        return G[:, 1:]
    raise UnsupportedNormError(f"unknown operator repr {T.repr_kind!r}")


def as_matrix(T: LinearOperator, dim: int) -> np.ndarray:
    """Materialize T restricted to a dim-truncation of the domain."""
    return apply_batch(T, np.eye(dim)).T


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _array(values, what: str) -> np.ndarray:
    """A float copy of values; ragged or non-numeric input is an InvalidElementError."""
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidElementError(f"{what}: {exc}") from exc


def make_diagonal(lam, domain: NormSpec, codomain: NormSpec) -> LinearOperator:
    """Diagonal operator from a coefficient prefix (zero-extended beyond it)."""
    arr = _array(lam, "diagonal coefficients")
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidElementError("diagonal coefficients must be a finite 1-d vector")
    arr.flags.writeable = False
    return LinearOperator(
        repr_kind="diagonal", domain=domain, codomain=codomain,
        lam=arr, label=f"diagonal[d={arr.size}]",
    )


def make_dense(matrix, domain: NormSpec, codomain: NormSpec) -> LinearOperator:
    M = _array(matrix, "dense matrix")
    if M.ndim != 2 or M.size == 0 or not np.all(np.isfinite(M)):
        raise InvalidElementError("dense operator needs a finite 2-d matrix")
    M.flags.writeable = False
    return LinearOperator(
        repr_kind="dense", domain=domain, codomain=codomain,
        matrix=M, label=f"dense[{M.shape[0]}x{M.shape[1]}]",
    )


def make_kernel(samples, spacing: float, domain: NormSpec,
                codomain: NormSpec) -> LinearOperator:
    """Integral operator from grid samples of a kernel K(x, y).

    (Tu)_i = spacing * sum_j K(x_i, y_j) u_j.
    """
    K = _array(samples, "kernel samples")
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0 or not np.all(np.isfinite(K)):
        raise InvalidElementError("kernel samples must form a finite square matrix")
    spacing = float(spacing)
    if spacing <= 0.0:
        raise InvalidElementError(f"kernel spacing must be positive, got {spacing}")
    K.flags.writeable = False
    return LinearOperator(
        repr_kind="kernel", domain=domain, codomain=codomain,
        samples=K, spacing=spacing,
        label=f"kernel[{K.shape[0]}x{K.shape[0]}, h={spacing:g}]",
    )


def make_shift(domain: NormSpec, codomain: NormSpec) -> LinearOperator:
    """The right shift: an isometry on every lp, never completely continuous."""
    return LinearOperator(repr_kind="shift", domain=domain, codomain=codomain,
                          label="shift")


def make_sobolev_embedding(d: int, h: float) -> LinearOperator:
    """Identity coefficients viewed from the discrete h1 norm into l2.

    The compactness carrier is the norm pair, not the coefficient action, so
    the representation is a unit diagonal.
    """
    if d < 2:
        raise UnsupportedNormError(f"embedding needs a grid of d >= 2, got {d}")
    op = make_diagonal(np.ones(int(d)), NormSpec.sobolev_h1(h), NormSpec.lp(2))
    return replace(op, label=f"sobolev-embedding[d={d}, h={h:g}]")


# ---------------------------------------------------------------------------
# JSON / CSV construction
# ---------------------------------------------------------------------------

def kernel_from_csv(path, spacing: float, domain: NormSpec,
                    codomain: NormSpec) -> LinearOperator:
    """Kernel operator from a CSV file of row-major grid samples."""
    try:
        K = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidElementError(f"kernel CSV {path}: {exc}") from exc
    return make_kernel(K, spacing, domain, codomain)


def operator_from_json(obj: dict) -> LinearOperator:
    kind = obj.get("kind")
    domain = normspec_from_json(obj["domain"]) if "domain" in obj else NormSpec.lp(2)
    codomain = normspec_from_json(obj["codomain"]) if "codomain" in obj else NormSpec.lp(2)
    if kind == "diagonal":
        return make_diagonal(obj["lambda"], domain, codomain)
    if kind == "dense":
        return make_dense(obj["matrix"], domain, codomain)
    if kind == "kernel":
        if "csv" in obj:
            return kernel_from_csv(obj["csv"], obj["spacing"], domain, codomain)
        return make_kernel(obj["samples"], obj["spacing"], domain, codomain)
    if kind == "shift":
        return make_shift(domain, codomain)
    if kind == "sobolev-embedding":
        return make_sobolev_embedding(obj["d"], obj["h"])
    raise UnsupportedNormError(f"unknown operator kind {kind!r}")
