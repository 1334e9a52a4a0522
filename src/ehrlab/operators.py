"""Gallery of linear operators between truncated sequence spaces.

Each operator carries its domain and codomain norm specs plus an advisory
complete-continuity tag. The tag is metadata for reports only: no
certification or falsification routine ever branches on it, so a wrong label
cannot corrupt a verdict.

Representations:

* ``diagonal`` -- (Tu)_k = lam_k u_k, lam zero-extended past its stored prefix;
* ``dense``    -- an explicit m x n matrix;
* ``kernel``   -- (Tu)_i = h * sum_j K(x_i, y_j) u_j from grid samples of K;
* ``shift``    -- the right shift (Tu)_{k+1} = u_k, (Tu)_1 = 0, which raises
                  the truncation dimension by one and is an isometry on lp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidElementError, UnsupportedNormError
from .spaces import Element, NormSpec, normspec_from_json

__all__ = [
    "LinearOperator",
    "apply",
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

CC = "completely-continuous"
NOT_CC = "not-completely-continuous"
UNKNOWN = "unknown"

_STATUSES = (CC, NOT_CC, UNKNOWN)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    repr_kind: str
    domain: NormSpec
    codomain: NormSpec
    cc_status: str = UNKNOWN
    lam: np.ndarray | None = None      # diagonal
    matrix: np.ndarray | None = None   # dense
    samples: np.ndarray | None = None  # kernel grid values
    spacing: float | None = None       # kernel quadrature step
    label: str = ""

    def __post_init__(self):
        if self.cc_status not in _STATUSES:
            raise InvalidElementError(f"unknown cc_status {self.cc_status!r}")
        if not self.label:
            object.__setattr__(self, "label", self.repr_kind)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply_batch(T: LinearOperator, U: np.ndarray) -> np.ndarray:
    """Apply T to the rows of U; returns rows in the codomain truncation."""
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    n, d = U.shape
    if T.repr_kind == "diagonal":
        lam = T.lam
        m = min(d, lam.size)
        out = np.zeros((n, d))
        out[:, :m] = U[:, :m] * lam[:m]
        return out
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
        m = min(d, T.lam.size)
        out = np.zeros((G.shape[0], d))
        out[:, :m] = G[:, :m] * T.lam[:m]
        return out
    if T.repr_kind == "dense":
        return (G @ T.matrix)[:, :d]
    if T.repr_kind == "kernel":
        return T.spacing * (G @ T.samples)[:, :d]
    if T.repr_kind == "shift":
        return G[:, 1:]
    raise UnsupportedNormError(f"unknown operator repr {T.repr_kind!r}")


def apply(T: LinearOperator, u: Element) -> Element:
    return Element(apply_batch(T, u.coeffs[None, :])[0])


def as_matrix(T: LinearOperator, dim: int) -> np.ndarray:
    """Materialize T restricted to a dim-truncation of the domain."""
    return apply_batch(T, np.eye(dim)).T


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _diagonal_cc_heuristic(lam: np.ndarray) -> str:
    """Advisory label from the stored prefix of the diagonal sequence.

    Trailing zeros read as a finite-rank intent, a strictly decreasing
    trailing half as decay toward zero; a constant nonzero sequence is the
    identity pattern. Anything else stays unknown.
    """
    a = np.abs(lam)
    if a[-1] == 0.0:
        return CC
    if a.size >= 2:
        tail = a[a.size // 2:]
        if np.all(np.diff(a) <= 0.0) and np.all(np.diff(tail) < 0.0):
            return CC
    if np.all(lam == lam[0]) and lam[0] != 0.0:
        return NOT_CC
    return UNKNOWN


def make_diagonal(
    lam,
    domain: NormSpec,
    codomain: NormSpec,
    cc_status: str | None = None,
) -> LinearOperator:
    """Diagonal operator from a coefficient prefix (zero-extended beyond it)."""
    arr = np.asarray(lam, dtype=np.float64).copy()
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidElementError("diagonal coefficients must be a finite 1-d vector")
    arr.flags.writeable = False
    status = cc_status if cc_status is not None else _diagonal_cc_heuristic(arr)
    return LinearOperator(
        repr_kind="diagonal", domain=domain, codomain=codomain,
        cc_status=status, lam=arr, label=f"diagonal[d={arr.size}]",
    )


def make_dense(matrix, domain: NormSpec, codomain: NormSpec,
               cc_status: str = UNKNOWN) -> LinearOperator:
    M = np.asarray(matrix, dtype=np.float64).copy()
    if M.ndim != 2 or M.size == 0 or not np.all(np.isfinite(M)):
        raise InvalidElementError("dense operator needs a finite 2-d matrix")
    M.flags.writeable = False
    return LinearOperator(
        repr_kind="dense", domain=domain, codomain=codomain,
        cc_status=cc_status, matrix=M, label=f"dense[{M.shape[0]}x{M.shape[1]}]",
    )


def make_kernel(samples, spacing: float, domain: NormSpec, codomain: NormSpec,
                cc_status: str = CC) -> LinearOperator:
    """Integral operator from grid samples of a kernel K(x, y).

    (Tu)_i = spacing * sum_j K(x_i, y_j) u_j. Square-summable kernels give
    completely continuous operators, hence the default label; pass an
    explicit status to override.
    """
    K = np.asarray(samples, dtype=np.float64).copy()
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0 or not np.all(np.isfinite(K)):
        raise InvalidElementError("kernel samples must form a finite square matrix")
    spacing = float(spacing)
    if spacing <= 0.0:
        raise InvalidElementError(f"kernel spacing must be positive, got {spacing}")
    K.flags.writeable = False
    return LinearOperator(
        repr_kind="kernel", domain=domain, codomain=codomain,
        cc_status=cc_status, samples=K, spacing=spacing,
        label=f"kernel[{K.shape[0]}x{K.shape[0]}, h={spacing:g}]",
    )


def make_shift(domain: NormSpec, codomain: NormSpec) -> LinearOperator:
    """The right shift: an isometry on every lp, never completely continuous."""
    return LinearOperator(
        repr_kind="shift", domain=domain, codomain=codomain,
        cc_status=NOT_CC, label="shift",
    )


def make_sobolev_embedding(d: int, h: float) -> LinearOperator:
    """Identity coefficients viewed from the discrete h1 norm into l2.

    The compactness carrier is the norm pair, not the coefficient action, so
    the representation is a unit diagonal with an explicit advisory label.
    """
    if d < 2:
        raise UnsupportedNormError(f"embedding needs a grid of d >= 2, got {d}")
    op = make_diagonal(
        np.ones(int(d)), NormSpec.sobolev_h1(h), NormSpec.lp(2), cc_status=CC,
    )
    return LinearOperator(
        repr_kind=op.repr_kind, domain=op.domain, codomain=op.codomain,
        cc_status=CC, lam=op.lam, label=f"sobolev-embedding[d={d}, h={h:g}]",
    )


# ---------------------------------------------------------------------------
# JSON / CSV construction
# ---------------------------------------------------------------------------

def kernel_from_csv(path, spacing: float, domain: NormSpec, codomain: NormSpec,
                    cc_status: str = CC) -> LinearOperator:
    """Kernel operator from a CSV file of row-major grid samples."""
    K = np.loadtxt(path, delimiter=",", ndmin=2)
    return make_kernel(K, spacing, domain, codomain, cc_status)


def operator_from_json(obj: dict) -> LinearOperator:
    kind = obj.get("kind")
    domain = normspec_from_json(obj["domain"]) if "domain" in obj else NormSpec.lp(2)
    codomain = normspec_from_json(obj["codomain"]) if "codomain" in obj else NormSpec.lp(2)
    if kind == "diagonal":
        return make_diagonal(obj["lambda"], domain, codomain,
                             cc_status=obj.get("cc_status"))
    if kind == "dense":
        return make_dense(obj["matrix"], domain, codomain,
                          cc_status=obj.get("cc_status", UNKNOWN))
    if kind == "kernel":
        if "csv" in obj:
            return kernel_from_csv(obj["csv"], obj["spacing"], domain, codomain,
                                   cc_status=obj.get("cc_status", CC))
        return make_kernel(obj["samples"], obj["spacing"], domain, codomain,
                           cc_status=obj.get("cc_status", CC))
    if kind == "shift":
        return make_shift(domain, codomain)
    if kind == "sobolev-embedding":
        return make_sobolev_embedding(obj["d"], obj["h"])
    raise UnsupportedNormError(f"unknown operator kind {kind!r}")
