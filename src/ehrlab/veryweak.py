"""Certified evaluation of the very weak norm.

The very weak norm of u against a dual family phi_1, phi_2, ... is the
series sum_k 2^-k |<phi_k, u>|. Every member of the family lies in the dual
unit ball, so the tail beyond M terms is at most 2^-M times the strong norm
of u. That single bound is what makes the value computable to any requested
tolerance: evaluate M terms, attach the tail majorant, and report the pair
as a two-sided enclosure.

Large batches are evaluated in row blocks of about 1 MiB, shared with one
worker thread past 8 blocks (see blocks); each block writes only its own
rows, and every value equals the whole-array evaluation byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import _blockwise
from .errors import ToleranceError
from .spaces import DualFamily, Element, norm, norm_batch

__all__ = [
    "CertifiedValue",
    "very_weak_norm",
    "very_weak_norm_batch",
    "tail_bound",
]


@dataclass(frozen=True)
class CertifiedValue:
    """Two-sided enclosure [lo, hi] of a nonnegative quantity.

    terms_used records how many leading series terms the lower bound summed.
    """

    lo: float
    hi: float
    terms_used: int

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ToleranceError(
                f"malformed enclosure [{self.lo}, {self.hi}]"
            )

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "terms_used": self.terms_used}


def tail_bound(M: int, R: float) -> float:
    """Majorant of the series tail beyond M terms on a strong-norm ball of radius R."""
    if M < 1 or int(M) != M:
        raise ToleranceError(f"term count must be a positive integer, got {M}")
    if R < 0.0:
        raise ToleranceError(f"ball radius must be nonnegative, got {R}")
    return 2.0 ** (-int(M)) * float(R)


def _least_terms(R: float, tau: float) -> int:
    """Least M >= 1 with 2^-M * R <= tau."""
    M = 1
    while 2.0 ** (-M) * R > tau:
        M += 1
    return M


def very_weak_norm(fam: DualFamily, u: Element, tau: float) -> CertifiedValue:
    """Certified enclosure of the very weak norm of u, width at most tau.

    M is the least term count whose tail majorant 2^-M * (strong norm of u)
    falls below tau. In coordinate mode every functional beyond the element's
    dimension annihilates it, so M is capped there and the tail becomes
    exactly zero once the cap is reached; the enclosure then collapses to the
    closed-form value sum_k 2^-k c_k |u_k|.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ToleranceError(f"tolerance must be positive, got {tau}")
    lo, hi = very_weak_norm_batch(fam, u.coeffs[None, :], tau=tau)
    if fam.mode == "coordinate":
        M = u.dim  # closed form sums every term that can pair nonzero
    else:
        R = norm(fam.space, u)
        M = _least_terms(R, tau) if R > 0.0 else 1
    return CertifiedValue(float(lo[0]), float(hi[0]), M)


def very_weak_norm_batch(
    fam: DualFamily,
    U: np.ndarray,
    tau: float | None = None,
    terms: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized enclosure of the very weak norm for the rows of U.

    Either tau (per-row least-M rule, applied with the batch's largest strong
    norm) or an explicit term count may be given. Returns (lo, hi) arrays.

    The rows are evaluated in row blocks of about 1 MiB (blocks._blockwise),
    and a large batch is shared with one worker thread. A first pass takes
    every strong norm, so the tau rule reads the largest of the whole batch;
    a second takes the pairings. Every value equals the whole-array
    evaluation byte for byte.
    """
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    d = U.shape[1]

    if fam.mode == "coordinate":
        # Closed form: functionals beyond d annihilate every row, so using
        # M = d terms makes the tail exactly zero.
        w = fam.coordinate_weights(d)
        lo = _blockwise(lambda V: np.abs(V) @ w, U)
        return lo, lo.copy()

    R = _blockwise(lambda V: norm_batch(fam.space, V), U)
    if terms is None:
        if tau is None:
            raise ToleranceError("need either tau or an explicit term count")
        if tau <= 0.0:
            raise ToleranceError(f"tolerance must be positive, got {tau}")
        Rmax = float(R.max(initial=0.0))
        terms = _least_terms(Rmax, tau) if Rmax > 0.0 else 1
    M = int(terms)
    if M < 1:
        raise ToleranceError(f"term count must be >= 1, got {terms}")

    P = fam.prefix_matrix(M, d).T  # (d, M)
    series = 2.0 ** (-np.arange(1, M + 1, dtype=np.float64))
    lo = _blockwise(lambda V: np.abs(V @ P) @ series, U)
    hi = lo + 2.0 ** (-M) * R
    return lo, hi
