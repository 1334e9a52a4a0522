"""Certified enclosures of the very weak norm and its induced metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrlab import (
    CertifiedValue,
    DualFamily,
    Element,
    EnumerationError,
    NormSpec,
    ToleranceError,
    basis_element,
    compare_certified,
    enumerate_phi,
    norm,
    pair,
    tail_bound,
    very_weak_distance,
    very_weak_norm,
    very_weak_norm_batch,
    zero_element,
)

L2 = NormSpec.lp(2)
COORD = DualFamily(mode="coordinate", space=L2)
DENSE = DualFamily(mode="dense-rational", space=L2)


# ---------------------------------------------------------------------------
# oracles: independent re-summation of the defining series
# ---------------------------------------------------------------------------

def coordinate_series_oracle(u: np.ndarray) -> float:
    """Closed form over l2: sum_k 2^-k |u_k| (scales are all 1)."""
    return sum(2.0 ** (-(k + 1)) * abs(x) for k, x in enumerate(u))


def dense_partial_oracle(fam, u: Element, M: int) -> float:
    return sum(2.0 ** (-k) * abs(pair(enumerate_phi(fam, k), u))
               for k in range(1, M + 1))


small_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=10)


# ---------------------------------------------------------------------------
# CertifiedValue semantics
# ---------------------------------------------------------------------------

class TestCertifiedValue:
    def test_ordering_validated(self):
        with pytest.raises(ToleranceError):
            CertifiedValue(1.0, 0.5, 3)
        with pytest.raises(ToleranceError):
            CertifiedValue(-0.1, 0.5, 3)

    def test_accessors(self):
        cv = CertifiedValue(1.0, 1.5, 7)
        assert cv.width == 0.5
        assert cv.midpoint == 1.25
        assert cv.as_dict() == {"lo": 1.0, "hi": 1.5, "terms_used": 7}

    def test_compare_tri_state(self):
        a = CertifiedValue(0.0, 1.0, 1)
        b = CertifiedValue(2.0, 3.0, 1)
        assert compare_certified(a, b) == "less"
        assert compare_certified(b, a) == "greater"
        c = CertifiedValue(0.5, 2.5, 1)
        assert compare_certified(a, c) == "ambiguous"
        assert compare_certified(c, b) == "ambiguous"


# ---------------------------------------------------------------------------
# tail bound
# ---------------------------------------------------------------------------

class TestTailBound:
    def test_values(self):
        assert tail_bound(1, 1.0) == 0.5
        assert tail_bound(10, 0.0) == 0.0
        assert tail_bound(4, 8.0) == 0.5

    def test_validation(self):
        with pytest.raises(ToleranceError):
            tail_bound(0, 1.0)
        with pytest.raises(ToleranceError):
            tail_bound(4, -1.0)

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_majorizes_actual_remainder(self, M):
        # partial tails over M < k <= M + 40 for elements of norm <= 8
        rng = np.random.default_rng(M)
        for _ in range(50):
            u = Element(rng.standard_normal(12) * 2)
            R = norm(L2, u)
            if R > 8.0:
                u = Element(u.coeffs * (8.0 / R))
                R = 8.0
            remainder = sum(
                2.0 ** (-k) * abs(pair(enumerate_phi(DENSE, k), u))
                for k in range(M + 1, M + 41))
            assert remainder <= tail_bound(M, 8.0) + 1e-15


# ---------------------------------------------------------------------------
# coordinate mode: closed form
# ---------------------------------------------------------------------------

class TestCoordinateMode:
    def test_zero_vector(self):
        cv = very_weak_norm(COORD, zero_element(5), tau=1e-6)
        assert cv.lo == 0.0 == cv.hi

    @pytest.mark.parametrize("n", range(1, 9))
    def test_basis_vectors_exact(self, n):
        cv = very_weak_norm(COORD, basis_element(n, 8), tau=1e-12)
        assert cv.lo == 2.0 ** (-n) == cv.hi

    def test_terms_used_is_the_truncation_dim(self):
        cv = very_weak_norm(COORD, basis_element(1, 6), tau=1e-12)
        assert cv.terms_used == 6

    def test_requires_positive_tolerance(self):
        with pytest.raises(ToleranceError):
            very_weak_norm(COORD, basis_element(1, 2), tau=0.0)

    @given(u=small_vectors)
    @settings(max_examples=60, deadline=None)
    def test_matches_series_oracle(self, u):
        cv = very_weak_norm(COORD, Element(u), tau=1e-9)
        expected = coordinate_series_oracle(np.asarray(u))
        assert cv.lo == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert cv.hi == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(u=small_vectors, c=st.floats(min_value=-64, max_value=64,
                                        allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, u, c):
        base = very_weak_norm(COORD, Element(u), tau=1e-9)
        scaled = very_weak_norm(COORD, Element([c * x for x in u]), tau=1e-9)
        assert scaled.lo == pytest.approx(abs(c) * base.lo, rel=1e-12, abs=1e-15)

    def test_homogeneity_exact_for_powers_of_two(self):
        u = Element([0.3, -1.7, 0.9])
        base = very_weak_norm(COORD, u, tau=1e-9)
        doubled = very_weak_norm(COORD, 2.0 * u, tau=1e-9)
        assert doubled.lo == 2.0 * base.lo

    @given(u=small_vectors, v=small_vectors)
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, u, v):
        eu, ev = Element(u), Element(v)
        s = very_weak_norm(COORD, eu + ev, tau=1e-9)
        a = very_weak_norm(COORD, eu, tau=1e-9)
        b = very_weak_norm(COORD, ev, tau=1e-9)
        assert s.lo <= a.hi + b.hi + 1e-12

    @given(u=small_vectors)
    @settings(max_examples=60, deadline=None)
    def test_domination_by_strong_norm(self, u):
        cv = very_weak_norm(COORD, Element(u), tau=1e-9)
        assert cv.hi <= norm(L2, Element(u)) + 1e-9

    def test_weighted_space_scales(self):
        # coordinate functionals are w_k e_k*, so the value is
        # sum 2^-k w_k |u_k|
        ns = NormSpec.weighted_lp(2, [2.0, 4.0])
        fam = DualFamily(mode="coordinate", space=ns)
        cv = very_weak_norm(fam, Element([1.0, 1.0]), tau=1e-12)
        assert cv.lo == pytest.approx(0.5 * 2.0 + 0.25 * 4.0, rel=1e-15)

    def test_operand_wider_than_the_weights_raises_every_time(self):
        fam = DualFamily(mode="coordinate", space=NormSpec.weighted_lp(2, [2.0, 4.0]))
        lo, hi = very_weak_norm_batch(fam, np.ones((3, 2)))
        assert np.array_equal(lo, np.full(3, 2.0)) and np.array_equal(hi, lo)
        for _ in range(2):  # the cached narrower weights must not serve it
            with pytest.raises(EnumerationError):
                very_weak_norm_batch(fam, np.ones((3, 3)))


# ---------------------------------------------------------------------------
# dense-rational mode: enclosures
# ---------------------------------------------------------------------------

class TestDenseMode:
    def test_zero_vector(self):
        cv = very_weak_norm(DENSE, zero_element(3), tau=1e-6)
        assert cv.lo == 0.0 == cv.hi
        assert cv.terms_used == 1

    def test_enclosure_width_within_tolerance(self):
        rng = np.random.default_rng(0)
        for tau in (1e-3, 1e-6, 1e-9):
            u = Element(rng.standard_normal(6))
            cv = very_weak_norm(DENSE, u, tau=tau)
            assert 0.0 <= cv.hi - cv.lo <= tau

    def test_lo_matches_partial_sum_oracle(self):
        rng = np.random.default_rng(1)
        u = Element(rng.standard_normal(4))
        cv = very_weak_norm(DENSE, u, tau=1e-6)
        expected = dense_partial_oracle(DENSE, u, cv.terms_used)
        assert cv.lo == pytest.approx(expected, rel=1e-12)

    def test_terms_used_least_m_rule(self):
        u = Element([3.0, 4.0])  # strong norm 5
        tau = 1e-4
        cv = very_weak_norm(DENSE, u, tau=tau)
        M = cv.terms_used
        assert 2.0 ** (-M) * 5.0 <= tau
        assert 2.0 ** (-(M - 1)) * 5.0 > tau

    def test_cross_check_tolerances_nest(self):
        # tighter tolerance gives a sub-interval of the looser enclosure
        u = basis_element(1, 2)
        coarse = very_weak_norm(DENSE, u, tau=1e-4)
        fine = very_weak_norm(DENSE, u, tau=1e-8)
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi

    @given(u=small_vectors)
    @settings(max_examples=30, deadline=None)
    def test_domination_by_strong_norm(self, u):
        cv = very_weak_norm(DENSE, Element(u), tau=1e-6)
        assert cv.hi <= norm(L2, Element(u)) + 1e-6 + 1e-9

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((6, 5))
        tau = 1e-7
        lo, hi = very_weak_norm_batch(DENSE, U, tau=tau)
        for i in range(U.shape[0]):
            cv = very_weak_norm(DENSE, Element(U[i]), tau=tau)
            # the batch applies one shared term count (from the largest row),
            # so per-row enclosures can only be equal or tighter
            assert lo[i] >= cv.lo - 1e-15
            assert hi[i] <= cv.hi + 1e-15
            assert lo[i] <= hi[i]

    def test_batch_fixed_terms(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((4, 3))
        lo, hi = very_weak_norm_batch(DENSE, U, terms=25)
        oracle = [dense_partial_oracle(DENSE, Element(row), 25) for row in U]
        assert np.allclose(lo, oracle, rtol=1e-12)
        strong = np.sqrt((U * U).sum(axis=1))
        assert np.allclose(hi, lo + 2.0 ** (-25) * strong, rtol=1e-12)


# ---------------------------------------------------------------------------
# induced metric
# ---------------------------------------------------------------------------

class TestVeryWeakDistance:
    def test_identity_of_indiscernibles(self):
        u = Element([1.0, 2.0, 3.0])
        cv = very_weak_distance(COORD, u, u, tau=1e-9)
        assert cv.lo == 0.0 == cv.hi

    def test_e1_e2_distance(self):
        cv = very_weak_distance(COORD, basis_element(1, 2),
                                basis_element(2, 2), tau=1e-9)
        assert cv.lo <= 0.75 <= cv.hi
        assert cv.lo == pytest.approx(0.75, abs=1e-12)

    @given(u=small_vectors, v=small_vectors, w=small_vectors)
    @settings(max_examples=40, deadline=None)
    def test_triangle_through_waypoint(self, u, v, w):
        tau = 1e-8
        eu, ev, ew = Element(u), Element(v), Element(w)
        duv = very_weak_distance(DENSE, eu, ev, tau)
        duw = very_weak_distance(DENSE, eu, ew, tau)
        dwv = very_weak_distance(DENSE, ew, ev, tau)
        assert duv.lo <= duw.hi + dwv.hi + 2 * tau

    def test_symmetry(self):
        u, v = Element([1.0, -2.0]), Element([0.5, 3.0])
        a = very_weak_distance(DENSE, u, v, tau=1e-8)
        b = very_weak_distance(DENSE, v, u, tau=1e-8)
        assert a.lo == b.lo and a.hi == b.hi

    def test_basis_decay_seed(self):
        # value(e_n) = 2^-n -> 0 while the strong norm stays 1
        values = [very_weak_norm(COORD, basis_element(n, 16), tau=1e-12).lo
                  for n in range(1, 17)]
        assert values == [2.0 ** (-n) for n in range(1, 17)]
        assert all(norm(L2, basis_element(n, 16)) == 1.0 for n in range(1, 17))
