"""Norms, dualities, and the deterministic enumeration of the dual ball."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrlab import (
    DualFamily,
    Element,
    InvalidElementError,
    NormSpec,
    UnsupportedNormError,
    dual_norm,
    enumerate_phi,
    norm,
    norm_batch,
    normalized_functional,
    pair,
)
from ehrlab.errors import DimensionMismatchError, EnumerationError

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def sobolev_norm_oracle(h: float, u: np.ndarray) -> float:
    """Direct evaluation of the discrete formula with zero boundary."""
    total = h * float(np.sum(u * u))
    padded = np.concatenate([[0.0], u, [0.0]])
    for i in range(len(padded) - 1):
        total += h * ((padded[i + 1] - padded[i]) / h) ** 2
    return math.sqrt(total)


def riesz_dual_oracle(h: float, f: np.ndarray) -> float:
    """Dual norm via a dense solve of the discrete Riesz system."""
    d = len(f)
    A = np.zeros((d, d))
    for i in range(d):
        A[i, i] = h + 2.0 / h
        if i + 1 < d:
            A[i, i + 1] = A[i + 1, i] = -1.0 / h
    x = np.linalg.solve(A, f)
    return math.sqrt(float(f @ x))


# desk-scale magnitudes: the 1e-10 absolute slack in the norm axioms is an
# fp allowance, meaningless once entries reach the 1e6 range
finite_floats = st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# Element basics
# ---------------------------------------------------------------------------

class TestElement:
    def test_construction_and_dim(self):
        u = Element([1.0, 2.0, 3.0])
        assert u.dim == 3
        assert np.array_equal(u.coeffs, [1.0, 2.0, 3.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidElementError):
            Element([1.0, float("nan")])
        with pytest.raises(InvalidElementError):
            Element([float("inf"), 0.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidElementError):
            Element([])

    def test_immutable(self):
        u = Element([1.0, 2.0])
        with pytest.raises(ValueError):
            u.coeffs[0] = 5.0

    def test_padding_and_arithmetic(self):
        u = Element([1.0, 2.0])
        v = Element([1.0, 1.0, 1.0])
        w = u + v
        assert w.dim == 3
        assert np.array_equal(w.coeffs, [2.0, 3.0, 1.0])
        assert np.array_equal((u - v).coeffs, [0.0, 1.0, -1.0])
        assert np.array_equal((2.0 * u).coeffs, [2.0, 4.0])
        with pytest.raises(DimensionMismatchError):
            v.padded(2)

    def test_basis_and_zero(self):
        E = np.eye(4)
        e2 = Element(E[1])
        E[1, 1] = 5.0  # the element holds its own read-only copy
        assert np.array_equal(e2.coeffs, [0.0, 1.0, 0.0, 0.0])
        assert not e2.coeffs.flags.writeable
        assert np.array_equal(Element(np.zeros(3)).coeffs, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# norm values
# ---------------------------------------------------------------------------

class TestNormValues:
    def test_lp2_zero_vector(self):
        assert norm(NormSpec.lp(2), Element(np.zeros(4))) == 0.0

    def test_lp2_pythagorean(self):
        assert norm(NormSpec.lp(2), Element([3.0, 4.0])) == 5.0

    def test_lp1_and_lpinf(self):
        u = Element([3.0, -4.0])
        assert norm(NormSpec.lp(1), u) == 7.0
        assert norm(NormSpec.lp(math.inf), u) == 4.0

    def test_weighted_lp2(self):
        ns = NormSpec.weighted_lp(2, [2.0, 1.0])
        assert norm(ns, Element([3.0, 4.0])) == pytest.approx(math.sqrt(52.0), rel=1e-15)

    def test_weighted_scaling_is_exact(self):
        # weights sit inside the power, so doubling them doubles the norm
        u = Element([0.3, -1.7, 2.2])
        w = [0.5, 0.25, 2.0]
        a = norm(NormSpec.weighted_lp(2, w), u)
        b = norm(NormSpec.weighted_lp(2, [2 * x for x in w]), u)
        assert b == 2.0 * a

    def test_sobolev_hand_value(self):
        # h = 0.5, u = (1, 0): h*1 + (1 + 1 + 0)/h = 0.5 + 4 = 4.5
        ns = NormSpec.sobolev_h1(0.5)
        assert norm(ns, Element([1.0, 0.0])) == pytest.approx(math.sqrt(4.5), rel=1e-15)

    @pytest.mark.parametrize("h", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sobolev_matches_direct_formula(self, h, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(7)
        got = norm(NormSpec.sobolev_h1(h), Element(u))
        assert got == pytest.approx(sobolev_norm_oracle(h, u), rel=1e-12)

    def test_weight_vector_shorter_than_element_rejected(self):
        ns = NormSpec.weighted_lp(2, [1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            norm(ns, Element([1.0, 2.0, 3.0]))

    def test_norm_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((5, 6))
        for ns in (NormSpec.lp(2), NormSpec.lp(3),
                   NormSpec.weighted_lp(2, np.full(6, 0.7)),
                   NormSpec.sobolev_h1(0.5)):
            vals = norm_batch(ns, U)
            for i in range(5):
                assert vals[i] == pytest.approx(norm(ns, Element(U[i])), rel=1e-14)


def test_l2_squares_the_rows_without_abs_bit_for_bit():
    """|x| * |x| and x * x are the same double, so the q = 2 norm skips abs:
    at +-0.0, +-inf and finite entries every bit agrees, and a NaN entry
    still gives NaN (the sign of a NaN is not compared)."""
    rng = np.random.default_rng(0)
    U = rng.standard_normal((6, 9)) * 10.0 ** rng.uniform(-150, 150, (6, 1))
    U[0, :4] = [0.0, -0.0, np.inf, -np.inf]
    U[1] = -0.0
    U[2, 3] = np.nan
    U[3, 0] = -np.nan
    U[4, 1] = -np.inf
    A = np.abs(U)
    want = np.sqrt((A * A).sum(axis=1))
    got = norm_batch(NormSpec.lp(2), U)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and nan.any()
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# norm axioms (property-based)
# ---------------------------------------------------------------------------

NORM_GALLERY = [
    NormSpec.lp(1),
    NormSpec.lp(2),
    NormSpec.lp(3),
    NormSpec.lp(math.inf),
    NormSpec.weighted_lp(2, np.full(12, 0.5)),
    NormSpec.sobolev_h1(0.5),
]


class TestNormAxioms:
    @pytest.mark.parametrize("ns", NORM_GALLERY, ids=lambda n: n.label)
    @given(u=vectors, c=st.floats(min_value=-100, max_value=100,
                                  allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, ns, u, c):
        a = norm(ns, Element(u))
        b = norm(ns, Element([c * x for x in u]))
        assert b == pytest.approx(abs(c) * a, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("ns", NORM_GALLERY, ids=lambda n: n.label)
    @given(u=vectors, v=vectors)
    @settings(max_examples=40, deadline=None)
    def test_triangle(self, ns, u, v):
        eu, ev = Element(u), Element(v)
        assert norm(ns, eu + ev) <= norm(ns, eu) + norm(ns, ev) + 1e-10

    @pytest.mark.parametrize("ns", NORM_GALLERY, ids=lambda n: n.label)
    @given(u=vectors)
    @settings(max_examples=40, deadline=None)
    def test_definite(self, ns, u):
        value = norm(ns, Element(u))
        if any(abs(x) > 1e-12 for x in u):
            assert value > 0.0
        elif all(x == 0.0 for x in u):
            assert value == 0.0


# ---------------------------------------------------------------------------
# pairing and dual norms
# ---------------------------------------------------------------------------

class TestPairing:
    def test_biorthogonality(self):
        f = Element(np.array([1.0]))
        assert pair(f, Element(np.eye(3)[0])) == 1.0
        assert pair(f, Element(np.eye(3)[1])) == 0.0

    def test_direct_dot(self):
        f = Element(np.array([0.5, 0.5]))
        assert pair(f, Element([1.0, 1.0])) == 1.0

    def test_zero_padding_both_ways(self):
        f = Element(np.array([1.0, 2.0, 3.0]))
        assert pair(f, Element([1.0])) == 1.0
        g = Element(np.array([2.0]))
        assert pair(g, Element([1.0, 5.0])) == 2.0


class TestDualNorm:
    def test_l2_self_dual(self):
        assert dual_norm(NormSpec.lp(2), np.array([3.0, 4.0])) == 5.0

    def test_l1_gives_sup_norm(self):
        assert dual_norm(NormSpec.lp(1), np.array([1.0, -2.0])) == 2.0

    def test_linf_gives_l1_norm(self):
        assert dual_norm(NormSpec.lp(math.inf), np.array([1.0, -2.0])) == 3.0

    def test_weighted_dual_divides_by_weights(self):
        ns = NormSpec.weighted_lp(2, [2.0, 4.0])
        # sup <f,u> st sqrt((2u1)^2 + (4u2)^2) <= 1 is ||(f1/2, f2/4)||_2
        got = dual_norm(ns, np.array([2.0, 4.0]))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_sobolev_dual_matches_dense_solve(self, h, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            f = rng.standard_normal(d)
            got = dual_norm(NormSpec.sobolev_h1(h), f)
            assert got == pytest.approx(riesz_dual_oracle(h, f), rel=1e-10)

    def test_sobolev_e1_on_five_point_grid(self):
        f = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        got = dual_norm(NormSpec.sobolev_h1(0.5), f)
        assert got == pytest.approx(riesz_dual_oracle(0.5, f), rel=1e-12)

    @pytest.mark.parametrize("ns", NORM_GALLERY, ids=lambda n: n.label)
    @given(f=vectors, u=vectors)
    @settings(max_examples=40, deadline=None)
    def test_hoelder(self, ns, f, u):
        width = max(len(f), len(u))
        fv = np.zeros(width)
        fv[: len(f)] = f
        uv = np.zeros(width)
        uv[: len(u)] = u
        lhs = abs(pair(Element(fv), Element(uv)))
        rhs = dual_norm(ns, fv) * norm(ns, Element(uv))
        assert lhs <= rhs + 1e-10 + 1e-12 * rhs

    def test_dual_norm_is_attained_for_l2(self):
        # taking u proportional to f turns Hoelder into equality
        f = np.array([1.0, -2.0, 2.0])
        u = Element(f / np.linalg.norm(f))
        assert pair(Element(f), u) == pytest.approx(
            dual_norm(NormSpec.lp(2), f), rel=1e-14)

    def test_normalized_functional_lands_in_dual_ball(self):
        rng = np.random.default_rng(7)
        for ns in (NormSpec.lp(2), NormSpec.weighted_lp(2, np.full(6, 3.0)),
                   NormSpec.sobolev_h1(0.5)):
            for _ in range(10):
                f = normalized_functional(ns, rng.standard_normal(6) * 10)
                assert dual_norm(ns, f.coeffs) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# dual family enumeration
# ---------------------------------------------------------------------------

class TestCoordinateFamily:
    def test_k3_is_third_coordinate_functional(self):
        fam = DualFamily(mode="coordinate", space=NormSpec.lp(2))
        f = enumerate_phi(fam, 3)
        assert np.array_equal(f.coeffs, [0.0, 0.0, 1.0])

    def test_k_must_be_positive(self):
        fam = DualFamily(mode="coordinate", space=NormSpec.lp(2))
        with pytest.raises(EnumerationError):
            enumerate_phi(fam, 0)
        with pytest.raises(EnumerationError):
            enumerate_phi(fam, -2)

    def test_sobolev_coordinate_functionals_have_unit_dual_norm(self):
        ns = NormSpec.sobolev_h1(0.5)
        fam = DualFamily(mode="coordinate", space=ns, dim=6)
        for k in range(1, 7):
            f = enumerate_phi(fam, k)
            assert dual_norm(ns, f.coeffs) == pytest.approx(1.0, rel=1e-10)

    def test_weighted_coordinate_functionals_have_unit_dual_norm(self):
        ns = NormSpec.weighted_lp(2, [0.5, 2.0, 8.0])
        fam = DualFamily(mode="coordinate", space=ns)
        for k in range(1, 4):
            f = enumerate_phi(fam, k)
            assert dual_norm(ns, f.coeffs) == pytest.approx(1.0, rel=1e-12)


class TestDenseRationalFamily:
    def setup_method(self):
        self.fam = DualFamily(mode="dense-rational", space=NormSpec.lp(2))

    def test_first_member(self):
        f = enumerate_phi(self.fam, 1)
        assert np.array_equal(f.coeffs, [-1.0])

    def test_deterministic_across_instances(self):
        other = DualFamily(mode="dense-rational", space=NormSpec.lp(2))
        for k in (1, 2, 17, 100, 1234):
            a = enumerate_phi(self.fam, k)
            b = enumerate_phi(other, k)
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_all_members_in_dual_ball(self):
        for k in range(1, 501):
            f = enumerate_phi(self.fam, k)
            assert dual_norm(NormSpec.lp(2), f.coeffs) <= 1.0 + 1e-12

    def test_h1_members_in_the_ambient_dual_ball(self):
        # the h1 dual norm grows with the truncation, so a member normalized
        # on its support width alone can exceed 1 on the family's dim (phi_7
        # at h = 1, d = 16 read 1.054), which breaks the tail majorant
        for d in (4, 16):
            for h in (1.0, 0.5, 1.0 / (d + 1)):
                ns = NormSpec.sobolev_h1(h)
                fam = DualFamily(mode="dense-rational", space=ns, dim=d)
                for k in range(1, 61):
                    f = enumerate_phi(fam, k)
                    assert dual_norm(ns, f.padded(d)) <= 1.0 + 1e-12, (d, h, k)

    def test_enumeration_hits_every_low_level_vector(self):
        # the first diagonal blocks must contain all +-1 singletons and pairs
        seen = set()
        for k in range(1, 200):
            f = enumerate_phi(self.fam, k)
            seen.add(tuple(f.coeffs.tolist()))
        assert (-1.0,) in seen
        assert (1.0,) in seen
        assert (-0.5,) in seen
        assert (0.5,) in seen

    def test_density_near_target(self):
        # statistical density check pinned to one concrete dual-ball target;
        # stopping at the first support-3 member is sound because finding a
        # close functional in the prefix already witnesses the k <= 1e5 claim
        target = np.array([0.7, 0.7])
        best = math.inf
        for k in range(1, 100_001):
            f = enumerate_phi(self.fam, k)
            c = f.coeffs
            if len(c) > 2 and best < 0.05:
                break
            cpad = np.zeros(max(2, len(c)))
            cpad[: len(c)] = c
            tpad = np.zeros(len(cpad))
            tpad[:2] = target
            best = min(best, float(np.linalg.norm(cpad - tpad)))
        assert best < 0.05

    def test_prefix_matrix_rows_match_functionals(self):
        P = self.fam.prefix_matrix(12, 4)
        assert P.shape[0] == 12
        for k in range(1, 13):
            f = enumerate_phi(self.fam, k)
            row = np.zeros(P.shape[1])
            row[: f.dim] = f.coeffs
            assert np.array_equal(P[k - 1], row[: P.shape[1]])

    def test_prefix_matrix_is_built_once_and_read_only(self):
        fam = DualFamily(mode="dense-rational", space=NormSpec.lp(2))
        P = fam.prefix_matrix(20, 1)
        assert P.shape == (20, 1)  # cut to the width: phi_7..phi_14 have support 2
        assert fam.prefix_matrix(20, 1) is P
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 1.0
        assert fam.prefix_matrix(20, 5).shape == (20, 5)


class TestJsonConstruction:
    def test_normspec_roundtrip(self):
        from ehrlab import normspec_from_json
        ns = normspec_from_json({"kind": "weighted-lp", "p": 2,
                                 "weights": [1.0, 2.0]})
        assert ns.kind == "weighted-lp"
        assert norm(ns, Element([1.0, 1.0])) == pytest.approx(math.sqrt(5.0))

    def test_lp_inf_string(self):
        from ehrlab import normspec_from_json
        ns = normspec_from_json({"kind": "lp", "p": "inf"})
        assert norm(ns, Element([3.0, -4.0])) == 4.0

    def test_family_roundtrip(self):
        from ehrlab import family_from_json
        fam = family_from_json({"mode": "dense-rational",
                                "space": {"kind": "lp", "p": 2}})
        assert np.array_equal(enumerate_phi(fam, 1).coeffs, [-1.0])

    def test_unknown_kind_rejected(self):
        from ehrlab import normspec_from_json
        with pytest.raises(UnsupportedNormError):
            normspec_from_json({"kind": "besov"})
