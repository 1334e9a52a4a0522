"""Convergence-mode classification and the unbounded very-weak-null sequence."""

from dataclasses import fields

import numpy as np
import pytest

from ehrlab import (
    CertifiedValue,
    DimensionMismatchError,
    DualFamily,
    Element,
    NormSpec,
    SequenceGen,
    ToleranceError,
    appendix_counterexample,
    basis_sequence,
    classify,
    counterexample_sequence,
    custom_sequence,
    cutoff_index,
    default_dim,
    default_probes,
    dual_norm,
    enumerate_phi,
    implication_suite,
    norm,
    pair,
    strongly_convergent_sequence,
    very_weak_norm,
)
from ehrlab import convergence

L2 = NormSpec.lp(2)
COORD = DualFamily(mode="coordinate", space=L2)


# ---------------------------------------------------------------------------
# cutoff schedule
# ---------------------------------------------------------------------------

class TestCutoff:
    @pytest.mark.parametrize("n,want", [(1, 1), (2, 3), (4, 5), (8, 7), (16, 9)])
    def test_values(self, n, want):
        assert cutoff_index(n) == want

    def test_least_index_property(self):
        for n in range(1, 51):
            N = cutoff_index(n)
            assert 2.0 ** (-N) < 1.0 / (n * n)
            assert 2.0 ** (-(N - 1)) >= 1.0 / (n * n)

    @pytest.mark.parametrize("n,want", [(1, 6), (2, 9), (4, 13), (8, 19), (16, 29)])
    def test_default_dim(self, n, want):
        assert default_dim(n) == want

    def test_rejects_bad_index(self):
        with pytest.raises(ToleranceError):
            cutoff_index(0)


# ---------------------------------------------------------------------------
# sequence generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_basis_terms(self):
        g = basis_sequence(4)
        assert g.horizon == 4
        np.testing.assert_array_equal(g.elements[1].coeffs, [0.0, 1.0, 0.0, 0.0])

    def test_basis_horizon_must_fit(self):
        with pytest.raises(DimensionMismatchError):
            basis_sequence(4, horizon=5)

    def test_strongly_convergent_terms(self):
        target = Element([1.0, 2.0, 0.0])
        g = strongly_convergent_sequence(target, rate=0.5, horizon=8)
        assert g.horizon == 8
        assert g.target is target
        for n in (1, 3, 8):
            want = target.coeffs.copy()
            want[0] += 0.5 ** n
            np.testing.assert_array_equal(g.elements[n - 1].coeffs, want)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, 2.0])
    def test_rate_validation(self, rate):
        with pytest.raises(ToleranceError):
            strongly_convergent_sequence(Element([1.0]), rate=rate)

    def test_custom_roundtrip(self):
        els = [Element([1.0, 0.0]), Element([0.0, 2.0])]
        g = custom_sequence(els)
        assert g.horizon == 2
        assert g.elements[1] is els[1]

    def test_custom_rejects_empty(self):
        with pytest.raises(ToleranceError):
            custom_sequence([])

    def test_horizon_validation(self):
        with pytest.raises(ToleranceError):
            basis_sequence(4, horizon=0)
        with pytest.raises(ToleranceError):
            SequenceGen(())

    def test_fields(self):
        assert [f.name for f in fields(SequenceGen)] == ["elements", "target"]

    @pytest.mark.parametrize("mode", ["coordinate", "dense-rational"])
    def test_counterexample_elements_bit_for_bit(self, mode):
        fam = DualFamily(mode=mode, space=L2)
        g = counterexample_sequence(fam, 5)
        assert g.horizon == 5
        for n, u in enumerate(g.elements, start=1):
            np.testing.assert_array_equal(u.coeffs,
                                          appendix_counterexample(fam, n).coeffs)


# ---------------------------------------------------------------------------
# the counterexample construction
# ---------------------------------------------------------------------------

class TestAppendixConstruction:
    @pytest.mark.parametrize("n,dim", [(1, 6), (2, 9), (4, 13), (8, 19), (16, 29)])
    def test_norm_dimension_and_bound(self, n, dim):
        u = appendix_counterexample(COORD, n)
        assert u.dim == dim
        assert norm(L2, u) == pytest.approx(n, abs=1e-9 * n)
        N = cutoff_index(n)
        # the first N coordinates carry the annihilated pairings exactly
        assert np.abs(u.coeffs[:N]).max() <= 1e-9
        tau = 0.5 / (n * n * max(n, 2))
        assert very_weak_norm(COORD, u, tau).hi < 1.0 / n

    def test_small_index_tail_estimate(self):
        # zeroing the first 5 coordinates caps the weighted tail well below 1/4
        u = appendix_counterexample(COORD, 4)
        assert very_weak_norm(COORD, u, tau=1e-9).hi <= 0.125

    def test_deterministic_bit_for_bit(self):
        a = appendix_counterexample(COORD, 7)
        b = appendix_counterexample(DualFamily(mode="coordinate", space=L2), 7)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_dense_rational_family(self, n):
        fam = DualFamily(mode="dense-rational", space=L2)
        u = appendix_counterexample(fam, n)
        assert norm(L2, u) == pytest.approx(n, abs=1e-9 * n)
        worst = max(abs(pair(enumerate_phi(fam, k), u))
                    for k in range(1, cutoff_index(n) + 1))
        assert worst <= 1e-9
        assert very_weak_norm(fam, u, tau=0.5 / (n * n * max(n, 2))).hi < 1.0 / n


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

class TestProbes:
    def test_count_and_determinism(self):
        a = default_probes(COORD, 12)
        b = default_probes(COORD, 12)
        assert len(a) == 64
        for f, g in zip(a, b):
            np.testing.assert_array_equal(f.coeffs, g.coeffs)

    def test_probes_live_in_the_dual_ball(self):
        for f in default_probes(COORD, 10):
            assert dual_norm(L2, f) <= 1.0 + 1e-9

    def test_a_finite_family_ends_the_enumerated_probes(self):
        # a coordinate weighted-lp family has one member per weight, so the
        # enumeration stops after 8 members and the random probes follow
        X = NormSpec.weighted_lp(2, [1.0 + 0.1 * k for k in range(8)])
        fam = DualFamily(mode="coordinate", space=X)
        assert len(default_probes(fam, 8)) == 8 + convergence.N_RANDOM == 40
        assert classify(basis_sequence(8), fam, tol=1e-2).probe_count == 40

    def test_random_probes_decay_on_deep_coordinates(self):
        probes = default_probes(COORD, 40)
        for f in probes[32:]:
            assert abs(f.coeffs[-1]) < 1e-6


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassify:
    def test_basis_sequence_is_weakly_null(self):
        rep = classify(basis_sequence(64), COORD, tol=1e-3)
        assert rep.verdict == "weak-not-strong"
        assert rep.flags == []
        assert max(rep.weak_residuals[32:]) < 1e-3
        assert min(rep.strong_residuals) == pytest.approx(1.0)

    def test_strongly_convergent_sequence(self):
        target = Element([2.0, -1.0, 0.5, 0.0])
        g = strongly_convergent_sequence(target, rate=0.5, horizon=24)
        rep = classify(g, COORD, tol=1e-3)
        assert rep.verdict == "strong"
        assert rep.flags == []
        # the residual against the declared limit is exactly rate^n
        assert rep.strong_residuals[0] == pytest.approx(0.5)

    def test_counterexample_is_very_weak_only(self):
        g = counterexample_sequence(COORD, horizon=16)
        rep = classify(g, COORD, tol=0.125)
        assert rep.verdict == "very-weak-only"
        assert rep.flags == []
        assert min(rep.norms[8:]) > 8.0

    def test_counterexample_at_tight_tolerance_is_honest(self):
        # at tol=1e-3 the trailing norms still sit below 1/tol, so the data
        # only supports bounded-divergent; the stronger verdict needs a
        # tolerance whose boundedness bar the norms actually clear
        g = counterexample_sequence(COORD, horizon=12)
        rep = classify(g, COORD, tol=1e-3)
        assert rep.verdict == "bounded-divergent"

    def test_ambiguous_boundedness_is_flagged(self):
        els = [Element([5.0, 0.0]), Element([0.0, 2000.0])] * 2
        rep = classify(custom_sequence(els), COORD, tol=1e-3)
        assert rep.verdict == "unbounded"
        assert any("ambiguous" in f for f in rep.flags)

    def test_guard_band_is_flagged(self):
        bump = np.zeros(40)
        bump[39] = 5e-3
        els = [Element(bump)] * 6
        rep = classify(custom_sequence(els), COORD, tol=1e-3)
        assert rep.verdict == "weak-not-strong"
        assert any("guard band" in f for f in rep.flags)

    def test_tolerance_validation(self):
        with pytest.raises(ToleranceError):
            classify(basis_sequence(4), COORD, tol=0.0)

    def test_deterministic_report(self):
        a = classify(basis_sequence(16), COORD).as_dict()
        b = classify(basis_sequence(16), COORD).as_dict()
        assert a == b


# ---------------------------------------------------------------------------
# implication chain
# ---------------------------------------------------------------------------

class TestImplicationSuite:
    @pytest.mark.parametrize("make", [
        lambda: basis_sequence(32),
        lambda: strongly_convergent_sequence(Element([1.0, 1.0]), horizon=16),
        lambda: counterexample_sequence(COORD, horizon=8),
    ])
    def test_chain_holds(self, make):
        out = implication_suite(make(), COORD)
        assert out["ok"], out["violations"]
        assert out["violations"] == []

    def test_very_weak_bound_above_the_norm_is_reported(self, monkeypatch):
        # no dual-ball family can do this: lo above ||w|| must be flagged
        def inflated(fam, w, tau):
            s = norm(fam.space, w)
            return CertifiedValue(lo=2.0 * s + 1.0, hi=2.0 * s + 1.0, terms_used=1)

        monkeypatch.setattr(convergence, "very_weak_norm", inflated)
        out = implication_suite(basis_sequence(4), COORD)
        assert not out["ok"]
        assert len(out["violations"]) == 4
        assert all("very weak lower bound" in v for v in out["violations"])

    def test_reports_verdict_and_steps(self):
        out = implication_suite(basis_sequence(16), COORD)
        assert out["verdict"] == classify(basis_sequence(16), COORD).verdict
        assert out["steps"] == 16
