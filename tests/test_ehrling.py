"""Certificates, sharp constants, falsification, and the reverse inequality."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehrlab import (
    DualFamily,
    Element,
    NoModulusError,
    NonInjectiveError,
    NormSpec,
    OptimizerSettings,
    SamplerSettings,
    ToleranceError,
    UnsupportedNormError,
    apply_batch,
    bisect_modulus,
    certify,
    falsify,
    make_dense,
    make_diagonal,
    make_kernel,
    make_shift,
    make_sobolev_embedding,
    norm,
    norm_batch,
    optimal_constant,
    reverse_certificate,
    three_space_certificate,
    verify_certificate,
    very_weak_norm,
)
from ehrlab import blocks, ehrling, optimize, spaces, veryweak
from ehrlab.cli import load_scenario, run
from ehrlab.errors import DimensionMismatchError
from ehrlab.optimize import NormHandle, norm_handle, operator_handle

L2 = NormSpec.lp(2)
COORD3 = DualFamily(mode="coordinate", space=L2, dim=3)
GALLERY_LAM3 = [1.0, 0.5, 0.25]

FAST = OptimizerSettings(n_starts=24, iterations=40, polish_rounds=15)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# d = 3 sphere-grid oracle
# ---------------------------------------------------------------------------
# both objectives below depend on u only through |u_k|, so the nonnegative
# octant of the sphere carries every optimum

def octant_grid(n: int) -> np.ndarray:
    theta = np.linspace(0.0, math.pi / 2, n)
    phi = np.linspace(0.0, math.pi / 2, n)
    TT, PP = np.meshgrid(theta, phi, indexing="ij")
    V = np.stack([np.sin(TT) * np.cos(PP),
                  np.sin(TT) * np.sin(PP),
                  np.cos(TT)], axis=-1).reshape(-1, 3)
    return V


def oracle_optimal_constant(lam, eps: float, n: int = 400) -> float:
    V = octant_grid(n)
    lam = np.asarray(lam)
    num = np.sqrt((V * V) @ (lam * lam)) - eps  # ||u||_2 = 1 on the grid
    den = V @ (2.0 ** -np.arange(1, 4))
    mask = den > 1e-12
    return float(np.max(num[mask] / den[mask]))


def oracle_restricted_sup(lam, delta: float, n: int = 400) -> float:
    V = octant_grid(n)
    lam = np.asarray(lam)
    vw = V @ (2.0 ** -np.arange(1, 4))
    scale = np.minimum(1.0, np.divide(delta, vw, out=np.full(len(vw), np.inf),
                                      where=vw > 0))
    return float(np.max(scale * np.sqrt((V * V) @ (lam * lam))))


def oracle_modulus(lam, eps: float, n: int = 400) -> float:
    lo, hi = 1e-9, 1.0
    if oracle_restricted_sup(lam, hi, n) <= eps:
        return hi
    for _ in range(64):
        mid = math.sqrt(lo * hi)
        if oracle_restricted_sup(lam, mid, n) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# the modulus bisection
# ---------------------------------------------------------------------------

def modulus(T, norm1, norm2, eps: float, opt: OptimizerSettings, dim: int) -> float:
    """bisect_modulus on the handles certify builds for a coordinate or strong norm2."""
    ((delta, _),) = bisect_modulus(operator_handle((T,), T.codomain), norm_handle(norm1),
                                   norm_handle(norm2), (eps,), dim, opt)
    return delta


class TestModulus:
    def test_zero_operator_returns_search_bound(self):
        Z = make_diagonal([0.0, 0.0, 0.0], L2, L2)
        d = modulus(Z, L2, L2, 0.25, FAST, 3)
        assert d == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0])
    def test_identity_closed_form(self, eps):
        T = make_diagonal([1.0] * 8, L2, L2)
        d = modulus(T, L2, L2, eps, OptimizerSettings(), 8)
        assert d == pytest.approx(min(eps, 1.0), rel=5e-3)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_diagonal_matches_grid_oracle(self, eps):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        got = modulus(T, L2, COORD3, eps, OptimizerSettings(), 3)
        want = oracle_modulus(GALLERY_LAM3, eps)
        assert got == pytest.approx(want, rel=2e-2)

    def test_delta_nondecreasing_in_eps(self):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        deltas = [modulus(T, L2, COORD3, eps, FAST, 3)
                  for eps in (0.125, 0.25, 0.5, 1.0)]
        for a, b in zip(deltas, deltas[1:]):
            assert b >= a * (1.0 - 1e-9)

    def test_no_modulus_when_floor_is_above_the_true_radius(self):
        # within a truncation every operator eventually certifies, so the
        # non-continuity signal is produced by raising the search floor
        T = make_shift(L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        opt = OptimizerSettings(delta_floor=1e-2)
        with pytest.raises(NoModulusError) as exc:
            modulus(T, L2, fam, 0.5, opt, 16)
        assert exc.value.eps == 0.5
        assert exc.value.delta_floor == 1e-2
        assert exc.value.sup_at_floor > 0.5
        assert exc.value.proved


def gallery(d: int = 8) -> dict:
    """Diagonal, dense and kernel operators whose modulus binds on most of
    the default grid (the diagonal's eps = 1 row does not bind)."""
    rng = np.random.default_rng(5)
    K = np.exp(-np.abs(np.subtract.outer(np.arange(d), np.arange(d))) / 3.0)
    return {
        "diagonal": make_diagonal(2.0 ** -np.arange(d), L2, L2),
        "dense": make_dense(rng.standard_normal((d, d)) * 2.0 ** -np.arange(d), L2, L2),
        "kernel": make_kernel(K, 0.5, L2, L2),
    }


def gallery_handles(T):
    """(hy, h1, h2) as certify builds them, with the coordinate l2 family."""
    h1, h2, hy = ehrling._handles(T, L2, DualFamily(mode="coordinate", space=L2))
    return hy, h1, h2


class TestModulusSearch:
    """One bisect_modulus call serves a whole eps grid."""

    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    def test_grid_call_equals_one_eps_calls(self, kind):
        handles = gallery_handles(gallery()[kind])
        grid = (1.0, 0.5, 0.25, 0.125)
        shared = bisect_modulus(*handles, grid, 8, FAST)
        assert len(shared) == len(grid)
        for eps, (delta, witnesses) in zip(grid, shared):
            ((delta1, witnesses1),) = bisect_modulus(*handles, (eps,), 8, FAST)
            assert delta == delta1
            assert len(witnesses) == len(witnesses1)
            for w, w1 in zip(witnesses, witnesses1):
                assert np.array_equal(w, w1)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ToleranceError):
            bisect_modulus(*gallery_handles(gallery()["diagonal"]), (0.5, 0.0), 8, FAST)

    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    def test_bracket_contract(self, kind, monkeypatch):
        """Each returned delta read sup <= eps; a delta at most a factor
        1 + BISECT_REL_WIDTH above it read sup > eps (unless the constraint
        never binds); and the refinement took at most ITP's worst case, one
        step more than bisecting the first bracket [bound/16, bound]. A
        trial counts whether a search or a known point decided it."""
        evaluated = []
        real, real_group = optimize._restricted_sup, optimize._restricted_sups
        real_known = optimize._known_sup

        def spy(*args, **kwargs):
            val, w = real(*args, **kwargs)
            evaluated.append((args[3], val))
            return val, w

        def group_spy(hy, norm1, norm2, trials, dim, opt):
            found = real_group(hy, norm1, norm2, trials, dim, opt)
            evaluated.extend((delta, val) for (delta, _), (val, _) in zip(trials, found))
            return found

        def known_spy(hy, norm1, norm2, delta, pool):
            val, u = real_known(hy, norm1, norm2, delta, pool)
            if val > eps:  # decided here; any other trial is searched
                evaluated.append((delta, val))
            return val, u

        monkeypatch.setattr(optimize, "_restricted_sup", spy)
        monkeypatch.setattr(optimize, "_restricted_sups", group_spy)
        monkeypatch.setattr(optimize, "_known_sup", known_spy)
        handles = gallery_handles(gallery()[kind])
        width = optimize.BISECT_REL_WIDTH
        worst = math.ceil(math.log2(math.log(16.0) / math.log1p(width))) + 1
        for eps in ehrling.DEFAULT_EPS_GRID:
            evaluated.clear()
            ((delta, witnesses),) = bisect_modulus(*handles, (eps,), 8, FAST)
            assert len(witnesses) == len(evaluated)
            bound = evaluated[0][0]
            assert any(d == delta and s <= eps for d, s in evaluated)
            assert delta == bound or any(
                d <= delta * (1.0 + width) and s > eps for d, s in evaluated)
            first_ok = next(i for i, (_, s) in enumerate(evaluated) if s <= eps)
            assert len(evaluated) - first_ok - 1 <= worst

    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    def test_known_points_agree_with_each_delta_when_it_is_taken(self, kind,
                                                                  monkeypatch):
        """Every point of a row's pool up to the one found at its returned
        delta (its chain links and the points of its earlier trials) reads
        at most eps there."""
        found_at = {}  # delta -> the maximizer its search returned
        real, real_group = optimize._restricted_sup, optimize._restricted_sups

        def spy(hy, norm1, norm2, delta, *args, **kwargs):
            val, w = real(hy, norm1, norm2, delta, *args, **kwargs)
            found_at[delta] = w
            return val, w

        def group_spy(hy, norm1, norm2, trials, dim, opt):
            found = real_group(hy, norm1, norm2, trials, dim, opt)
            found_at.update((delta, w) for (delta, _), (_, w) in zip(trials, found))
            return found

        monkeypatch.setattr(optimize, "_restricted_sup", spy)
        monkeypatch.setattr(optimize, "_restricted_sups", group_spy)
        handles = gallery_handles(gallery()[kind])
        grid = ehrling.DEFAULT_EPS_GRID
        for eps, (delta, pool) in zip(grid, bisect_modulus(*handles, grid, 8, FAST)):
            last = next(i for i, w in enumerate(pool) if w is found_at[delta])
            f = optimize._restricted_problem(*handles, delta)[0]
            assert f(np.vstack(pool[:last + 1])).max() <= eps

    def test_a_trial_a_known_point_refutes_is_not_searched(self, monkeypatch):
        """A trial that a known point decides makes no _restricted_sups or
        _maximize_group call; the pool still records its point."""
        decided, grouped, searched = [], [], []
        real_problem, real_known = optimize._restricted_problem, optimize._known_sup
        real_group, real_sups = optimize._maximize_group, optimize._restricted_sups

        def problem_spy(hy, norm1, norm2, delta, warm=None, side="lo"):
            f, fg, warm = real_problem(hy, norm1, norm2, delta, warm, side)
            f.delta = delta
            return f, fg, warm

        def known_spy(hy, norm1, norm2, delta, pool):
            val, u = real_known(hy, norm1, norm2, delta, pool)
            if val > eps:
                decided.append(delta)
                assert any(np.array_equal(u, w) for w in pool)
            return val, u

        def group_spy(problems, dim, opt):
            grouped.extend(getattr(f, "delta", None) for f, _, _ in problems)
            return real_group(problems, dim, opt)

        def sups_spy(hy, norm1, norm2, trials, dim, opt):
            searched.extend(delta for delta, _ in trials)
            return real_sups(hy, norm1, norm2, trials, dim, opt)

        monkeypatch.setattr(optimize, "_restricted_problem", problem_spy)
        monkeypatch.setattr(optimize, "_known_sup", known_spy)
        monkeypatch.setattr(optimize, "_maximize_group", group_spy)
        monkeypatch.setattr(optimize, "_restricted_sups", sups_spy)
        handles = gallery_handles(gallery()["dense"])
        for eps in ehrling.DEFAULT_EPS_GRID:
            bisect_modulus(*handles, (eps,), 8, FAST)
        assert decided and searched
        assert not set(decided) & set(searched)
        assert not set(decided) & set(grouped)
        assert set(searched) <= set(grouped)

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_degenerate_sup_takes_the_log_midpoint(self, bad, monkeypatch):
        """A predicate sup of 0 (below), or inf or NaN (above), leaves the
        interpolation undefined: every step is then the log-midpoint."""
        low, high = (bad, 2.0) if bad == 0.0 else (0.5, bad)
        trials = []

        def stub(hy, norm1, norm2, delta, dim, opt, warm=None):
            trials.append(delta)
            return (low if delta <= 0.3 else high), np.eye(dim)[0]

        monkeypatch.setattr(optimize, "_restricted_sup", stub)
        monkeypatch.setattr(optimize, "_restricted_sups",
                            lambda hy, norm1, norm2, trials, dim, opt:
                            [stub(hy, norm1, norm2, delta, dim, opt, warm)
                             for delta, warm in trials])
        h = norm_handle(L2)  # bound = sup ||u|| / ||u|| = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((delta, _),) = bisect_modulus(h, h, h, (1.0,), 4, FAST)
        assert trials[:2] == [1.0, 1.0 / 16.0]
        a, b = math.log(1.0 / 16.0), 0.0
        for t in trials[2:]:
            x = 0.5 * (a + b)
            assert t == math.exp(x)
            a, b = (x, b) if t <= 0.3 else (a, x)
        assert delta == max(t for t in trials if t <= 0.3)
        assert len(trials) - 2 == math.ceil(math.log2(
            math.log(16.0) / math.log1p(optimize.BISECT_REL_WIDTH)))

    def test_one_bound_search_per_certificate(self, monkeypatch):
        calls = []
        real = optimize.ratio_objective
        monkeypatch.setattr(optimize, "ratio_objective",
                            lambda *a: calls.append(1) or real(*a))
        certify(gallery()["dense"], L2, DualFamily(mode="coordinate", space=L2), opt=FAST)
        assert len(calls) == 1

    def test_golden_certify_search_count(self, monkeypatch, tmp_path):
        # every search, lone or grouped, runs through _maximize_group: the
        # bound, 3 chain links, 2 ITP rounds of the 4 binding rows (known
        # points decide each row's other trials) and one hardening round of
        # all 5 rows
        groups = []
        real = optimize._maximize_group

        def spy(problems, dim, opt):
            groups.append(len(problems))
            return real(problems, dim, opt)

        monkeypatch.setattr(optimize, "_maximize_group", spy)
        monkeypatch.setattr(ehrling, "_maximize_group", spy)
        run(load_scenario(SCENARIOS / "certify_diag16.json"), output_dir=tmp_path)
        assert sum(groups) == 17
        assert len(groups) == 7


class TestGroupedSearch:
    """One grouped search of k problems returns, bit for bit, what k lone
    maximize_direction calls return, and certify hardens its rows in groups
    exactly as each row would harden alone."""

    @staticmethod
    def problems(kind, d, calls):
        """Two restricted sups, a constant objective and a residual attack,
        with 0, 1, 0 and 3 extra starts; calls counts each value_and_grad."""
        hy, h1, h2 = gallery_handles(gallery(d)[kind])
        rng = np.random.default_rng(11)
        found = [
            optimize._restricted_problem(hy, h1, h2, 0.05),
            optimize._restricted_problem(hy, h1, h2, 0.01, rng.standard_normal((1, d))),
            (lambda V: np.zeros(len(V)), lambda V: (np.zeros(len(V)), np.zeros_like(V)), None),
            ehrling._attack(hy, h1, h2, 0.25, 3.0, rng.standard_normal((3, d))),
        ]

        def counted(i, fg):
            def value_and_grad(V):
                calls[i] += 1
                return fg(V)
            return value_and_grad

        return [(f, counted(i, fg), extra) for i, (f, fg, extra) in enumerate(found)]

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for (val, u), (val1, u1) in zip(got, want):
            assert np.array_equal(val, val1)
            assert np.array_equal(u, u1) and u.tobytes() == u1.tobytes()

    @pytest.mark.parametrize("d", [8, 32])
    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    def test_group_equals_lone_searches(self, kind, d):
        calls = Counter()
        problems = self.problems(kind, d, calls)
        grouped = optimize._maximize_group(problems, d, FAST)
        grouped_calls = dict(calls)
        calls.clear()
        lone = [optimize.maximize_direction(f, d, FAST, extra, value_and_grad=fg)
                for f, fg, extra in problems]
        self.assert_same(grouped, lone)
        # each problem ran as many ascent steps as alone: the constant one
        # froze once 0.25 / 2^38 < 1e-12, next to one that ran every step
        assert grouped_calls == dict(calls)
        assert grouped_calls[2] == 1 + 38 < 1 + FAST.iterations
        assert max(grouped_calls[i] for i in (0, 1, 3)) == 1 + FAST.iterations
        # and no result depends on the problem's position in the group
        self.assert_same(optimize._maximize_group(problems[::-1], d, FAST), lone[::-1])

    def test_grouped_hardening_equals_one_row_certificates(self, monkeypatch):
        # moduli inflated by a factor per eps make the rows harden over
        # different numbers of rounds, so the groups shrink round by round
        inflate = dict(zip(ehrling.DEFAULT_EPS_GRID, (1.0, 3.0, 2.0, 6.0, 1.5)))
        real, real_group = ehrling.bisect_modulus, ehrling._maximize_group
        groups = []

        def inflated(hy, h1, h2, grid, dim, opt):
            return [(delta * inflate[eps], pool)
                    for eps, (delta, pool) in zip(grid, real(hy, h1, h2, grid, dim, opt))]

        def spy(problems, dim, opt):
            groups.append(len(problems))
            return real_group(problems, dim, opt)

        monkeypatch.setattr(ehrling, "bisect_modulus", inflated)
        monkeypatch.setattr(ehrling, "_maximize_group", spy)
        # a grid row either keeps its one-eps (delta, C) or inherits the C of
        # a smaller-eps row: the envelope over the one-eps certificates
        T, fam = gallery()["dense"], DualFamily(mode="coordinate", space=L2)
        grid = ehrling.DEFAULT_EPS_GRID
        rows = certify(T, L2, fam, grid, opt=FAST).rows
        assert groups[0] == len(grid) and len(set(groups)) >= 3  # rows left in 3+ rounds
        alone = [certify(T, L2, fam, (eps,), opt=FAST).rows[0] for eps in grid]
        C = math.inf
        for row, one in zip(rows[::-1], alone[::-1]):
            C = min(C, one.C)
            assert row.C == C
            assert row.delta == (one.delta if C == one.C else row.eps / C)


# ---------------------------------------------------------------------------
# verify_certificate
# ---------------------------------------------------------------------------

class TestVerify:
    def test_zero_operator_always_passes(self):
        Z = make_diagonal([0.0, 0.0], L2, L2)
        rep = verify_certificate(Z, L2, L2, eps=0.1, C=0.0,
                                 sampler=SamplerSettings(n_samples=500))
        assert rep.passed
        assert rep.max_residual <= 0.0

    def test_identity_equal_norms_boundary_case(self):
        T = make_diagonal([1.0] * 4, L2, L2)
        rep = verify_certificate(T, L2, L2, eps=0.5, C=0.5,
                                 sampler=SamplerSettings(n_samples=2000))
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_shift_fails_with_deep_basis_witness(self):
        T = make_shift(L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        rep = verify_certificate(T, L2, fam, eps=0.5, C=1e3,
                                 sampler=SamplerSettings(n_samples=2000),
                                 opt=OptimizerSettings(dim=16))
        assert not rep.passed
        assert rep.witness is not None
        u = rep.witness.u
        nz = np.flatnonzero(np.abs(u.coeffs) > 1e-12)
        assert len(nz) == 1
        n = nz[0] + 1
        # any basis witness must sit beyond log2(2C) for the residual to flip
        assert n > math.log2(2 * 1e3)
        assert norm(L2, u) <= 1.0 + 1e-12

    def test_report_counts_points(self):
        Z = make_diagonal([0.0, 0.0], L2, L2)
        rep = verify_certificate(Z, L2, L2, eps=0.1, C=0.0,
                                 sampler=SamplerSettings(n_samples=100))
        assert rep.n_points >= 100


# ---------------------------------------------------------------------------
# the verification sample, held once and evaluated in row blocks
# ---------------------------------------------------------------------------

def whole_array_ball_points(sampler: SamplerSettings, dim: int, h1: NormHandle) -> np.ndarray:
    """The sample as the whole-array formula on each chunk of
    optimize._DRAW_ROWS rows, drawn from the chunk's own stream: the
    reference for the blocked and threaded one."""
    chunks = []
    for c, a in enumerate(range(0, sampler.n_samples, optimize._DRAW_ROWS)):
        m = min(optimize._DRAW_ROWS, sampler.n_samples - a)
        rng = np.random.default_rng(np.random.SeedSequence(sampler.seed, spawn_key=(c,)))
        X = rng.standard_normal((m, dim))
        radii = rng.random(m) ** (1.0 / dim)
        chunks.append(optimize._unit(h1, X) * radii[:, None])
    return np.vstack([*chunks, optimize._unit(h1, np.eye(dim))])


def whole_array_very_weak_norm(fam: DualFamily, U: np.ndarray, tau=None, terms=None):
    """very_weak_norm_batch as one whole-array formula: the reference for the
    blocked one."""
    d = U.shape[1]
    if fam.mode == "coordinate":
        lo = np.abs(U) @ fam.coordinate_weights(d)
        return lo, lo.copy()
    R = norm_batch(fam.space, U)
    if terms is None:
        Rmax = float(R.max(initial=0.0))
        terms = veryweak._least_terms(Rmax, tau) if Rmax > 0.0 else 1
    series = 2.0 ** (-np.arange(1, terms + 1, dtype=np.float64))
    lo = np.abs(U @ fam.prefix_matrix(terms, d).T) @ series
    return lo, lo + 2.0 ** (-terms) * R


# a byte budget this small cuts blocks of blocks._BLOCK_ROWS rows, the least
SMALLEST_BLOCK = 1
# with the basis, 1,036 rows at d = 8 and 1,060 at d = 32: sixteen blocks of
# 64 rows and a rest. At d = 32 the rest holds 4 random rows, and a matrix
# product on those 36 rows alone takes another OpenBLAS kernel path
ODD = SamplerSettings(n_samples=1028, seed=3)
# nine full draw chunks and a short tenth, so ball_points shares its chunks
# with the worker at the default _SERIAL_BLOCKS
CHUNKED = SamplerSettings(n_samples=9 * optimize._DRAW_ROWS + 1028, seed=3)


def at_each_block_setting(monkeypatch, job):
    """job() at the default block size, then at the smallest one on the
    calling thread alone, then at the smallest one with every sample shared
    with the worker thread."""
    out = [job()]
    monkeypatch.setattr(blocks, "_BLOCK_BYTES", SMALLEST_BLOCK)
    assert len(blocks._row_blocks(ODD.n_samples, 32)) > blocks._SERIAL_BLOCKS
    monkeypatch.setattr(blocks, "_SERIAL_BLOCKS", 1 << 62)
    out.append(job())
    monkeypatch.setattr(blocks, "_SERIAL_BLOCKS", 0)
    out.append(job())
    return out


class TestBlockedSample:
    @pytest.mark.parametrize("ns", [
        L2, NormSpec.lp(3), NormSpec.weighted_lp(2, np.linspace(0.5, 2.0, 8)),
        NormSpec.sobolev_h1(0.5)], ids=["lp2", "lp3", "weighted-lp", "h1"])
    def test_ball_points_equal_the_whole_array_formula(self, ns, monkeypatch):
        h1 = norm_handle(ns)
        assert -(-CHUNKED.n_samples // optimize._DRAW_ROWS) > blocks._SERIAL_BLOCKS
        for sampler in (ODD, CHUNKED):
            ref = whole_array_ball_points(sampler, 8, h1).tobytes()
            for pts in at_each_block_setting(
                    monkeypatch, lambda: optimize.ball_points(sampler, 8, h1)):
                assert pts.tobytes() == ref
            monkeypatch.undo()

    @pytest.mark.parametrize("mode", ["coordinate", "dense-rational"])
    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    @pytest.mark.parametrize("d", [8, 32])
    def test_verify_does_not_depend_on_the_block_size(self, d, kind, mode, monkeypatch):
        T = gallery(d)[kind]
        fam = DualFamily(mode=mode, space=L2)
        h1, h2, hy = ehrling._handles(T, L2, fam)
        pts = optimize.ball_points(ODD, d, h1)

        def run():
            # a report shows one row of the sample, so compare every value too
            values = [v.tobytes() for v in ehrling._sample(hy, h1, h2, pts)[1:]]
            # one pair that holds on the sample and one that fails with a witness
            reps = [verify_certificate(T, L2, fam, eps, C, sampler=ODD)
                    for eps, C in ((10.0, 1.0), (0.125, 0.01))]
            assert reps[0].passed and reps[1].witness is not None
            return values, [(json.dumps(r.as_dict()), r.worst.coeffs.tobytes()) for r in reps]

        default, serial, threaded = at_each_block_setting(monkeypatch, run)
        assert serial == default and threaded == default

    @pytest.mark.parametrize("rule", ["tau", "terms"])
    @pytest.mark.parametrize("mode", ["coordinate", "dense-rational"])
    @pytest.mark.parametrize("d", [8, 32])
    def test_very_weak_norm_batch_equals_the_whole_array_formula(self, d, mode, rule,
                                                                 monkeypatch):
        fam = DualFamily(mode=mode, space=L2)
        U = optimize.ball_points(ODD, d, norm_handle(L2))
        # the largest strong norm sits in the last block, so a tau rule read
        # from any other block would sum fewer terms
        U[-1] *= 2.0 ** 20
        R = norm_batch(L2, U)
        assert veryweak._least_terms(R[:64].max(), 1e-10) < veryweak._least_terms(
            R.max(), 1e-10)
        kw = {"tau": 1e-10} if rule == "tau" else {"terms": optimize.ENCLOSURE_TERMS}
        ref = [v.tobytes() for v in whole_array_very_weak_norm(fam, U, **kw)]
        for out in at_each_block_setting(
                monkeypatch, lambda: veryweak.very_weak_norm_batch(fam, U, **kw)):
            assert [v.tobytes() for v in out] == ref

    def test_zero_width_rows_are_cut_as_width_one(self):
        assert blocks._row_blocks(5, 0) == [slice(0, 5)]
        for n in (0, 1000, 300_000):
            assert blocks._row_blocks(n, 0) == blocks._row_blocks(n, 1)

    def test_certify_does_not_depend_on_the_block_size(self, monkeypatch):
        T = gallery()["kernel"]
        fam = DualFamily(mode="coordinate", space=L2)
        default, serial, threaded = at_each_block_setting(monkeypatch, lambda: json.dumps(
            certify(T, L2, fam, eps_grid=(0.5, 0.125), opt=FAST, sampler=ODD).as_dict()))
        assert serial == default and threaded == default

    @pytest.mark.parametrize("mode", ["coordinate", "dense-rational"])
    def test_verify_holds_one_sample_plus_one_block(self, mode):
        # whole-array evaluation peaked at 4.05x the sample's bytes here
        d, n = 64, 40_000
        rng = np.random.default_rng(0)
        T = make_dense(rng.standard_normal((d, d)) * 2.0 ** -np.arange(d), L2, L2)
        fam = DualFamily(mode=mode, space=L2)
        tracemalloc.start()
        try:
            verify_certificate(T, L2, fam, 0.25, 1.0, sampler=SamplerSettings(n_samples=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + d) * d * 8

    def test_certify_at_d64_with_the_default_sampler_starts_no_worker(self, monkeypatch):
        # certify's own sample (10,064 rows, 4 blocks at d = 64) stays on the
        # calling thread, so its memory and timing are those of one thread
        def no_worker(*args, **kwargs):
            raise AssertionError("a default certify sample started a worker")

        monkeypatch.setattr(blocks, "ThreadPoolExecutor", no_worker)
        T = make_diagonal(2.0 ** (-0.5 * np.arange(64)), L2, L2)
        before = threading.active_count()
        cert = certify(T, L2, DualFamily(mode="coordinate", space=L2), eps_grid=(0.5,),
                       opt=FAST)
        assert cert.rows[0].residual <= 0.0
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["sample", "ball_points"])
    def test_a_late_block_error_reaches_the_caller_after_every_block_ends(
            self, where, monkeypatch):
        monkeypatch.setattr(blocks, "_BLOCK_BYTES", SMALLEST_BLOCK)

        class LateBlockError(Exception):
            pass

        class Failing(NormHandle):
            """l2 norm that raises on its sixth call; every call is slow
            enough that the other thread's block is still running then."""

            def __init__(self):
                self.inner, self.lock = norm_handle(L2), threading.Lock()
                self.calls = self.running = 0

            def bounds(self, U):
                with self.lock:
                    self.calls += 1
                    self.running += 1
                    late = self.calls == 6
                try:
                    time.sleep(0.01)
                    if late:
                        raise LateBlockError
                    return self.inner.bounds(U)
                finally:
                    with self.lock:
                        self.running -= 1

        h = Failing()
        pts = optimize.ball_points(ODD, 8, norm_handle(L2))
        assert len(blocks._row_blocks(*pts.shape)) > blocks._SERIAL_BLOCKS
        # ball_points calls the handle once per chunk: the sixth call scales
        # a late one of CHUNKED's ten
        assert -(-CHUNKED.n_samples // optimize._DRAW_ROWS) > blocks._SERIAL_BLOCKS
        with pytest.raises(LateBlockError):
            if where == "sample":
                ehrling._sample(h, h, h, pts)
            else:
                optimize.ball_points(CHUNKED, 8, h)
        calls = h.calls
        assert h.running == 0
        time.sleep(0.1)
        assert h.calls == calls  # no cancelled block started later

    def test_dense_verify_on_the_worker_builds_each_member_once(self, monkeypatch):
        monkeypatch.setattr(blocks, "_BLOCK_BYTES", SMALLEST_BLOCK)
        built = Counter()
        raw = spaces._dense_raw_vector

        def counted(k):  # slow, so a second thread building the prefix meets it
            built[k] += 1
            time.sleep(0.001)
            return raw(k)

        monkeypatch.setattr(spaces, "_dense_raw_vector", counted)
        T = gallery(32)["dense"]
        assert len(blocks._row_blocks(ODD.n_samples + 32, 32)) > blocks._SERIAL_BLOCKS
        verify_certificate(T, L2, DualFamily(mode="dense-rational", space=L2), 10.0, 1.0,
                           sampler=ODD)
        assert len(built) == optimize.ENCLOSURE_TERMS
        assert set(built.values()) == {1}

    def test_a_nested_call_from_a_worker_block_runs_every_inner_block(self, monkeypatch):
        monkeypatch.setattr(blocks, "_SERIAL_BLOCKS", 0)
        slices = [slice(i, i + 1) for i in range(6)]
        inner_calls = Counter()

        def inner(s):
            inner_calls[s.start] += 1

        def outer(s):
            if threading.current_thread() is not caller:
                blocks._each_block(inner, slices)

        # on a helper thread, so that a deadlock fails the test instead of
        # hanging it
        caller = threading.Thread(target=blocks._each_block, args=(outer, slices),
                                  daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        # each of the three worker blocks runs all six inner blocks once
        assert inner_calls == {s.start: len(slices[1::2]) for s in slices}

    # blocks 2 and 3 run on the caller and on the worker
    @pytest.mark.parametrize("fails", [None, 2, 3], ids=["normal", "caller", "worker"])
    def test_a_threaded_call_leaves_no_thread_behind(self, fails, monkeypatch):
        monkeypatch.setattr(blocks, "_SERIAL_BLOCKS", 0)
        slices = [slice(i, i + 1) for i in range(6)]
        ran = set()

        class BlockError(Exception):
            pass

        def block(s):
            ran.add(s.start)
            if s.start == fails:
                raise BlockError
            time.sleep(0.1 * (s.start % 2))  # the worker's blocks are slow

        before = threading.active_count()
        if fails is None:
            blocks._each_block(block, slices)
        else:
            with pytest.raises(BlockError):
                blocks._each_block(block, slices)
        assert threading.active_count() == before
        # a caller error cancels the worker's blocks that have not started
        if fails == 2:
            assert {0, 2} <= ran and not {3, 4, 5} & ran
        else:
            assert ran == set(range(6))

    def test_concurrent_callers_get_identical_values(self, monkeypatch):
        # four callers, more than the cores of a small machine, each with a
        # worker of its own; a short switch interval interleaves them
        monkeypatch.setattr(blocks, "_BLOCK_BYTES", SMALLEST_BLOCK)
        monkeypatch.setattr(blocks, "_SERIAL_BLOCKS", 0)
        fam = DualFamily(mode="dense-rational", space=L2)
        h1 = norm_handle(L2)

        def job():
            pts = optimize.ball_points(CHUNKED, 8, h1)
            lo, hi = veryweak.very_weak_norm_batch(fam, pts[:ODD.n_samples], tau=1e-10)
            return pts.tobytes(), lo.tobytes(), hi.tobytes()

        expected, results = job(), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(job()), daemon=True)
                       for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4

    def test_a_forked_child_runs_a_threaded_verify(self):
        # in a fresh interpreter, so both processes also exit the normal way,
        # through the executor's exit hook; a hung child ends by SIGALRM
        script = """if True:
            import os, signal, sys
            from ehrlab import (DualFamily, NormSpec, SamplerSettings, blocks, make_kernel,
                                verify_certificate)
            blocks._BLOCK_BYTES, blocks._SERIAL_BLOCKS = 1, 0
            L2 = NormSpec.lp(2)
            T = make_kernel([[2.0 ** -abs(i - j) for j in range(8)] for i in range(8)],
                            0.125, L2, L2)

            def report():
                rep = verify_certificate(T, L2, DualFamily(mode="coordinate", space=L2),
                                         10.0, 1.0, sampler=SamplerSettings(1028, seed=3))
                return rep.as_dict(), rep.worst.coeffs.tobytes()

            expected = report()
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                sys.exit(0 if report() == expected else 3)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """
        paths = [str(Path(optimize.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(q for q in paths if q))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# certify: the full pipeline
# ---------------------------------------------------------------------------

class TestCertify:
    def setup_method(self):
        lam = [2.0 ** (-k + 1) for k in range(1, 17)]
        self.T = make_diagonal(lam, L2, L2)
        self.fam = DualFamily(mode="coordinate", space=L2)

    def test_rows_sorted_and_monotone(self):
        cert = certify(self.T, L2, self.fam)
        eps_list = [r.eps for r in cert.rows]
        assert eps_list == sorted(eps_list, reverse=True)
        for a, b in zip(cert.rows, cert.rows[1:]):
            assert b.C >= a.C - 1e-8  # C grows as eps shrinks

    def test_all_rows_verify(self):
        cert = certify(self.T, L2, self.fam)
        for row in cert.rows:
            assert row.residual <= 0.0
            rep = verify_certificate(self.T, L2, self.fam, row.eps, row.C,
                                     sampler=SamplerSettings(n_samples=3000))
            assert rep.passed, f"eps={row.eps}: residual {rep.max_residual}"

    def test_certificate_serialization(self):
        cert = certify(self.T, L2, self.fam, eps_grid=(1.0, 0.5), opt=FAST)
        d = cert.as_dict()
        assert [r["eps"] for r in d["rows"]] == [1.0, 0.5]
        assert d["norm1"] == "lp(2)"
        assert cert.rows[1].C == d["rows"][1]["C"]

    def test_dense_certify_builds_each_member_once(self, monkeypatch):
        # every dense-mode evaluation reads the family's cached prefix matrix
        calls = []
        real = DualFamily.functional
        monkeypatch.setattr(DualFamily, "functional",
                            lambda fam, k: calls.append(k) or real(fam, k))
        fam = DualFamily(mode="dense-rational", space=L2)
        certify(self.T, L2, fam, eps_grid=(1.0, 0.5), opt=FAST)
        assert sorted(calls) == list(range(1, len(calls) + 1))

    def test_duplicate_eps_collapsed(self):
        cert = certify(self.T, L2, self.fam, eps_grid=(0.5, 0.5, 1.0), opt=FAST)
        assert [r.eps for r in cert.rows] == [1.0, 0.5]

    def test_rejects_empty_grid(self):
        for grid in ((), iter(())):
            with pytest.raises(ToleranceError):
                certify(self.T, L2, self.fam, eps_grid=grid)
        # a one-shot grid is read once, so it is not mistaken for an empty one
        cert = certify(self.T, L2, self.fam, eps_grid=iter([0.5]), opt=FAST)
        assert [r.eps for r in cert.rows] == [0.5]
        identity = make_diagonal([1.0] * 4, L2, L2)
        cert = three_space_certificate(identity, identity, iter([0.5]), opt=FAST)
        assert [r.eps for r in cert.rows] == [0.5]


class TestHardening:
    """A modulus the search overestimates is shrunk by hardening until the
    attack and the verification both come back empty."""

    @staticmethod
    def certify_inflated(monkeypatch, harden_rounds):
        # every searched delta is made 4x too large, so the first rounds fail
        real = ehrling.bisect_modulus
        inflated = []

        def inflate(*args):
            out = [(4.0 * delta, pool) for delta, pool in real(*args)]
            inflated.extend(delta for delta, _ in out)
            return out

        monkeypatch.setattr(ehrling, "bisect_modulus", inflate)
        T = make_diagonal([2.0 ** (1 - k) for k in range(1, 9)], L2, L2)
        opt = OptimizerSettings(n_starts=16, iterations=20, polish_rounds=10,
                                harden_rounds=harden_rounds)
        cert = certify(T, L2, DualFamily(mode="coordinate", space=L2), (0.5, 0.125),
                       opt=opt, sampler=SamplerSettings(n_samples=2000))
        return cert.rows, inflated

    def test_inflated_moduli_shrink_until_the_rows_verify(self, monkeypatch):
        rows, inflated = self.certify_inflated(monkeypatch, 8)
        for row, delta in zip(rows, inflated):
            k = round(math.log(row.delta / delta) / math.log(0.8))
            assert k >= 1, (row, delta)
            assert row.delta == pytest.approx(delta * 0.8 ** k, rel=1e-12)
            assert row.C == pytest.approx(row.eps / row.delta, rel=1e-12)
            assert row.residual <= 0.0, row

    def test_without_hardening_the_inflated_rows_fail(self, monkeypatch):
        rows, _ = self.certify_inflated(monkeypatch, 0)
        assert [r.residual for r in rows] == [pytest.approx(0.25, abs=1e-3),
                                              pytest.approx(0.625, abs=1e-3)]


# ---------------------------------------------------------------------------
# optimal_constant
# ---------------------------------------------------------------------------

class TestOptimalConstant:
    def test_zero_operator(self):
        Z = make_diagonal([0.0, 0.0, 0.0], L2, L2)
        res = optimal_constant(Z, L2, COORD3, 0.5, opt=FAST)
        assert res.value == 0.0

    @pytest.mark.parametrize("a,eps,want", [
        (3.0, 1.0, 2.0), (0.5, 1.0, 0.0), (2.0, 0.5, 1.5),
    ])
    def test_scalar_closed_form(self, a, eps, want):
        T = make_diagonal([a], L2, L2)
        res = optimal_constant(T, L2, L2, eps, opt=FAST)
        assert res.value == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_matches_grid_oracle(self, eps):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        res = optimal_constant(T, L2, COORD3, eps,
                               opt=OptimizerSettings(dim=3))
        want = oracle_optimal_constant(GALLERY_LAM3, eps)
        assert res.value == pytest.approx(want, rel=1e-2)

    def test_nonincreasing_in_eps(self):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        c_half = optimal_constant(T, L2, COORD3, 0.5, opt=FAST).value
        c_quarter = optimal_constant(T, L2, COORD3, 0.25, opt=FAST).value
        assert c_quarter >= c_half - 1e-9

    def test_objective_scale_invariance_at_witness(self):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        res = optimal_constant(T, L2, COORD3, 0.5, opt=FAST)
        u = res.witness
        assert u is not None

        def ratio(v: Element) -> float:
            num = norm(L2, Element(apply_batch(T, v.coeffs)[0])) - 0.5 * norm(L2, v)
            den = very_weak_norm(COORD3, v, tau=1e-12).lo
            return num / den

        assert ratio(u) == pytest.approx(ratio(3.0 * u), rel=1e-12)

    def test_constructive_constant_dominates_sharp_one(self):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        for eps in (0.5, 0.25):
            constructive = eps / modulus(T, L2, COORD3, eps, OptimizerSettings(), 3)
            sharp = optimal_constant(T, L2, COORD3, eps,
                                     opt=OptimizerSettings(dim=3)).value
            assert constructive >= sharp - 1e-6


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------

class TestFalsify:
    def test_shift_witness_with_exact_residual(self):
        T = make_shift(L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        w = falsify(T, L2, fam, 0.5, 1e4, opt=OptimizerSettings(dim=32))
        assert w is not None
        assert w.note == "basis direction e_15"
        assert w.residual == 1.0 - 0.5 - 1e4 * 2.0 ** (-15)
        assert w.lower_bound_on_C > 1e4
        assert norm(L2, w.u) <= 1.0 + 1e-12

    def test_shift_searches_the_default_truncation(self):
        # the shift carries no dimension, so without opt.dim the search runs
        # in 16 coordinates; e_15 is the first direction that forces C > 1e4
        small = OptimizerSettings(n_starts=4, iterations=4, polish_rounds=2)
        w = falsify(make_shift(L2, L2), L2, DualFamily(mode="coordinate", space=L2),
                    0.5, 1e4, opt=small)
        assert (w.u.dim, w.note) == (16, "basis direction e_15")

    def test_compact_diagonal_not_found(self):
        lam = [2.0 ** (-k) for k in range(1, 33)]
        T = make_diagonal(lam, L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        assert falsify(T, L2, fam, 0.5, 1e4, opt=OptimizerSettings(dim=32)) is None

    def test_zero_operator_not_found(self):
        Z = make_diagonal([0.0] * 4, L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        assert falsify(Z, L2, fam, 0.5, 10.0, opt=FAST) is None

    def test_witness_forces_constant_above_cap(self):
        # evaluating the inequality at the witness contradicts any C <= C_max
        T = make_shift(L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        w = falsify(T, L2, fam, 0.5, 1e4, opt=OptimizerSettings(dim=32))
        u = w.u
        lhs = norm(L2, Element(apply_batch(T, u.coeffs)[0]))
        rhs = 0.5 * norm(L2, u) + 1e4 * very_weak_norm(fam, u, tau=1e-15).hi
        assert lhs > rhs

    def test_converse_coherence_on_the_gallery(self):
        # witness at eps for every tested cap <=> no modulus (floored search)
        fam = DualFamily(mode="coordinate", space=L2)
        shift = make_shift(L2, L2)
        opt = OptimizerSettings(dim=16, delta_floor=1e-2)
        for c_max in (10.0, 1e3):
            assert falsify(shift, L2, fam, 0.5, c_max, opt=opt) is not None
        with pytest.raises(NoModulusError):
            modulus(shift, L2, fam, 0.5, opt, 16)

        compact = make_diagonal([2.0 ** (-k) for k in range(1, 17)], L2, L2)
        assert falsify(compact, L2, fam, 0.5, 1e3, opt=opt) is None
        assert modulus(compact, L2, fam, 0.5, opt, 16) > 0.0


class TestHandles:
    """A dense enclosure's term count is the constant optimize.ENCLOSURE_TERMS."""

    def test_building_handles_runs_no_search(self, monkeypatch):
        calls = []
        real = optimize.maximize_direction

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "maximize_direction", spy)
        monkeypatch.setattr(ehrling, "maximize_direction", spy)
        fam = DualFamily(mode="coordinate", space=L2)
        shift = make_shift(L2, L2)
        opt = OptimizerSettings(dim=16)
        verify_certificate(shift, L2, fam, 0.5, 1e3,
                           sampler=SamplerSettings(n_samples=200), opt=opt)
        assert falsify(shift, L2, fam, 0.5, 1e3, opt=opt) is not None
        dense = DualFamily("dense-rational", L2)
        verify_certificate(shift, L2, dense, 0.5, 1e3,
                           sampler=SamplerSettings(n_samples=200), opt=opt)
        assert calls == []
        assert norm_handle(dense).terms == optimize.ENCLOSURE_TERMS == 35


class TestSharedQuotients:
    """The searches share optimize.ratio_objective; each keeps its meaning."""

    @pytest.mark.parametrize("mode", ["coordinate", "dense-rational"])
    @pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel"])
    def test_attack_value_is_the_sphere_residual(self, kind, mode):
        # (hy - eps h1 - C h2.lo) / h1 at v is hy(W) - eps - C h2.lo(W) at
        # W = v / h1(v), the PASS residual on the h1 unit sphere
        h1, h2, hy = ehrling._handles(gallery()[kind], L2, DualFamily(mode=mode, space=L2))
        eps, C = 0.25, 3.0
        objective, _, _ = ehrling._attack(hy, h1, h2, eps, C, None)
        rng = np.random.default_rng(7)
        V = rng.standard_normal((40, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1))
        W = V / h1.hi(V)[:, None]
        np.testing.assert_allclose(objective(V), hy.hi(W) - eps - C * h2.lo(W),
                                   rtol=1e-12)

    def test_witness_sharp_and_certified_constants_are_ordered(self):
        # on every verified row: a witness's lower bound <= the estimated
        # sharp constant <= the certified C. The witness recomputes its bound
        # at the h1-unit point, which matches the search's batch value only to
        # rounding: on the kernel's eps = 1 row both searches end at the same
        # direction and the two read 1 ulp apart
        checked = 0
        for T in gallery().values():
            for p in (2, 3):
                fam = DualFamily(mode="coordinate", space=NormSpec.lp(p))
                for row in certify(T, L2, fam, opt=FAST).rows:
                    if not row.residual <= 0.0:
                        continue
                    oc = optimal_constant(T, L2, fam, row.eps, opt=FAST).value
                    w = falsify(T, L2, fam, row.eps, max(oc / 2.0, 1e-9), opt=FAST)
                    assert w is None or w.lower_bound_on_C <= oc * (1.0 + 1e-12), (row, oc, w)
                    assert oc <= row.C, (row, oc)
                    checked += 1
        assert checked == 30


class _OneRowLow(NormHandle):
    """Wraps hy so that one-row inputs, the witness recomputation, read half
    of what the batches the search decides from read (only for rows whose
    largest entry sits at a coordinate in axes, when axes is given)."""

    def __init__(self, inner, axes=None):
        self.inner, self.axes, self.label = inner, axes, inner.label

    def bounds(self, U):
        lo, hi = self.inner.bounds(U)
        if len(U) == 1 and (self.axes is None
                            or int(np.argmax(np.abs(U[0]))) in self.axes):
            return 0.5 * lo, 0.5 * hi
        return lo, hi

    def lo_grad(self, U):
        return self.inner.lo_grad(U)

    def hi_grad(self, U):
        return self.inner.hi_grad(U)


class TestWitnessConsistency:
    """A witness is returned only when its own reported values show the
    violation, not merely the batch values the search decided from."""

    @staticmethod
    def lower_one_row_hy(monkeypatch, axes=None):
        real = ehrling._handles

        def handles(*args):
            h1, h2, hy = real(*args)
            return h1, h2, _OneRowLow(hy, axes)

        monkeypatch.setattr(ehrling, "_handles", handles)

    def test_verify_drops_an_unconfirmed_witness(self, monkeypatch):
        self.lower_one_row_hy(monkeypatch)
        fam = DualFamily(mode="coordinate", space=L2)
        rep = verify_certificate(make_shift(L2, L2), L2, fam, eps=0.5, C=1.0,
                                 sampler=SamplerSettings(n_samples=200),
                                 opt=OptimizerSettings(dim=8))
        assert not rep.passed
        assert rep.witness is None

    def test_falsify_basis_scan_moves_to_the_next_direction(self, monkeypatch):
        # e_2 is the first basis direction past c_max = 1, but its
        # recomputed residual is negative; e_3 confirms
        self.lower_one_row_hy(monkeypatch, axes={1})
        fam = DualFamily(mode="coordinate", space=L2)
        w = falsify(make_shift(L2, L2), L2, fam, 0.5, 1.0,
                    opt=OptimizerSettings(dim=8))
        assert w.note == "basis direction e_3"
        assert w.residual > 0.0
        assert w.lower_bound_on_C > 1.0

    def test_falsify_drops_unconfirmed_witnesses(self, monkeypatch):
        self.lower_one_row_hy(monkeypatch)
        fam = DualFamily(mode="coordinate", space=L2)
        assert falsify(make_shift(L2, L2), L2, fam, 0.5, 1.0,
                       opt=replace(FAST, dim=8)) is None


# ---------------------------------------------------------------------------
# reverse certificate
# ---------------------------------------------------------------------------

class TestReverse:
    def test_identity_passes(self):
        T = make_diagonal([1.0, 1.0, 1.0], L2, L2)
        row = reverse_certificate(T, COORD3, 0.5, opt=FAST)
        assert row.method == "reverse"
        assert row.residual <= 0.0
        # domination makes the inequality hold with C = 1 at any eps, so the
        # constructive constant cannot be wildly larger
        assert row.C <= 2.0

    def test_gallery_diagonal_verifies_on_samples(self):
        T = make_diagonal(GALLERY_LAM3, L2, L2)
        row = reverse_certificate(T, COORD3, 0.5,
                                  opt=OptimizerSettings(dim=3))
        rng = np.random.default_rng(11)
        worst = -math.inf
        for _ in range(2000):
            u = Element(rng.standard_normal(3))
            lhs = very_weak_norm(COORD3, u, tau=1e-12).hi
            rhs = 0.5 * norm(L2, u) + row.C * norm(L2, Element(apply_batch(T, u.coeffs)[0]))
            worst = max(worst, lhs - rhs)
        assert worst <= 1e-8

    def test_non_injective_rejected(self):
        T = make_diagonal([1.0, 0.5, 0.0], L2, L2)
        with pytest.raises(NonInjectiveError):
            reverse_certificate(T, COORD3, 0.5, opt=FAST)

    def test_non_reflexive_model_rejected(self):
        T = make_diagonal([1.0, 0.5, 0.25], NormSpec.lp(1), L2)
        fam = DualFamily(mode="coordinate", space=NormSpec.lp(1))
        with pytest.raises(UnsupportedNormError):
            reverse_certificate(T, fam, 0.5, opt=FAST)


# ---------------------------------------------------------------------------
# three-space certificate
# ---------------------------------------------------------------------------

class TestThreeSpace:
    def test_identity_collapse_gives_unit_constant(self):
        theta = make_diagonal([1.0] * 4, L2, L2)
        tau_op = make_diagonal([1.0] * 4, L2, L2)
        cert = three_space_certificate(theta, tau_op, (1.0, 0.5), opt=FAST)
        for row in cert.rows:
            assert row.C == pytest.approx(1.0, rel=5e-3)
            assert row.residual <= 0.0

    def test_sobolev_chain_rows_verify(self):
        theta = make_sobolev_embedding(8, 1.0 / 3.0)
        w = [2.0 ** (-k) for k in range(1, 9)]
        tau_op = make_diagonal([1.0] * 8, L2, NormSpec.weighted_lp(2, w))
        cert = three_space_certificate(theta, tau_op, (1.0, 0.5, 0.25))
        Cs = [r.C for r in cert.rows]
        assert Cs[0] < Cs[1] < Cs[2]
        for row in cert.rows:
            assert row.residual <= 0.0

    def test_weight_scaling_rescales_constants_exactly(self):
        theta = make_sobolev_embedding(6, 0.5)
        w = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
        tau1 = make_diagonal([1.0] * 6, L2, NormSpec.weighted_lp(2, w))
        tau4 = make_diagonal([1.0] * 6, L2, NormSpec.weighted_lp(2, 4.0 * w))
        c1 = three_space_certificate(theta, tau1, (1.0, 0.5), opt=FAST)
        c4 = three_space_certificate(theta, tau4, (1.0, 0.5), opt=FAST)
        for r1, r4 in zip(c1.rows, c4.rows):
            assert r1.C == 4.0 * r4.C

    def test_dimension_mismatch_rejected(self):
        theta = make_shift(L2, L2)  # output dim grows by one
        tau_op = make_dense([[1.0, 0.0], [0.0, 1.0]], L2, L2)
        with pytest.raises(DimensionMismatchError):
            three_space_certificate(theta, tau_op, (0.5,),
                                    opt=OptimizerSettings(dim=2))

    def test_certificate_implies_operator_bound(self):
        # with kappa = sup norm2/norm1 over samples, a row gives
        # ||T u|| <= (eps + C kappa) ||u||_1 on those samples
        theta = make_sobolev_embedding(8, 1.0 / 3.0)
        w = [2.0 ** (-k) for k in range(1, 9)]
        tau_op = make_diagonal([1.0] * 8, L2, NormSpec.weighted_lp(2, w))
        cert = three_space_certificate(theta, tau_op, (0.5,), opt=FAST)
        row = cert.rows[0]

        rng = np.random.default_rng(13)
        zn = NormSpec.weighted_lp(2, w)
        kappa = 0.0
        pts = [Element(rng.standard_normal(8)) for _ in range(500)]
        for u in pts:
            kappa = max(kappa, norm(zn, u) / norm(theta.domain, u))
        bound = row.eps + row.C * kappa
        for u in pts:
            image = Element(apply_batch(theta, u.coeffs)[0])
            assert norm(L2, image) <= bound * norm(theta.domain, u) + 1e-9
