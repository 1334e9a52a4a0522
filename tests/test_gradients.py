"""Closed-form subgradients of the search objectives, checked against central
differences (the only place finite differences appear).

Handles are checked piece by piece: every strong norm kind, both family
modes (lo and hi), every operator repr. The search objectives are captured
from the real callers by a spy on the search (optimize._maximize_group,
which maximize_direction and every grouped search run through), so each one is checked
exactly as certify, optimal_constant, falsify, reverse_certificate and
three_space_certificate build it. Points are seeded Gaussian directions,
which lie away from the kinks (sign changes, argmax ties, the min in the
restricted sup) with probability one.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ehrlab import (
    DualFamily,
    NormSpec,
    OptimizerSettings,
    certify,
    falsify,
    make_dense,
    make_diagonal,
    make_kernel,
    make_shift,
    make_sobolev_embedding,
    optimal_constant,
    reverse_certificate,
    three_space_certificate,
)
from ehrlab import ehrling, optimize
from ehrlab.cli import load_scenario, run
from ehrlab.optimize import norm_handle, operator_handle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
L2 = NormSpec.lp(2)
RTOL = 1e-5
STEP = 1e-6
TINY = OptimizerSettings(n_starts=4, iterations=3, polish_rounds=1, harden_rounds=2)


def central_difference(f, V: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a batched scalar map at each row of V."""
    n, d = V.shape
    E = STEP * np.eye(d)
    P = np.concatenate([(V[:, None, :] + E).reshape(-1, d),
                        (V[:, None, :] - E).reshape(-1, d)])
    vals = f(P)
    return (vals[: n * d] - vals[n * d:]).reshape(n, d) / (2.0 * STEP)


def assert_gradient(f, fg, V: np.ndarray, what: str) -> int:
    """fg's values equal f's bit for bit; its gradients match central
    differences at rel tol 1e-5 on every row with a finite value.
    Returns the number of rows checked."""
    vals, G = fg(V)
    assert np.array_equal(vals, f(V)), f"{what}: values differ from the objective's"
    ok = np.isfinite(vals)
    Gfd = central_difference(f, V[ok])
    for g, gfd in zip(G[ok], Gfd):
        err = np.linalg.norm(g - gfd)
        assert err <= RTOL * max(np.linalg.norm(gfd), 1e-8), (
            f"{what}: |G - FD| = {err:.3g}, |FD| = {np.linalg.norm(gfd):.3g}")
    return int(ok.sum())


def directions(d: int, n: int = 6, seed: int = 0) -> np.ndarray:
    V = np.random.default_rng(seed).standard_normal((n, d))
    return V / np.linalg.norm(V, axis=1)[:, None]


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------

WEIGHTS = 2.0 ** -np.arange(1, 9)
STRONG = {
    "lp1": NormSpec.lp(1),
    "lp1.5": NormSpec.lp(1.5),
    "lp2": L2,
    "lp3": NormSpec.lp(3),
    "lpinf": NormSpec.lp(float("inf")),
    "weighted-lp2": NormSpec.weighted_lp(2, WEIGHTS),
    "weighted-lp3": NormSpec.weighted_lp(3, WEIGHTS),
    "sobolev-h1": NormSpec.sobolev_h1(1.0 / 3.0),
}


@pytest.mark.parametrize("name", sorted(STRONG))
def test_strong_norm_gradients(name):
    h = norm_handle(STRONG[name])
    V = 1.7 * directions(8, seed=1)
    assert assert_gradient(h.lo, h.lo_grad, V, name) == len(V)
    assert assert_gradient(h.hi, h.hi_grad, V, name) == len(V)


FAMILIES = {
    "coordinate-lp2": DualFamily(mode="coordinate", space=L2),
    "coordinate-weighted": DualFamily(mode="coordinate",
                                      space=NormSpec.weighted_lp(2, WEIGHTS)),
    "coordinate-h1": DualFamily(mode="coordinate",
                                space=NormSpec.sobolev_h1(0.25), dim=8),
    "dense-lp2": DualFamily(mode="dense-rational", space=L2),
    "dense-lp3": DualFamily(mode="dense-rational", space=NormSpec.lp(3)),
    "dense-h1": DualFamily("dense-rational", NormSpec.sobolev_h1(0.25), dim=8),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_enclosure_gradients(name, monkeypatch):
    # 12 terms keep the dense tail term 2^-M * grad R visible; at
    # optimize.ENCLOSURE_TERMS it would be 2^-35 * grad R, below the check's noise
    monkeypatch.setattr(optimize, "ENCLOSURE_TERMS", 12)
    h = norm_handle(FAMILIES[name])
    V = directions(8, seed=2)
    assert assert_gradient(h.lo, h.lo_grad, V, name + " lo") == len(V)
    assert assert_gradient(h.hi, h.hi_grad, V, name + " hi") == len(V)


@pytest.mark.parametrize("obj", [NormSpec.lp(1), FAMILIES["coordinate-lp2"],
                                 FAMILIES["dense-lp2"]],
                         ids=["lp1", "coordinate", "dense"])
def test_kinks_take_the_one_sided_derivative_along_plus_e_j(obj, monkeypatch):
    """On axis rows (-0.0 entries included) every zero coordinate or
    vanishing pairing is a kink; the gradient there is the forward derivative."""
    monkeypatch.setattr(optimize, "ENCLOSURE_TERMS", 36)
    h = norm_handle(obj)
    V = np.vstack([np.eye(5), -np.eye(5)])
    lo, G = h.lo_grad(V)
    E = STEP * np.eye(5)
    Gfd = (h.lo((V[:, None, :] + E).reshape(-1, 5)).reshape(10, 5) - lo[:, None]) / STEP
    np.testing.assert_allclose(G, Gfd, rtol=RTOL, atol=RTOL * np.abs(Gfd).max())


def test_coordinate_gradient_takes_plus_w_at_minus_zero_and_nan():
    """The coordinate-mode gradient is -w_j only where u_j < 0: a -0.0 entry
    is a kink and takes +w_j, and so does a NaN entry."""
    fam = FAMILIES["coordinate-lp2"]
    U = np.array([[-0.0, np.nan, -1.0, 2.0, 0.0, -np.inf]])
    w = fam.coordinate_weights(6)
    G = norm_handle(fam)._lo_gradient(U)
    assert G.tobytes() == (w * [1.0, 1.0, -1.0, 1.0, 1.0, -1.0]).reshape(1, 6).tobytes()


def _operators(d: int):
    rng = np.random.default_rng(3)
    K = np.exp(-np.abs(np.subtract.outer(np.arange(d), np.arange(d))) / 3.0)
    return {
        "diagonal": make_diagonal(2.0 ** -np.arange(d), L2, NormSpec.lp(3)),
        "dense": make_dense(rng.standard_normal((d + 2, d)), L2, L2),
        "kernel": make_kernel(K, 0.5, L2, NormSpec.weighted_lp(2, 2.0 ** -np.arange(1, d + 1))),
        "shift": make_shift(L2, NormSpec.lp(1.5)),
    }


@pytest.mark.parametrize("kind", ["diagonal", "dense", "kernel", "shift"])
def test_operator_norm_gradients_through_the_adjoint(kind):
    T = _operators(8)[kind]
    assert T.repr_kind == kind
    h = operator_handle((T,), T.codomain)
    V = directions(7 if kind == "shift" else 8, seed=4)
    assert assert_gradient(h.hi, h.hi_grad, V, kind) == len(V)


def test_composed_three_space_norm_gradient():
    theta = make_sobolev_embedding(8, 1.0 / 3.0)
    tau_op = make_diagonal(np.linspace(1.0, 0.2, 8), L2, NormSpec.weighted_lp(2, WEIGHTS))
    h = operator_handle((theta, tau_op), tau_op.codomain)
    V = directions(8, seed=5)
    assert assert_gradient(h.lo, h.lo_grad, V, "composed") == len(V)


# ---------------------------------------------------------------------------
# search objectives, captured from their callers
# ---------------------------------------------------------------------------

@pytest.fixture
def searches(monkeypatch):
    """Every (caller, objective, value_and_grad, dim, extra_starts) handed to
    the search, one per problem of a grouped search; a lone search is
    credited to the caller of maximize_direction."""
    seen = []
    real = optimize._maximize_group

    def spy(problems, dim, opt):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "maximize_direction":
            frame = frame.f_back
        seen.extend((frame.f_code.co_name, f, fg, dim, extra) for f, fg, extra in problems)
        return real(problems, dim, opt)

    monkeypatch.setattr(optimize, "_maximize_group", spy)
    monkeypatch.setattr(ehrling, "_maximize_group", spy)
    return seen


def check_searches(seen, expected_callers):
    callers = {caller for caller, *_ in seen}
    assert set(expected_callers) <= callers, callers
    checked = 0
    for i, (caller, f, fg, dim, _) in enumerate(seen):
        checked += assert_gradient(f, fg, directions(dim, n=3, seed=i), caller)
    assert checked > 0


def test_certify_objectives(searches):
    d = 10
    ops = _operators(d)
    certify(ops["diagonal"], NormSpec.lp(3), DualFamily(mode="coordinate", space=L2),
            eps_grid=(0.5, 0.25), opt=TINY)
    certify(ops["dense"], L2, DualFamily(mode="coordinate", space=L2),
            eps_grid=(0.5,), opt=TINY)
    # the first dense functional touching coordinate 3 is phi_47, beyond the
    # enclosure's terms, so the dense family needs d = 2 to have a modulus
    certify(make_diagonal([1.0, 0.5], L2, L2), L2,
            DualFamily(mode="dense-rational", space=L2), eps_grid=(0.5,), opt=TINY)
    certify(ops["kernel"], NormSpec.weighted_lp(2, np.linspace(1.0, 2.0, d)),
            DualFamily(mode="coordinate", space=NormSpec.lp(1.5)), eps_grid=(0.5,), opt=TINY)
    check_searches(searches, ["bisect_modulus", "_restricted_sup", "_restricted_sups",
                              "_certify_rows"])


def test_sharp_constant_and_falsify_objectives(searches):
    lam = 2.0 ** -np.arange(8)
    T = make_diagonal(lam, L2, L2)
    optimal_constant(T, L2, DualFamily(mode="coordinate", space=L2), 0.25, opt=TINY)
    optimal_constant(make_shift(L2, L2), L2, DualFamily(mode="coordinate", space=L2),
                     0.5, opt=OptimizerSettings(n_starts=4, iterations=3,
                                                polish_rounds=1, dim=8))
    assert falsify(T, NormSpec.lp(3), DualFamily(mode="dense-rational", space=L2),
                   0.25, 1e12, opt=TINY) is None
    check_searches(searches, ["optimal_constant", "falsify"])


def test_reverse_and_three_space_objectives(searches):
    T = make_diagonal([1.0, 0.5, 0.25, 0.125], L2, L2)
    for mode in ("coordinate", "dense-rational"):
        reverse_certificate(T, DualFamily(mode=mode, space=L2), 0.5,
                            opt=OptimizerSettings(n_starts=4, iterations=3,
                                                  polish_rounds=1, harden_rounds=2, dim=4))
    # reverse hardens through the shared pipeline: its residual attacks start
    # from the witness pool the bisection collected
    assert any(extra is not None and len(extra)
               for caller, *_, extra in searches if caller == "_certify_rows")
    theta = make_sobolev_embedding(6, 0.25)
    tau_op = make_diagonal([1.0] * 6, L2, NormSpec.weighted_lp(2, 2.0 ** -np.arange(1, 7)))
    three_space_certificate(theta, tau_op, (0.5,), opt=TINY)
    check_searches(searches, ["bisect_modulus", "_restricted_sup", "_restricted_sups",
                              "_certify_rows"])


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------

def test_no_search_evaluates_finite_difference_rows(monkeypatch, tmp_path):
    """Wrap each search problem's objective the way the benchmark tracer
    wraps maximize_direction's and count rows: no call may carry the
    n_starts * dim rows of a finite-difference gradient."""
    calls = []
    real = optimize._maximize_group

    def traced(problems, dim, opt):
        def counted(objective):
            def f(V):
                calls.append((V.shape[0], dim))
                return objective(V)
            return f
        return real([(counted(f), fg, extra) for f, fg, extra in problems], dim, opt)

    monkeypatch.setattr(optimize, "_maximize_group", traced)
    monkeypatch.setattr(ehrling, "_maximize_group", traced)
    run(load_scenario(SCENARIOS / "certify_diag16.json"), output_dir=tmp_path)
    n_starts = OptimizerSettings().n_starts
    assert calls
    assert all(rows < n_starts * dim for rows, dim in calls)


def test_non_finite_rows_get_no_direction():
    """Rows valued inf, or with a NaN gradient, get a zero ascent direction,
    so no non-finite point ever reaches the objective."""
    finite = []

    def f(V):
        finite.append(bool(np.isfinite(V).all()))
        return np.where(V[:, 0] > 0.0, np.inf, -V[:, 1] ** 2)

    def fg(V):
        G = np.zeros_like(V)
        G[:, 1] = np.where(V[:, 0] > 0.0, np.nan, -2.0 * V[:, 1])
        return f(V), G

    val, v = optimize.maximize_direction(f, 4, TINY, value_and_grad=fg)
    assert finite and all(finite)
    assert val == np.inf and v[0] > 0.0


def test_sharp_constant_dominates_the_dense_mode_witness():
    """certify_diag16's operator with a dense-rational family at eps = 1/8:
    lo vanishes on e_3, so the ratio is unbounded and the estimate is inf."""
    T = make_diagonal(2.0 ** -np.arange(16), L2, L2)
    fam = DualFamily(mode="dense-rational", space=L2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = falsify(T, L2, fam, 0.125, 1e4)
        res = optimal_constant(T, L2, fam, 0.125)
    assert w is not None and w.lower_bound_on_C > 1e4
    assert res.approximate
    assert w.lower_bound_on_C <= res.value == np.inf
