"""Operator gallery: actions, labels, and the compact-embedding exemplar."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from ehrlab import (
    DualFamily,
    Element,
    NormSpec,
    apply_batch,
    as_matrix,
    kernel_from_csv,
    make_dense,
    make_diagonal,
    make_kernel,
    make_shift,
    make_sobolev_embedding,
    norm,
    norm_batch,
    operator_from_json,
    very_weak_norm,
)
from ehrlab.errors import DimensionMismatchError, InvalidElementError, UnsupportedNormError
from ehrlab.operators import _adjoint_batch

L2 = NormSpec.lp(2)


def dirichlet_eigenpairs(d: int):
    """Eigen-decomposition of the 3-point stiffness matrix, as oracle."""
    return eigh_tridiagonal(np.full(d, 2.0), np.full(d - 1, -1.0))


class TestApply:
    def test_identity_diagonal(self):
        T = make_diagonal([1.0, 1.0, 1.0], L2, L2)
        u = Element([0.5, -2.0, 3.0])
        assert np.array_equal(apply_batch(T, u.coeffs)[0], u.coeffs)

    def test_diagonal_componentwise(self):
        T = make_diagonal([1.0, 0.5, 0.25], L2, L2)
        assert np.array_equal(apply_batch(T, [0.0, 2.0, 0.0])[0], [0.0, 1.0, 0.0])

    def test_diagonal_shorter_input_zero_extends(self):
        T = make_diagonal([1.0, 0.5, 0.25], L2, L2)
        assert np.array_equal(apply_batch(T, [4.0])[0], [4.0])

    @pytest.mark.parametrize("size", [6, 9, 4], ids=["covers-d", "beyond-d", "short"])
    def test_diagonal_and_adjoint_equal_the_zero_extended_product(self, size):
        # lam covering d takes the one-multiply path; a shorter lam still
        # zero-extends. Either way every bit, and C order, is kept
        rng = np.random.default_rng(1)
        lam = rng.standard_normal(size)
        T = make_diagonal(lam, L2, L2)
        d, m = 6, min(6, size)
        U = rng.standard_normal((5, d))
        U[0, :3] = [-0.0, np.inf, np.nan]
        want = np.zeros((5, d))
        want[:, :m] = U[:, :m] * lam[:m]
        for X in (U, np.asfortranarray(U), np.hstack([U, U])[:, :d]):
            for got in (apply_batch(T, X), _adjoint_batch(T, X, d)):
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_dense_swap(self):
        T = make_dense([[0.0, 1.0], [1.0, 0.0]], L2, L2)
        assert np.array_equal(apply_batch(T, [3.0, 4.0])[0], [4.0, 3.0])

    def test_dense_rejects_oversized_input(self):
        T = make_dense([[1.0, 0.0], [0.0, 1.0]], L2, L2)
        with pytest.raises(DimensionMismatchError):
            apply_batch(T, [1.0, 2.0, 3.0])

    def test_kernel_quadrature_action(self):
        K = [[1.0, 2.0], [3.0, 4.0]]
        T = make_kernel(K, spacing=0.5, domain=L2, codomain=L2)
        assert np.allclose(apply_batch(T, [1.0, 1.0])[0], [0.5 * 3.0, 0.5 * 7.0])

    def test_shift_action(self):
        T = make_shift(L2, L2)
        assert np.array_equal(apply_batch(T, [1.0])[0], [0.0, 1.0])

    @pytest.mark.parametrize("builder", [
        lambda: make_diagonal([1.0, -0.5, 0.25], L2, L2),
        lambda: make_dense([[1.0, 2.0], [0.0, -1.0]], L2, L2),
        lambda: make_kernel([[1.0, 0.5], [0.5, 1.0]], 0.25, L2, L2),
        lambda: make_shift(L2, L2),
    ])
    def test_linearity(self, builder):
        T = builder()
        rng = np.random.default_rng(5)
        for _ in range(10):
            u, v = rng.standard_normal((2, 2))
            a, b = rng.standard_normal(2)
            lhs = apply_batch(T, a * u + b * v)
            rhs = a * apply_batch(T, u) + b * apply_batch(T, v)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_apply_batch_matches_apply(self):
        T = make_kernel([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]],
                        0.5, L2, L2)
        rng = np.random.default_rng(6)
        U = rng.standard_normal((4, 3))
        out = apply_batch(T, U)
        for i in range(4):
            assert np.allclose(out[i], apply_batch(T, U[i])[0])

    def test_as_matrix_reproduces_action(self):
        T = make_shift(L2, L2)
        M = as_matrix(T, 3)
        assert M.shape == (4, 3)
        u = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(M @ u, [0.0, 1.0, 2.0, 3.0])


class TestCcStatusHeuristic:
    """Complete continuity read off the action on basis vectors."""

    def test_cc_diagonal_kills_basis_images(self):
        # the definitional behavior at desk scale: ||T e_n|| -> 0
        lam = [2.0 ** (-k) for k in range(1, 17)]
        T = make_diagonal(lam, L2, L2)
        images = list(norm_batch(L2, apply_batch(T, np.eye(16))))
        assert all(b < a for a, b in zip(images, images[1:]))
        assert images[-1] < 1e-4

    def test_shift_keeps_basis_images_at_one(self):
        # the falsification seed: ||T e_n|| = 1 while |e_n|_Phi -> 0
        T = make_shift(L2, L2)
        fam = DualFamily(mode="coordinate", space=L2)
        for n in (1, 4, 12):
            e = Element(np.eye(12)[n - 1])
            assert norm_batch(L2, apply_batch(T, e.coeffs))[0] == 1.0
            assert very_weak_norm(fam, e, tau=1e-12).hi == 2.0 ** (-n)


class TestShift:
    def test_isometry_on_random_vectors(self):
        T = make_shift(L2, L2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.standard_normal((1, 9))
            assert norm_batch(L2, apply_batch(T, u)) == pytest.approx(norm_batch(L2, u),
                                                                     rel=1e-15)

    def test_basis_images_pairwise_sqrt2_apart(self):
        T = make_shift(L2, L2)
        images = apply_batch(T, np.eye(8))
        for i in range(8):
            for j in range(i + 1, 8):
                assert norm_batch(L2, images[i] - images[j])[0] == pytest.approx(
                    math.sqrt(2.0), rel=1e-15)


class TestSobolevEmbedding:
    def test_identity_coefficients(self):
        T = make_sobolev_embedding(4, 0.5)
        u = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(apply_batch(T, u)[0], u)

    def test_domain_dominates_codomain(self):
        T = make_sobolev_embedding(4, 0.5)
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = Element(rng.standard_normal(4))
            # h*||u||^2 part alone exceeds ||u||_2^2 when h >= 1; for
            # h = 0.5 the derivative part makes up the gap on this grid
            assert norm(T.codomain, u) <= norm(T.domain, u) + 1e-12

    def test_zero_maps_to_zero(self):
        T = make_sobolev_embedding(4, 1.0)
        z = Element(np.zeros(4))
        assert norm(T.domain, z) == 0.0
        assert norm_batch(T.codomain, apply_batch(T, z.coeffs))[0] == 0.0

    def test_first_eigenvector_ratio_h1(self):
        # at unit spacing the h1 norm of a stiffness eigenvector v with
        # eigenvalue mu is sqrt(1 + mu), so the norm ratio is 1/sqrt(1 + mu)
        d = 8
        T = make_sobolev_embedding(d, 1.0)
        mus, vecs = dirichlet_eigenpairs(d)
        v = Element(vecs[:, 0])
        ratio = norm(T.codomain, v) / norm(T.domain, v)
        assert ratio == pytest.approx(1.0 / math.sqrt(1.0 + mus[0]), rel=1e-12)

    @pytest.mark.parametrize("h", [0.25, 0.5, 2.0])
    def test_eigenvector_ratios_general_spacing(self, h):
        # general h: ||v||_h1^2 = h + mu/h for a unit stiffness eigenvector
        d = 6
        T = make_sobolev_embedding(d, h)
        mus, vecs = dirichlet_eigenpairs(d)
        for j in range(d):
            v = Element(vecs[:, j])
            ratio = norm(T.codomain, v) / norm(T.domain, v)
            assert ratio == pytest.approx(1.0 / math.sqrt(h + mus[j] / h),
                                          rel=1e-12)

    def test_eigenmode_images_decay(self):
        # compactness signature at desk scale: normalized high modes have
        # small codomain norm
        d = 12
        T = make_sobolev_embedding(d, 1.0)
        mus, vecs = dirichlet_eigenpairs(d)
        ratios = []
        for j in range(d):
            v = Element(vecs[:, j])
            ratios.append(norm(T.codomain, v) / norm(T.domain, v))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_labels(self):
        T = make_sobolev_embedding(5, 0.5)
        assert T.domain.kind == "sobolev-h1"
        assert T.codomain.kind == "lp"

    def test_invalid_parameters(self):
        with pytest.raises(UnsupportedNormError):
            make_sobolev_embedding(1, 0.5)
        with pytest.raises(UnsupportedNormError):
            make_sobolev_embedding(4, 0.0)


class TestConstructionFromConfig:
    def test_diagonal_json(self):
        T = operator_from_json({"kind": "diagonal", "lambda": [1.0, 0.5]})
        assert np.array_equal(apply_batch(T, [2.0, 2.0])[0], [2.0, 1.0])

    def test_dense_json_with_norms(self):
        T = operator_from_json({
            "kind": "dense", "matrix": [[1.0, 1.0], [0.0, 1.0]],
            "domain": {"kind": "lp", "p": 2},
            "codomain": {"kind": "weighted-lp", "p": 2, "weights": [1.0, 2.0]},
        })
        assert T.codomain.kind == "weighted-lp"

    def test_shift_json(self):
        T = operator_from_json({"kind": "shift"})
        assert np.array_equal(apply_batch(T, [1.0])[0], [0.0, 1.0])

    def test_sobolev_embedding_json(self):
        T = operator_from_json({"kind": "sobolev-embedding", "d": 4, "h": 0.5})
        assert T.domain.kind == "sobolev-h1"

    def test_kernel_csv_roundtrip(self, tmp_path):
        p = tmp_path / "kernel.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        T = kernel_from_csv(p, spacing=0.5, domain=L2, codomain=L2)
        assert np.allclose(apply_batch(T, [1.0, 1.0])[0], [1.5, 3.5])

    def test_kernel_json_inline(self):
        T = operator_from_json({"kind": "kernel",
                                "samples": [[1.0, 0.0], [0.0, 1.0]],
                                "spacing": 2.0})
        assert np.allclose(apply_batch(T, [1.0, 3.0])[0], [2.0, 6.0])

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedNormError):
            operator_from_json({"kind": "unitary"})

    def test_missing_kernel_csv(self, tmp_path):
        with pytest.raises(InvalidElementError, match="not found"):
            kernel_from_csv(tmp_path / "absent.csv", spacing=0.5, domain=L2, codomain=L2)

    def test_ragged_kernel_csv(self, tmp_path):
        p = tmp_path / "kernel.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvalidElementError, match="kernel CSV"):
            kernel_from_csv(p, spacing=0.5, domain=L2, codomain=L2)

    def test_ragged_dense_matrix(self):
        with pytest.raises(InvalidElementError, match="dense matrix"):
            operator_from_json({"kind": "dense", "matrix": [[1.0, 0.0], [0.5]]})

    def test_ragged_kernel_samples(self):
        with pytest.raises(InvalidElementError, match="kernel samples"):
            operator_from_json({"kind": "kernel", "samples": [[1.0, 0.5], [0.5]],
                                "spacing": 0.5})
