"""Core operator algebra: tensor products, partial trace/transpose, negativity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruhkit.errors import LabelError
from unruhkit.qops import (
    DensityOperator,
    FockKet,
    TensorSpace,
    basis_ket,
    negativity,
    partial_trace,
    partial_transpose,
    reduced_density,
    tensor_product,
)

QUBIT_PAIR = TensorSpace((("A", 2), ("B", 2)))


def bell_ket() -> FockKet:
    return FockKet(QUBIT_PAIR, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def random_density(rng, dim: int, rank: int = None) -> np.ndarray:
    rank = rank or dim
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    probs = rng.dirichlet(np.ones(rank))
    mat = sum(p * np.outer(v, v.conj()) / np.vdot(v, v).real for p, v in zip(probs, vecs.T))
    return mat


def random_pure(rng, shape) -> np.ndarray:
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi / np.linalg.norm(psi)


class TestTensorSpace:
    def test_row_major_indexing(self):
        # leftmost factor slowest: amplitude of (i, j, k) sits at (i*d2 + j)*d3 + k
        space = TensorSpace((("a", 2), ("b", 3), ("c", 4)))
        assert space.dim == 24
        assert space.flat_index((1, 2, 3)) == (1 * 3 + 2) * 4 + 3
        ket = basis_ket(space, (1, 0, 2))
        assert ket.amplitudes[1 * 12 + 0 * 4 + 2] == 1.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            TensorSpace((("a", 2), ("a", 3)))

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            QUBIT_PAIR.axis("C")


class TestTensorProduct:
    def test_vacuum_times_vacuum(self):
        a = basis_ket(TensorSpace((("A", 2),)), (0,))
        b = basis_ket(TensorSpace((("B", 2),)), (0,))
        out = tensor_product(a, b)
        assert out.amplitudes[0] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_uniform_times_uniform(self):
        half = np.full(2, 1.0 / np.sqrt(2.0))
        a = FockKet(TensorSpace((("A", 2),)), half)
        b = FockKet(TensorSpace((("B", 2),)), half)
        out = tensor_product(a, b)
        assert np.allclose(out.amplitudes, 0.5)

    def test_density_product_trace(self):
        rng = np.random.default_rng(11)
        rho = DensityOperator(TensorSpace((("A", 2),)), random_density(rng, 2))
        sig = DensityOperator(TensorSpace((("B", 2),)), random_density(rng, 2))
        out = tensor_product(rho, sig)
        # direct multiplication oracle: tr(rho x sigma) = tr(rho) tr(sigma)
        expected = np.trace(rho.matrix) * np.trace(sig.matrix)
        assert abs(np.trace(out.matrix) - expected) < 1e-12
        assert abs(out.trace() - 1.0) < 1e-12

    def test_label_collision(self):
        a = basis_ket(TensorSpace((("A", 2),)), (0,))
        with pytest.raises(LabelError):
            tensor_product(a, a)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = bell_ket().density()
        red = partial_trace(rho, ["A"])
        assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        rho = DensityOperator(TensorSpace((("A", 3),)), random_density(rng, 3))
        sig = DensityOperator(TensorSpace((("B", 2),)), random_density(rng, 2))
        red = partial_trace(tensor_product(rho, sig), ["A"])
        assert np.allclose(red.matrix, rho.matrix, atol=1e-14)

    def test_schmidt_spectra_match(self):
        # both reductions of a pure state share their nonzero spectrum; the
        # oracle is an SVD of the amplitude matrix, independent of the
        # einsum-based partial trace
        rng = np.random.default_rng(42)
        space = TensorSpace((("A", 2), ("B", 3)))
        psi = random_pure(rng, (2, 3))
        ket = FockKet(space, psi.ravel())
        red_a = partial_trace(ket.density(), ["A"])
        red_b = partial_trace(ket.density(), ["B"])
        schmidt = np.linalg.svd(psi, compute_uv=False) ** 2
        eig_a = np.sort(np.linalg.eigvalsh(red_a.matrix))[::-1]
        eig_b = np.sort(np.linalg.eigvalsh(red_b.matrix))[::-1]
        assert np.allclose(eig_a[:2], schmidt, atol=1e-12)
        assert np.allclose(eig_b[:2], schmidt, atol=1e-12)
        assert np.allclose(eig_b[2:], 0.0, atol=1e-12)

    def test_pure_state_shortcut_matches_full_trace(self):
        rng = np.random.default_rng(3)
        space = TensorSpace((("M", 2), ("I", 4), ("II", 3)))
        ket = FockKet(space, random_pure(rng, space.dim))
        for keep in (["M", "I"], ["II"], ["I", "M"]):
            direct = reduced_density(ket, keep)
            full = partial_trace(ket.density(), keep)
            assert np.allclose(direct.matrix, full.matrix, atol=1e-13)

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(8)
        space = TensorSpace((("A", 2), ("B", 3)))
        ket = FockKet(space, random_pure(rng, space.dim))
        ab = reduced_density(ket, ["A", "B"]).matrix
        ba = reduced_density(ket, ["B", "A"]).matrix
        perm = ab.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
        assert np.allclose(ba, perm, atol=1e-14)


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(2)
        rho = DensityOperator(TensorSpace((("A", 2),)), random_density(rng, 2))
        sig = DensityOperator(TensorSpace((("B", 3),)), random_density(rng, 3))
        pt = partial_transpose(tensor_product(rho, sig), "A")
        assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_bell_spectrum(self):
        pt = partial_transpose(bell_ket().density(), "A")
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(9)
        space = TensorSpace((("A", 2), ("B", 3)))
        rho = DensityOperator(space, random_density(rng, 6))
        twice = partial_transpose(
            DensityOperator(space, partial_transpose(rho, "B")), "B"
        )
        assert np.max(np.abs(twice - rho.matrix)) < 1e-14

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(10)
        space = TensorSpace((("A", 3), ("B", 2)))
        rho = DensityOperator(space, random_density(rng, 6))
        pt = partial_transpose(rho, "A")
        assert abs(np.trace(pt).real - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestNegativity:
    def test_bell_state(self):
        assert abs(negativity(bell_ket().density(), "A").value - 0.5) < 1e-14

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(1)
        rho = DensityOperator(TensorSpace((("A", 2),)), random_density(rng, 2))
        sig = DensityOperator(TensorSpace((("B", 2),)), random_density(rng, 2))
        assert negativity(tensor_product(rho, sig), "A").value == 0.0

    def test_bell_maximally_mixed_blend(self):
        # brute-force oracle: transpose the Alice sub-blocks by explicit index
        # arithmetic, eigensolve, sum the negative part
        mix = 0.5 * bell_ket().density().matrix + 0.5 * np.eye(4) / 4.0
        rho = DensityOperator(QUBIT_PAIR, mix)
        sigma = np.empty((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for m in range(2):
                        sigma[i * 2 + j, k * 2 + m] = mix[k * 2 + j, i * 2 + m]
        oracle = -np.sort(np.linalg.eigvalsh(sigma))[0]
        value = negativity(rho, "A").value
        assert abs(value - oracle) < 1e-14
        assert abs(value - 0.125) < 1e-14  # (1-w)/4 - w/2 eigenvalue at w = 1/2

    def test_eigenvalues_are_reported(self):
        result = negativity(bell_ket().density(), "B")
        assert result.eigenvalues.shape == (4,)
        assert abs(result.eigenvalues.sum() - 1.0) < 1e-12


@st.composite
def bipartite_dims(draw):
    return draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]))


@settings(max_examples=25, deadline=None)
@given(dims=bipartite_dims(), seed=st.integers(0, 10_000))
def test_partial_trace_preserves_trace_and_positivity(dims, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = dims
    space = TensorSpace((("A", d1), ("B", d2)))
    rho = DensityOperator(space, random_density(rng, d1 * d2, rank=3))
    for keep in (["A"], ["B"]):
        red = partial_trace(rho, keep)
        assert abs(red.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(red.matrix).min() > -1e-10


@settings(max_examples=25, deadline=None)
@given(dims=bipartite_dims(), seed=st.integers(0, 10_000))
def test_negativity_same_for_either_factor(dims, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = dims
    space = TensorSpace((("A", d1), ("B", d2)))
    rho = DensityOperator(space, random_density(rng, d1 * d2, rank=2))
    n_a = negativity(rho, "A").value
    n_b = negativity(rho, "B").value
    assert abs(n_a - n_b) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_negativity_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    space = TensorSpace((("A", 2), ("B", 3)))
    rho = DensityOperator(space, random_density(rng, 6, rank=2))
    u_a = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    u_b = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    u = np.kron(u_a, u_b)
    rotated = DensityOperator(space, u @ rho.matrix @ u.conj().T)
    assert abs(negativity(rotated, "A").value - negativity(rho, "A").value) < 1e-10
