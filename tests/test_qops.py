"""Pure-state reduction, partial transpose and negativity against inline numpy oracles."""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruhkit.errors import LabelError
from unruhkit.qops import (
    DensityOperator,
    FockKet,
    TensorSpace,
    negativity,
    partial_transpose,
    reduced_density,
)

QUBIT_PAIR = TensorSpace((("A", 2), ("B", 2)))
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def bell_ket() -> FockKet:
    return FockKet(QUBIT_PAIR, BELL)


def bell_density() -> DensityOperator:
    return DensityOperator(QUBIT_PAIR, np.outer(BELL, BELL))


def random_density(rng, dim: int, rank: int = None) -> np.ndarray:
    rank = rank or dim
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    probs = rng.dirichlet(np.ones(rank))
    mat = sum(p * np.outer(v, v.conj()) / np.vdot(v, v).real for p, v in zip(probs, vecs.T))
    return mat


def random_pure(rng, shape) -> np.ndarray:
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi / np.linalg.norm(psi)


def einsum_trace_out(matrix: np.ndarray, dims: tuple, keep: list) -> np.ndarray:
    """Trace out every axis not in ``keep``; the kept axes follow the order of ``keep``."""
    n = len(dims)
    rows = list(range(n))
    cols = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    d = prod(dims[i] for i in keep)
    return np.einsum(matrix.reshape(dims + dims), rows + cols, out).reshape(d, d)


class TestTensorSpace:
    def test_row_major_indexing(self):
        # leftmost factor slowest: amplitude of (i, j, k) sits at (i*d2 + j)*d3 + k
        space = TensorSpace((("a", 2), ("b", 3), ("c", 4)))
        assert space.dim == 24
        amp = np.zeros(24)
        amp[(1 * 3 + 0) * 4 + 2] = 1.0
        ket = FockKet(space, amp)
        for label, level in (("a", 1), ("b", 0), ("c", 2)):
            diag = np.diag(reduced_density(ket, [label]).matrix).real
            assert np.array_equal(diag, np.eye(len(diag))[level])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            TensorSpace((("a", 2), ("a", 3)))

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            QUBIT_PAIR.axis("C")

    def test_sizes_are_checked(self):
        with pytest.raises(ValueError, match="space dimension is 4"):
            FockKet(QUBIT_PAIR, np.ones(3))
        with pytest.raises(ValueError, match="does not match space dimension 4"):
            DensityOperator(QUBIT_PAIR, np.eye(3))


class TestReducedDensity:
    def test_bell_reduces_to_maximally_mixed(self):
        red = reduced_density(bell_ket(), ["A"])
        assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        psi_a, psi_b = random_pure(rng, 3), random_pure(rng, 2)
        ket = FockKet(TensorSpace((("A", 3), ("B", 2))), np.kron(psi_a, psi_b))
        red = reduced_density(ket, ["A"])
        assert np.allclose(red.matrix, np.outer(psi_a, psi_a.conj()), atol=1e-14)

    def test_schmidt_spectra_match(self):
        # both reductions of a pure state share their nonzero spectrum; the
        # oracle is an SVD of the amplitude matrix
        rng = np.random.default_rng(42)
        space = TensorSpace((("A", 2), ("B", 3)))
        psi = random_pure(rng, (2, 3))
        ket = FockKet(space, psi.ravel())
        red_a = reduced_density(ket, ["A"])
        red_b = reduced_density(ket, ["B"])
        schmidt = np.linalg.svd(psi, compute_uv=False) ** 2
        eig_a = np.sort(np.linalg.eigvalsh(red_a.matrix))[::-1]
        eig_b = np.sort(np.linalg.eigvalsh(red_b.matrix))[::-1]
        assert np.allclose(eig_a[:2], schmidt, atol=1e-12)
        assert np.allclose(eig_b[:2], schmidt, atol=1e-12)
        assert np.allclose(eig_b[2:], 0.0, atol=1e-12)

    def test_pure_state_shortcut_matches_full_trace(self):
        rng = np.random.default_rng(3)
        space = TensorSpace((("M", 2), ("I", 4), ("II", 3)))
        psi = random_pure(rng, space.dim)
        ket = FockKet(space, psi)
        for keep in (["M", "I"], ["II"], ["I", "M"]):
            direct = reduced_density(ket, keep)
            full = einsum_trace_out(np.outer(psi, psi.conj()), space.dims,
                                        [space.axis(lab) for lab in keep])
            assert np.allclose(direct.matrix, full, atol=1e-13)

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(8)
        space = TensorSpace((("A", 2), ("B", 3)))
        ket = FockKet(space, random_pure(rng, space.dim))
        ab = reduced_density(ket, ["A", "B"]).matrix
        ba = reduced_density(ket, ["B", "A"])
        perm = ab.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
        assert np.allclose(ba.matrix, perm, atol=1e-14)
        # a second call takes the cached plan and must keep the order as well
        again = reduced_density(ket, ("B", "A"))
        assert again.space == ba.space == TensorSpace((("B", 3), ("A", 2)))
        assert np.array_equal(again.matrix, ba.matrix)

    def test_repeated_label_rejected(self):
        with pytest.raises(LabelError):
            reduced_density(bell_ket(), ["A", "A"])


class TestComputedOnce:
    """A space's shape data and each reduction plan are computed once; the checks are not."""

    def test_equal_spaces_stay_equal(self):
        a = TensorSpace((("A", 2), ("B", 3)))
        b = TensorSpace([["A", 2.0], ("B", 3)])
        reduced_density(FockKet(a, np.ones(6)), ["B"])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "TensorSpace(factors=(('A', 2), ('B', 3)))"
        assert a != TensorSpace((("B", 3), ("A", 2)))
        assert (a.dims, a.dim, b.axis("B")) == ((2, 3), 6, 1)

    def test_bad_labels_raise_after_a_good_reduction(self):
        ket = bell_ket()
        rho = reduced_density(ket, ["A", "B"])
        negativity(rho, "A")
        for _ in range(2):
            for keep in (["A", "A"], ["B", "B"], ["C"], ["A", "C"]):
                with pytest.raises(LabelError):
                    reduced_density(ket, keep)
            with pytest.raises(LabelError):
                partial_transpose(rho, "C")
            with pytest.raises(LabelError):
                negativity(rho, "C")
        assert np.array_equal(reduced_density(ket, ["A", "B"]).matrix, rho.matrix)


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(2)
        rho = DensityOperator(TensorSpace((("A", 2), ("B", 3))),
                              np.kron(random_density(rng, 2), random_density(rng, 3)))
        pt = partial_transpose(rho, "A")
        assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_bell_spectrum(self):
        pt = partial_transpose(bell_density(), "A")
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
        assert abs(negativity(bell_density(), "A").value - 0.5) < 1e-14

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(1)
        rho = DensityOperator(QUBIT_PAIR, np.kron(random_density(rng, 2), random_density(rng, 2)))
        assert negativity(rho, "A").value == 0.0

    def test_bell_maximally_mixed_blend(self):
        # brute-force oracle: transpose the Alice sub-blocks by explicit index
        # arithmetic, eigensolve, sum the negative part
        mix = 0.5 * bell_density().matrix + 0.5 * np.eye(4) / 4.0
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


@st.composite
def bipartite_dims(draw):
    return draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]))


@settings(max_examples=25, deadline=None)
@given(dims=bipartite_dims(), seed=st.integers(0, 10_000))
def test_reduced_density_preserves_trace_and_positivity(dims, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = dims
    space = TensorSpace((("A", d1), ("B", d2)))
    ket = FockKet(space, random_pure(rng, d1 * d2))
    for keep in (["A"], ["B"]):
        red = reduced_density(ket, keep).matrix
        assert abs(np.trace(red).real - 1.0) < 1e-10
        assert np.max(np.abs(red - red.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(red).min() > -1e-10


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
