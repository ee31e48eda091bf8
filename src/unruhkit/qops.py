"""Dense operator algebra on labelled tensor factors.

Index convention, used everywhere downstream: tensor factors are listed
left to right and the leftmost factor varies slowest (row-major order),
so a state on factors of dimensions (d1, d2) stores the amplitude of
basis element (i, j) at flat index ``i * d2 + j``.

All containers are frozen dataclasses holding read-only arrays; every
operation is a pure function of its inputs, so values can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import EigensolverError, LabelError

#: partial-transpose eigenvalues above this threshold count as zero, which
#: keeps eigensolver noise on separable states from registering as negativity
NEGATIVITY_CUTOFF = -1e-12


def _lock(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class TensorSpace:
    """Ordered list of labelled factors, e.g. (("M", 2), ("I", 31), ("II", 31))."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate factor labels in {labels}")
        if any(dim < 1 for _, dim in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise LabelError(f"unknown factor label {label!r}; have {self.labels}")

    def subspace(self, labels: Sequence[str]) -> "TensorSpace":
        """Space made of the named factors, in the order given."""
        return TensorSpace(tuple(self.factors[self.axis(lab)] for lab in labels))

    def flat_index(self, occupations: Sequence[int]) -> int:
        """Flat index of a basis element given per-factor occupations."""
        return int(np.ravel_multi_index(tuple(occupations), self.dims))


@dataclass(frozen=True, eq=False)
class FockKet:
    """Complex amplitude vector over the occupation-number basis of a space."""

    space: TensorSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.space.dim:
            raise ValueError(
                f"amplitude vector has length {amp.size}, space dimension is {self.space.dim}"
            )
        object.__setattr__(self, "amplitudes", _lock(amp))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockKet":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockKet(self.space, self.amplitudes / n)

    def overlap(self, other: "FockKet") -> complex:
        if other.space != self.space:
            raise LabelError("overlap requires kets on the same space")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator (ket should be normalized)."""
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


def basis_ket(space: TensorSpace, occupations: Sequence[int]) -> FockKet:
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.flat_index(occupations)] = 1.0
    return FockKet(space, amp)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace operator on a labelled tensor space."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {d}")
        object.__setattr__(self, "matrix", _lock(mat))

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self, hermitian_tol=1e-12, trace_tol=1e-10, eigenvalue_floor=-1e-10) -> None:
        """Check the density-operator invariants; raises ValueError on violation."""
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm > hermitian_tol:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace {tr} is not 1 within {trace_tol}")
        lo = float(hermitian_eigenvalues(self.matrix).min())
        if lo < eigenvalue_floor:
            raise ValueError(f"matrix has eigenvalue {lo:.3e} below {eigenvalue_floor}")


@dataclass(frozen=True, eq=False)
class NegativityValue:
    """Negativity together with the partial-transpose spectrum it came from."""

    value: float
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _lock(np.array(self.eigenvalues, dtype=float)))


def tensor_product(a, b):
    """Kronecker product of two kets or two density operators.

    The result lives on the concatenation of the factor lists, with the
    left operand's factors varying slowest.
    """
    if {type(a), type(b)} not in ({FockKet}, {DensityOperator}):
        raise TypeError("tensor_product takes two FockKets or two DensityOperators")
    common = set(a.space.labels) & set(b.space.labels)
    if common:
        raise LabelError(f"factor labels collide: {sorted(common)}")
    space = TensorSpace(a.space.factors + b.space.factors)
    if isinstance(a, FockKet):
        return FockKet(space, np.kron(a.amplitudes, b.amplitudes))
    return DensityOperator(space, np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out all factors not named in ``keep``.

    The reduced operator's factors follow the order given in ``keep``.
    Trace is preserved exactly (up to rounding).
    """
    keep = list(keep)
    if not keep:
        raise LabelError("keep must name at least one factor")
    if len(set(keep)) != len(keep):
        raise LabelError(f"duplicate labels in keep: {keep}")
    space = rho.space
    axes = [space.axis(lab) for lab in keep]
    n = len(space.factors)
    kept = set(axes)
    tensor = rho.matrix.reshape(space.dims + space.dims)
    row_ids = list(range(n))
    col_ids = [n + i if i in kept else i for i in range(n)]
    out_ids = [a for a in axes] + [n + a for a in axes]
    reduced = np.einsum(tensor, row_ids + col_ids, out_ids)
    sub = space.subspace(keep)
    return DensityOperator(sub, reduced.reshape(sub.dim, sub.dim))


def reduced_density(ket: FockKet, keep: Iterable[str]) -> DensityOperator:
    """Partial trace of the pure-state projector |psi><psi|.

    Equivalent to ``partial_trace(ket.density(), keep)`` but never builds
    the full projector, which matters once truncated Fock factors push the
    joint dimension into the tens of thousands.
    """
    keep = list(keep)
    if not keep:
        raise LabelError("keep must name at least one factor")
    space = ket.space
    axes = [space.axis(lab) for lab in keep]
    if len(set(axes)) != len(axes):
        raise LabelError(f"duplicate labels in keep: {keep}")
    n = len(space.factors)
    traced = [i for i in range(n) if i not in set(axes)]
    psi = ket.amplitudes.reshape(space.dims)
    sub = space.subspace(keep)
    m = psi.transpose(axes + traced).reshape(sub.dim, -1)
    return DensityOperator(sub, m @ m.conj().T)


def partial_transpose(rho: DensityOperator, factor: str) -> np.ndarray:
    """Read-only matrix with the indices of one named factor transposed."""
    space = rho.space
    a = space.axis(factor)
    n = len(space.factors)
    tensor = rho.matrix.reshape(space.dims + space.dims)
    swapped = np.swapaxes(tensor, a, n + a)
    d = space.dim
    return _lock(np.ascontiguousarray(swapped).reshape(d, d))


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full spectrum of a dense Hermitian matrix, ascending."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"Hermitian eigensolve failed on {matrix.shape} matrix "
            f"(max |entry| {np.max(np.abs(matrix)):.3e})"
        ) from exc


def negativity_from_eigenvalues(eigenvalues: np.ndarray) -> NegativityValue:
    eigs = np.asarray(eigenvalues, dtype=float)
    neg = eigs[eigs < NEGATIVITY_CUTOFF]
    # the + 0.0 turns an empty sum's -0.0 into a plain 0.0
    return NegativityValue(value=float(-neg.sum()) + 0.0, eigenvalues=eigs)


def negativity(rho: DensityOperator, factor: str) -> NegativityValue:
    """Negativity of ``rho`` for the bipartition singled out by ``factor``.

    Computed as N = (1/2) sum_i (|l_i| - l_i) over the eigenvalues l_i of
    the partial transpose, i.e. minus the sum of its negative eigenvalues.
    A maximally entangled qubit pair gives 1/2.
    """
    sigma = partial_transpose(rho, factor)
    return negativity_from_eigenvalues(hermitian_eigenvalues(sigma))
