"""Dense negativity of pure-state reductions on labelled tensor factors.

Index convention, used everywhere downstream: tensor factors are listed
left to right and the leftmost factor varies slowest (row-major order),
so a state on factors of dimensions (d1, d2) stores the amplitude of
basis element (i, j) at flat index ``i * d2 + j``.

This is the general route that the bosonic and fermionic engines are
checked against: reduce a ket to the named factors, partially transpose
one factor and sum the negative eigenvalues.  It is the 8x8 "full" route
behind every fermion row's blocks-vs-full residual, and the bosonic test
and benchmark reference.  Containers take their arrays as given, without
copying them.  A space derives its dimensions, label lookup and hash once,
and a reduction plan is made once per (space, kept labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import prod
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EigensolverError, LabelError

#: partial-transpose eigenvalues above this threshold count as zero, which
#: keeps eigensolver noise on separable states from registering as negativity
NEGATIVITY_CUTOFF = -1e-12


@dataclass(frozen=True)
class TensorSpace:
    """Ordered list of labelled factors, e.g. (("M", 2), ("I", 31), ("II", 31))."""

    factors: tuple[tuple[str, int], ...]
    # derived from ``factors`` once; not part of equality, hash or repr
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    _axes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate factor labels in {labels}")
        if any(dim < 1 for _, dim in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dims", tuple(dim for _, dim in factors))
        object.__setattr__(self, "dim", prod(self.dims))
        object.__setattr__(self, "_axes", {lab: i for i, lab in enumerate(labels)})
        object.__setattr__(self, "_hash", hash(self.dims))  # not the labels: str hashes vary by process

    def __hash__(self):
        return self._hash

    def axis(self, label: str) -> int:
        try:
            return self._axes[label]
        except KeyError:
            raise LabelError(f"unknown factor label {label!r}; have {tuple(self._axes)}") from None


@dataclass(frozen=True, eq=False)
class FockKet:
    """Complex amplitude vector over the occupation-number basis of a space."""

    space: TensorSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.space.dim:
            raise ValueError(
                f"amplitude vector has length {amp.size}, space dimension is {self.space.dim}"
            )
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace operator on a labelled tensor space."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {d}")
        object.__setattr__(self, "matrix", mat)


class NegativityValue(NamedTuple):
    value: float


def floor_amplitudes(amplitudes: np.ndarray) -> np.ndarray:
    """The amplitudes with each entry below eps times the largest of its row (last axis) set to 0.

    Amplitudes that span more than half the float range's exponents give reductions whose entries'
    squares underflow, and LAPACK's Hermitian eigensolvers then lose up to ~3e-3 (fermions at
    r ~ 1e-300 to 1e-40, bosons near r ~ 1e-80 and 1e-72).  The floor moves the state by O(eps),
    so by Weyl's inequality each eigenvalue moves by O(eps) too.  Both general routes apply it.
    """
    size = np.abs(amplitudes)
    return np.where(size < np.finfo(float).eps * size.max(axis=-1, keepdims=True), 0.0, amplitudes)


def reduced_density(ket: FockKet, keep: Iterable[str]) -> DensityOperator:
    """Partial trace of the pure-state projector |psi><psi| onto the factors in ``keep``.

    The reduced operator's factors follow the order given in ``keep``.  The
    amplitudes, regrouped as a (kept x traced) matrix m, give m m^dagger
    without ever building the full projector, which matters once truncated
    Fock factors push the joint dimension into the tens of thousands.
    """
    space = ket.space
    sub, order = _reduction_plan(space, tuple(keep))
    m = ket.amplitudes.reshape(space.dims).transpose(order).reshape(sub.dim, -1)
    return DensityOperator(sub, m @ m.conj().T)


@cache
def _reduction_plan(space: TensorSpace, keep: tuple[str, ...]) -> tuple[TensorSpace, tuple[int, ...]]:
    """Kept space and axis order (kept, then traced) of a reduction; a label error is not cached."""
    axes = [space.axis(lab) for lab in keep]
    sub = TensorSpace(tuple(space.factors[a] for a in axes))  # rejects a repeated label
    traced = [i for i in range(len(space.factors)) if i not in axes]
    return sub, tuple(axes + traced)


def partial_transpose(rho: DensityOperator, factor: str) -> np.ndarray:
    """Matrix of ``rho`` with the indices of one named factor transposed."""
    space = rho.space
    a = space.axis(factor)
    tensor = rho.matrix.reshape(space.dims + space.dims)
    return np.swapaxes(tensor, a, len(space.factors) + a).reshape(space.dim, space.dim)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full spectrum of a dense Hermitian matrix, ascending."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"Hermitian eigensolve failed on {matrix.shape} matrix "
            f"(max |entry| {np.max(np.abs(matrix)):.3e})"
        ) from exc


def negativity(rho: DensityOperator, factor: str) -> NegativityValue:
    """Negativity of ``rho`` for the bipartition singled out by ``factor``.

    Computed as N = (1/2) sum_i (|l_i| - l_i) over the eigenvalues l_i of
    the partial transpose, i.e. minus the sum of its negative eigenvalues.
    A maximally entangled qubit pair gives 1/2.
    """
    eigs = hermitian_eigenvalues(partial_transpose(rho, factor))
    # the + 0.0 turns an empty sum's -0.0 into a plain 0.0
    return NegativityValue(float(-eigs[eigs < NEGATIVITY_CUTOFF].sum()) + 0.0)
