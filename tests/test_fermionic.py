"""Grassmann-scalar states, reduced matrices, blocks and negativity curves."""

import cmath
import collections
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unruhkit.fermionic as fermionic
from unruhkit.bosonic import bosonic_curve
from unruhkit.errors import MethodDisagreementError
from unruhkit.fermionic import (
    JOINT_SPACE,
    EPS,
    METHOD_TOL,
    R_MAX,
    R_MAX_TOL,
    SWAP_POINT,
    fermionic_curve,
    fermionic_negativity_pair,
    method_agreement_residual,
    occupation_index,
    pt_blocks,
    squeezing_from_acceleration,
)
from unruhkit.qops import (
    NEGATIVITY_CUTOFF,
    FockKet,
    hermitian_eigenvalues,
    negativity,
    partial_transpose,
    reduced_density,
)
from unruhkit.weights import UnruhWeights


def point(r, q_abs, phase=0.0):
    return r, UnruhWeights.from_abs(q_abs, phase)


def vacuum(r):
    """The vacuum amplitudes: the first 16 columns of an amplitude-table row."""
    return fermionic._amplitude_table([r], 0.0, 0.0)[0, :16]


def one_particle(r, weights):
    """The one-particle amplitudes: the last 16 columns of an amplitude-table row."""
    return fermionic._amplitude_table([r], weights.q_r, weights.q_l)[0, 16:]


def joint_ket(r, weights):
    """The joint state: one row of the joint-state table."""
    return FockKet(JOINT_SPACE, fermionic._joint_table([r], weights)[0])


def rho_ar(r, weights):
    """Region II traced out; basis |ijk> = |i>_M |j>_I+ |k>_I-."""
    return reduced_density(joint_ket(r, weights), ("M", "I+", "I-"))


def rho_aar(r, weights):
    """Region I traced out; basis |ijk> = |i>_M |j>_II- |k>_II+."""
    return reduced_density(joint_ket(r, weights), ("M", "II-", "II+"))


class TestSqueezing:
    def test_derived_value(self):
        r = squeezing_from_acceleration(1.0, 1.0)
        assert abs(r - math.atan(math.exp(-math.pi))) < 1e-15

    def test_small_acceleration(self):
        assert squeezing_from_acceleration(1.0, 1e-3) < 1e-100

    def test_infinite_acceleration_is_bounded(self):
        r = squeezing_from_acceleration(1.0, 1e12)
        assert abs(r - R_MAX) < 1e-10

    def test_rindler_energy_parameterization(self):
        # at a = 1, omega_a is the Rindler energy E: tan r = e^{-pi E}
        for energy in (0.3, 2.5):
            r = squeezing_from_acceleration(energy, 1.0)
            assert abs(math.tan(r) - math.exp(-math.pi * energy)) < 1e-15
        assert squeezing_from_acceleration(1e-300, 1.0) == pytest.approx(R_MAX)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            squeezing_from_acceleration(-1.0, 1.0)

    @pytest.mark.parametrize("omega_a,a", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, math.inf),
    ])
    def test_nan_inputs_blame_the_inputs(self, omega_a, a):
        # NaN, and inf / inf = NaN, fail every ordered comparison, so they used
        # to pass the input check and fail later as an out-of-range squeezing
        with pytest.raises(ValueError, match="omega_a and a must be > 0"):
            squeezing_from_acceleration(omega_a, a)

    def test_one_sided_infinite_limits(self):
        assert squeezing_from_acceleration(1.0, math.inf) == R_MAX
        assert squeezing_from_acceleration(math.inf, 1.0) == 0.0

    @pytest.mark.parametrize("omega_a,a,ratio", [(1e308, 1e308, 1.0), (5e-324, 5e-324, 1.0),
                                                  (1.7e308, 1e308, 1.7)])
    def test_extreme_inputs_take_their_ratio(self, omega_a, a, ratio):
        # pi omega_a was formed first: it overflowed to r = 0 at 1e308 and
        # lost digits below the normals (r = 0.0497 at 5e-324)
        r = squeezing_from_acceleration(omega_a, a)
        assert r == pytest.approx(squeezing_from_acceleration(ratio, 1.0), rel=1e-14)
        if ratio == 1.0:
            assert r == pytest.approx(0.0431870, abs=1e-7)

    @pytest.mark.parametrize("omega_a,a,bits", [
        (1.0, 1.0, "0x1.61c9ce20ca60bp-5"), (1.0, 1e-3, "0x0.0p+0"), (1.0, 1e12, "0x1.921fb5443f5d4p-1"),
        (0.3, 1.0, "0x1.7c7ab9f558057p-2"), (2.5, 1.0, "0x1.970f7fb37416dp-12"),
        (1e-300, 1.0, "0x1.921fb54442d18p-1"), (1.0, math.inf, "0x1.921fb54442d18p-1"),
        (math.inf, 1.0, "0x0.0p+0"), (1e308, 1e308, "0x1.61c9ce20ca60bp-5"),
        (5e-324, 5e-324, "0x1.61c9ce20ca60bp-5"), (1.7e308, 1e308, "0x1.3a13d6094f7f8p-8"),
        (1.7, 1.0, "0x1.3a13d6094f7f8p-8"),
    ])
    def test_bits_are_pinned(self, omega_a, a, bits):
        # r to the last bit on the inputs above, extreme ones included
        assert squeezing_from_acceleration(omega_a, a).hex() == bits


class TestStates:
    def test_vacuum_at_zero_squeezing(self):
        amp = vacuum(0.0)
        assert amp[0] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 7))
    def test_vacuum_norm_is_exactly_one(self, r):
        assert abs(np.linalg.norm(vacuum(r)) - 1.0) < 1e-15

    def test_vacuum_amplitudes_at_maximal_squeezing(self):
        amp = vacuum(R_MAX)
        assert abs(amp[occupation_index(0, 0, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(0, 0, 1, 1)] + 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 1, 1)] + 0.5) < 1e-15

    def test_one_particle_at_zero_squeezing(self):
        amp = one_particle(0.0, UnruhWeights.from_abs(1.0))
        assert amp[occupation_index(1, 0, 0, 0)] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 5))
    def test_one_particle_norm(self, r):
        amp = one_particle(r, UnruhWeights.from_abs(0.8, 0.4))
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-15

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 9))
    def test_one_particle_orthogonal_to_vacuum(self, r):
        vac = vacuum(r)
        one = one_particle(r, UnruhWeights.from_abs(0.7, 1.2))
        assert abs(np.vdot(vac, one)) < 1e-14

    def test_joint_state_norm_and_bell_limit(self):
        amp = joint_ket(*point(0.0, 1.0)).amplitudes
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-15
        root_half = 1.0 / math.sqrt(2.0)
        assert abs(amp[0] - root_half) < 1e-15                    # |0>_M |0000>
        assert abs(amp[16 + occupation_index(1, 0, 0, 0)] - root_half) < 1e-15

    def test_joint_amplitude_read_off(self):
        # amplitude at (M=1, |1011>) is -q_R sin(r)/sqrt(2)
        r, q_abs, phase = 0.5, 0.8, 0.7
        amp = joint_ket(*point(r, q_abs, phase)).amplitudes
        q_r = q_abs * np.exp(1j * phase)
        expected = -q_r * math.sin(r) / math.sqrt(2.0)
        assert abs(amp[16 + occupation_index(1, 0, 1, 1)] - expected) < 1e-15


class TestReducedMatrices:
    def test_rho_ar_vacuum_diagonal(self):
        r = 0.6
        c = math.cos(r)
        rho = rho_ar(*point(r, 0.8)).matrix
        assert abs(rho[0, 0] - c**4 / 2.0) < 1e-15

    def test_rho_ar_off_diagonal_coefficient(self):
        # <000| rho |110> = q_R^* C^3 / 2 in the (M, I+, I-) basis
        r, q_abs, phase = 0.6, 0.8, 1.1
        rho = rho_ar(*point(r, q_abs, phase)).matrix
        q_r = q_abs * np.exp(1j * phase)
        expected = np.conj(q_r) * math.cos(r) ** 3 / 2.0
        assert abs(rho[0b000, 0b110] - expected) < 1e-15

    def test_rho_aar_mixed_diagonal(self):
        # |101><101| carries (|q_R|^2 S^2 + |q_L|^2 C^2)/2 in the (M, II-, II+) basis
        r, q_abs = 0.45, 0.75
        c, s = math.cos(r), math.sin(r)
        rho = rho_aar(*point(r, q_abs)).matrix
        expected = (q_abs**2 * s**2 + (1 - q_abs**2) * c**2) / 2.0
        assert abs(rho[0b101, 0b101] - expected) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_traces_and_validity(self, seed):
        rng = np.random.default_rng(seed)
        r, weights = point(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        for rho in (rho_ar(r, weights).matrix, rho_aar(r, weights).matrix):
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_antirob_pure_product_at_zero_squeezing(self):
        rho = rho_aar(*point(0.0, 1.0))
        assert negativity(rho, "M").value == 0.0


#: index of each bipartition on the bipartition axis of ``pt_blocks``, and its reduced state
BIPARTITIONS = {"AR": (0, rho_ar), "AAR": (1, rho_aar)}


class TestBlocks:
    def test_printed_entries(self):
        r, q_abs = 0.5, 0.8
        c, s = math.cos(r), math.sin(r)
        ql2 = 1.0 - q_abs**2
        ar, aar = pt_blocks(*point(r, q_abs))
        assert abs(ar[0][0, 0] - c**2 * ql2 / 2.0) < 1e-15
        assert abs(aar[1][2, 2] - c**4 / 2.0) < 1e-15

    @pytest.mark.parametrize("bipartition", ["AR", "AAR"])
    def test_blocks_are_hermitian(self, bipartition):
        for mat in pt_blocks(*point(0.7, 0.6, phase=0.9))[BIPARTITIONS[bipartition][0]]:
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-14

    @pytest.mark.parametrize("q_abs,phase", [(0.8, 0.9), (0.3, -2.2), (1.0, 1.0), (0.0, 0.4)])
    def test_stacked_blocks_equal_the_scalar_blocks(self, q_abs, phase):
        weights = UnruhWeights.from_abs(q_abs, phase)
        grid = np.concatenate([[0.0, R_MAX], np.linspace(1e-3, R_MAX - 1e-3, 37)])
        stack = pt_blocks(grid, weights)
        assert stack.shape == (grid.size, 2, 2, 3, 3)
        assert pt_blocks(0.3, weights).shape == (2, 2, 3, 3)
        looped = np.stack([pt_blocks(float(r), weights) for r in grid])
        assert np.array_equal(stack, looped)

    @pytest.mark.parametrize("bipartition,bases", [
        ("AR", (("100", "010", "111"), ("000", "101", "011"))),
        ("AAR", (("111", "001", "100"), ("011", "110", "000"))),
    ])
    def test_blocks_are_the_partial_transpose_on_their_bases(self, bipartition, bases):
        # the bases named in the pt_blocks docstring, checked against the
        # full 8x8 partial transpose of the reduced state
        side, reduce = BIPARTITIONS[bipartition]
        r, weights = point(0.6, 0.7, phase=1.1)
        sigma = partial_transpose(reduce(r, weights), "M")
        for mat, basis in zip(pt_blocks(r, weights)[side], bases):
            idx = [int(label, 2) for label in basis]
            assert np.max(np.abs(sigma[np.ix_(idx, idx)] - mat)) < 1e-15

    @pytest.mark.parametrize("bipartition", ["AR", "AAR"])
    def test_block_eigenvalues_sit_in_full_spectrum(self, bipartition):
        # oracle: eigensolve of the full 8x8 partial transpose
        side, reduce = BIPARTITIONS[bipartition]
        rng = np.random.default_rng(17)
        for _ in range(6):
            r, weights = point(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            full = np.sort(hermitian_eigenvalues(partial_transpose(reduce(r, weights), "M")))
            for mat in pt_blocks(r, weights)[side]:
                for eig in hermitian_eigenvalues(mat):
                    assert np.min(np.abs(full - eig)) < 1e-12


class TestNegativities:
    def test_exact_endpoints(self):
        start = fermionic_negativity_pair(*point(0.0, 1.0))
        assert abs(start.n_ar - 0.5) < 1e-14
        assert start.n_aar == 0.0
        end = fermionic_negativity_pair(*point(R_MAX, 1.0))
        assert abs(end.n_ar - 0.25) < 1e-14
        assert abs(end.n_aar - 0.25) < 1e-14

    def test_conservation_law(self):
        for r in np.linspace(0.0, R_MAX, 41):
            pair = fermionic_negativity_pair(*point(r, 1.0))
            assert abs(pair.n_ar + pair.n_aar - 0.5) < 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        r, weights = point(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        assert method_agreement_residual(r, weights) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, -0.1, R_MAX + 2 * R_MAX_TOL, 1.0, math.inf])
    def test_bad_squeezing_rejected(self, bad):
        # the scalar pair shares the curve's r check
        message = f"fermionic squeezing must lie in [0, pi/4], got {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fermionic_negativity_pair(*point(bad, 0.8))

    def test_phase_invariance(self):
        base = fermionic_negativity_pair(*point(0.5, 0.8))
        for phase in (math.pi / 7, math.pi / 3, 1.0):
            rotated = fermionic_negativity_pair(*point(0.5, 0.8, phase))
            assert abs(rotated.n_ar - base.n_ar) < 1e-10
            assert abs(rotated.n_aar - base.n_aar) < 1e-10

    def test_swap_symmetry(self):
        q = 0.8
        swapped_q = math.sqrt(1.0 - q * q)
        pair = fermionic_negativity_pair(*point(0.6, q))
        mirror = fermionic_negativity_pair(*point(0.6, swapped_q))
        assert abs(pair.n_ar - mirror.n_aar) < 1e-14
        assert abs(pair.n_aar - mirror.n_ar) < 1e-14

    @pytest.mark.parametrize("q_abs", [1.0, 0.9, 0.8, 1 / math.sqrt(2)])
    def test_alice_rob_monotone_for_dominant_right_weight(self, q_abs):
        values = [
            fermionic_negativity_pair(*point(r, q_abs)).n_ar
            for r in np.linspace(0.0, R_MAX, 60)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_total_at_maximal_squeezing_extremes(self):
        totals = {}
        for q_abs in (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 1 / math.sqrt(2)):
            pair = fermionic_negativity_pair(*point(R_MAX, q_abs))
            totals[q_abs] = pair.n_ar + pair.n_aar
        assert max(totals, key=totals.get) == 1.0
        assert min(totals, key=totals.get) == 1 / math.sqrt(2)


class TestCurve:
    def test_antirob_grows_for_canonical_weights(self):
        rows = fermionic_curve(1.0, np.linspace(0.0, R_MAX, 30))
        values = [row.n_aar for row in rows]
        assert values[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 0.25) < 1e-14

    def test_interior_minimum_at_08(self):
        rows = fermionic_curve(0.8, np.linspace(0.0, R_MAX, 200))
        values = np.array([row.n_aar for row in rows])
        k = int(values.argmin())
        assert 0 < k < len(values) - 1
        assert values[k] < values[0] and values[k] < values[-1]

    def test_symmetric_weights_give_identical_bipartitions(self):
        rows = fermionic_curve(1 / math.sqrt(2), np.linspace(0.0, R_MAX, 50))
        assert max(abs(row.n_ar - row.n_aar) for row in rows) < 1e-10

    def test_swap_equivalent_flag(self):
        assert fermionic_curve(0.5, [0.1])[0].swap_equivalent
        assert not fermionic_curve(0.9, [0.1])[0].swap_equivalent

    def test_numpy_scalar_weight_gives_plain_fields(self):
        # q_abs is converted before the swap test, so no numpy scalar reaches a row of either model
        for curve in (fermionic_curve, bosonic_curve):
            for row in curve(np.float64(0.5), [0.0, 0.1]):
                assert not any(isinstance(v, np.generic) for v in row)
        assert type(fermionic_curve(np.float64(0.5), [0.1])[0].swap_equivalent) is bool

    def test_residual_column(self):
        rows = fermionic_curve(0.9, np.linspace(0.0, R_MAX, 5))
        assert all(row.residual < 1e-12 for row in rows)

    def test_curve_makes_no_pt_blocks_call(self, monkeypatch):
        # the blocks route certifies each row from its invariants, so no explicit block is built;
        # the residual reuses the curve's rows
        def failing(r, weights):
            raise AssertionError("pt_blocks called by the curve")

        monkeypatch.setattr(fermionic, "pt_blocks", failing)
        grid = np.linspace(0.0, R_MAX, 10)
        rows = fermionic_curve(0.8, grid)
        assert len(rows) == 10
        assert [row.residual for row in rows] == [
            method_agreement_residual(*point(float(r), 0.8)) for r in grid]

    def test_full_route_builds_one_joint_table_per_curve(self, monkeypatch):
        # every row's 32 amplitudes come from one table; both bipartitions reduce the same row
        calls = []
        joint_table = fermionic._joint_table

        def counting(r_list, weights):
            calls.append(len(r_list))
            return joint_table(r_list, weights)

        monkeypatch.setattr(fermionic, "_joint_table", counting)
        rows = fermionic_curve(0.8, np.linspace(0.0, R_MAX, 10))
        assert calls == [len(rows)] == [10]

    def test_one_trig_table_per_curve(self, monkeypatch):
        # the blocks route takes cos r and sin r as arrays of the whole grid, once, for the closed
        # form and its certificate, with no call per row; the oracle takes its own, once per row for
        # the joint-state table.  The one cos of a (rows, 2, 2) stack is the trigonometric start of
        # the blocks' smallest eigenvalues
        calls = collections.Counter()

        class Counting:
            def __init__(self, module, name):
                self.module, self.name = module, name

            def __getattr__(self, name):
                return getattr(self.module, name)

            def cos(self, x):
                calls[self.name, "cos", np.shape(x)] += 1
                return self.module.cos(x)

            def sin(self, x):
                calls[self.name, "sin", np.shape(x)] += 1
                return self.module.sin(x)

        monkeypatch.setattr(fermionic, "math", Counting(math, "math"))
        monkeypatch.setattr(fermionic, "np", Counting(np, "np"))
        weights = UnruhWeights.from_abs(0.8)
        grid = np.linspace(0.0, R_MAX, 9)
        fermionic._blocks_negativities(grid, weights)
        blocks_route = {("np", "cos", (9,)): 1, ("np", "sin", (9,)): 1, ("np", "cos", (9, 2, 2)): 1}
        assert calls == blocks_route
        calls.clear()
        fermionic._full_negativities(grid.tolist(), weights)
        assert calls == {("math", "cos", ()): 9, ("math", "sin", ()): 9}
        calls.clear()
        rows = fermionic_curve(0.8, grid)
        assert calls == {**blocks_route, ("math", "cos", ()): len(rows), ("math", "sin", ()): len(rows)}

    def test_disagreeing_routes_abort_at_the_first_row_over_tolerance(self, monkeypatch):
        full = fermionic._full_negativities

        def shifted(r_list, weights):
            pairs = full(r_list, weights)
            pairs[[2, 4], 1] += 1e-9
            return pairs

        monkeypatch.setattr(fermionic, "_full_negativities", shifted)
        grid = np.linspace(0.0, R_MAX, 6)
        message = f"differ by 1.000e-09 at (q_abs=0.8, r={float(grid[2])}); tolerance 1e-10"
        with pytest.raises(MethodDisagreementError, match=re.escape(message)):
            fermionic_curve(0.8, grid)

    def test_one_eigensolve_per_curve(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(np.shape(matrix))
            return hermitian_eigenvalues(matrix)

        monkeypatch.setattr(fermionic, "hermitian_eigenvalues", counting)
        rows = fermionic_curve(0.9, np.linspace(0.0, R_MAX, 7))
        assert calls == [(7, 2, 8, 8)]  # the 8x8 oracle; the blocks route solves no eigenproblem
        assert len(rows) == 7

    def test_empty_grid(self):
        assert fermionic_curve(0.8, []) == []
        assert fermionic_curve(0.8, np.array([])) == []

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, -0.1, R_MAX + 2 * R_MAX_TOL, 1.0, math.inf])
    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_bad_grid_point_rejected_before_any_eigensolve(self, bad, where, monkeypatch):
        def failing(matrix):
            raise AssertionError("eigensolve before the grid check")

        monkeypatch.setattr(fermionic, "hermitian_eigenvalues", failing)
        grid = np.linspace(0.0, R_MAX, 9)
        grid[where] = bad
        with pytest.raises(ValueError, match=r"fermionic squeezing must lie in \[0, pi/4\]"):
            fermionic_curve(0.8, grid)

    def test_grid_edges_within_rounding_accepted(self):
        rows = fermionic_curve(1.0, [0.0, R_MAX + R_MAX_TOL])
        assert [row.r for row in rows] == [0.0, R_MAX + R_MAX_TOL]


@settings(max_examples=40, deadline=None)
@given(
    q_abs=st.floats(0.0, 1.0),
    grid=st.lists(st.floats(0.0, R_MAX), min_size=1, max_size=12),
)
@example(q_abs=0.0, grid=[0.0, R_MAX])
@example(q_abs=1 / math.sqrt(2), grid=[0.0, R_MAX])
@example(q_abs=1.0, grid=[0.0, R_MAX, 0.3])
@example(q_abs=0.75, grid=[6.3481234552695825e-80])  # squares of the 8x8 entries underflow
def test_curve_rows_equal_the_scalar_blocks_pairs(q_abs, grid):
    # the stacked eigensolve of the curve against one scalar call per row
    rows = fermionic_curve(q_abs, grid)
    weights = UnruhWeights.from_abs(q_abs)
    for row, r in zip(rows, grid, strict=True):
        pair = fermionic_negativity_pair(r, weights)
        assert (row.r, row.n_ar, row.n_aar, row.lo, row.hi) == (r, pair.n_ar, pair.n_aar, pair.lo, pair.hi)


#: r = 0, the top of the range, and tiny r, where the floor zeroes every amplitude with a factor sin r
EDGE_GRID = [0.0, R_MAX, 1e-300, 6.3481234552695825e-80]


def qops_full_pair(r, weights):
    """The 8x8 pair as a scalar ``qops.negativity`` of each reduced state."""
    return negativity(rho_ar(r, weights), "M").value, negativity(rho_aar(r, weights), "M").value


@settings(max_examples=40, deadline=None)
@given(
    q_abs=st.floats(0.0, 1.0),
    phase=st.floats(-math.pi, math.pi),
    grid=st.lists(st.floats(0.0, R_MAX), min_size=1, max_size=12),
)
@example(q_abs=0.75, phase=0.0, grid=EDGE_GRID)
@example(q_abs=1 / math.sqrt(2), phase=0.0, grid=EDGE_GRID)
@example(q_abs=1.0, phase=0.0, grid=EDGE_GRID)
@example(q_abs=0.0, phase=0.0, grid=EDGE_GRID)
@example(q_abs=0.9, phase=1.3, grid=EDGE_GRID)
def test_stacked_full_rows_equal_qops_negativity(q_abs, phase, grid):
    # one (rows, 2, 8, 8) eigensolve against one qops.negativity per reduced state, bit for bit
    weights = UnruhWeights.from_abs(q_abs, phase)
    expected = [qops_full_pair(r, weights) for r in grid]
    stacked = fermionic._full_negativities(grid, weights).tolist()
    assert [[v.hex() for v in pair] for pair in stacked] == [[v.hex() for v in pair] for pair in expected]
    # the curve's residual column is the distance of its blocks pair from that pair
    rows = fermionic_curve(q_abs, grid) if phase == 0.0 else []
    for row, (e_ar, e_aar) in zip(rows, expected):
        assert row.residual.hex() == max(abs(row.n_ar - e_ar), abs(row.n_aar - e_aar)).hex()


@pytest.mark.parametrize("q_abs, phase", [(0.8, 0.0), (1 / math.sqrt(2), 1.1), (1.0, -2.0), (0.0, 0.4)])
def test_scalar_full_pair_is_the_curve_row(q_abs, phase):
    # the 8x8 oracle on a one-point grid is the curve's stacked route at that r
    weights = UnruhWeights.from_abs(q_abs, phase)
    grid = EDGE_GRID + [1e-9, 0.3]
    stacked = fermionic._full_negativities(grid, weights).tolist()
    for r, (n_ar, n_aar) in zip(grid, stacked, strict=True):
        pair = fermionic._full_negativities([r], weights)[0].tolist()
        assert [v.hex() for v in pair] == [n_ar.hex(), n_aar.hex()]


@pytest.mark.parametrize("q_abs, phase", [(0.75, 0.0), (0.9, 0.0), (0.3, 0.0), (0.75, 0.7)])
def test_tiny_squeezing_routes_agree(q_abs, phase):
    # below r ~ 1e-40 squares of the 8x8 partial-transpose entries underflow, and without
    # the floor on joint-state amplitudes the 8x8 eigensolve lost up to ~3e-3
    weights = UnruhWeights.from_abs(q_abs, phase)
    worst = max(method_agreement_residual(r, weights) for r in np.geomspace(1e-300, 1e-40, 1001).tolist())
    assert worst <= 1e-10


def test_tiny_weights_agree_under_the_floor():
    # the floor acts at every r: below |q| ~ eps it zeroes a weight's amplitudes, which moves
    # the 8x8 pair by O(eps), and above it leaves them alone
    for q in np.geomspace(1e-300, 1e-8, 40).tolist():
        for weights in (UnruhWeights.from_abs(q), UnruhWeights(1.0, q)):
            for r in (1e-3, 0.3, 0.7):
                assert method_agreement_residual(r, weights) <= METHOD_TOL


def test_floor_leaves_ordinary_joint_states_alone():
    # r = 0, r >= sqrt(eps) and small weights have no amplitude below eps times the largest,
    # so they keep every amplitude, with its bits
    for r, q_abs, phase in ((0.0, 0.8, 0.0), (1.5e-8, 0.9, 0.0), (0.3, 0.8, 0.7), (R_MAX, 1e-9, 0.0),
                            (0.0, 1e-9, 0.3)):
        r, weights = point(r, q_abs, phase)
        amp = np.zeros(32, dtype=complex)
        amp[:16] = vacuum(r) / math.sqrt(2.0)
        amp[16:] = one_particle(r, weights) / math.sqrt(2.0)
        assert joint_ket(r, weights).amplitudes.tobytes() == amp.tobytes()


@pytest.mark.parametrize("r, weights, zeroed", [
    (1e-80, UnruhWeights.from_abs(0.75), 5),  # every nonzero amplitude with a factor sin r
    (0.3, UnruhWeights(1.0, 1e-300), 2),  # both amplitudes with a factor q_L, at an ordinary r
])
def test_floor_zeroes_only_amplitudes_below_eps_times_the_largest(r, weights, zeroed):
    amp = joint_ket(r, weights).amplitudes
    exact = np.concatenate([vacuum(r), one_particle(r, weights)]) / math.sqrt(2.0)
    size = np.abs(exact)
    tiny = (size > 0.0) & (size < EPS * size.max())
    assert tiny.sum() == zeroed
    assert np.array_equal(amp, np.where(tiny, 0.0, exact))
    assert method_agreement_residual(r, weights) <= METHOD_TOL


def per_row_amplitudes(r, weights):
    """One row of the joint state built slot by slot from scalar products, as the table must match."""
    c, s = math.cos(r), math.sin(r)
    vac, one = np.zeros(16, dtype=complex), np.zeros(16, dtype=complex)
    vac[occupation_index(0, 0, 0, 0)] = c * c
    vac[occupation_index(0, 0, 1, 1)] = -s * c
    vac[occupation_index(1, 1, 0, 0)] = s * c
    vac[occupation_index(1, 1, 1, 1)] = -s * s
    one[occupation_index(1, 0, 0, 0)] += weights.q_r * c
    one[occupation_index(1, 0, 1, 1)] += -weights.q_r * s
    one[occupation_index(1, 1, 0, 1)] += weights.q_l * s
    one[occupation_index(0, 0, 0, 1)] += weights.q_l * c
    joint = np.concatenate([vac / math.sqrt(2.0), one / math.sqrt(2.0)])
    size = np.abs(joint)
    joint[size < EPS * size.max()] = 0.0
    return vac, one, joint


#: r = 0, pi/4, tiny r, values near and 2 ulp either side of sqrt(eps) ~ 1.49e-8, where
#: sin^2 r crosses eps, and an ordinary value
SQRT_EPS = math.sqrt(EPS)
TABLE_R = [0.0, R_MAX, 1e-300, 5e-324, 1.4e-8, 1.6e-8, 0.3,
           math.nextafter(math.nextafter(SQRT_EPS, 0.0), 0.0), math.nextafter(math.nextafter(SQRT_EPS, 1.0), 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    q_abs=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-300, 1e-100, 1e-8, 0.1])),
    phase=st.floats(-math.pi, math.pi),
    grid=st.lists(st.one_of(st.floats(0.0, R_MAX), st.floats(0.0, 1e-7), st.sampled_from(TABLE_R)),
                  min_size=1, max_size=12),
)
@example(q_abs=0.0, phase=0.0, grid=TABLE_R)
@example(q_abs=1.0, phase=0.0, grid=TABLE_R)
@example(q_abs=1e-300, phase=0.0, grid=TABLE_R)
@example(q_abs=0.1, phase=1.3, grid=TABLE_R)
@example(q_abs=0.75, phase=-2.9, grid=TABLE_R)
@example(q_abs=1 / math.sqrt(2), phase=math.pi, grid=TABLE_R)
def test_joint_table_rows_equal_the_per_row_build(q_abs, phase, grid):
    # bit for bit, signed zeros included: the table is the per-row build of every row at once
    weights = UnruhWeights.from_abs(q_abs, phase)
    table = fermionic._joint_table(grid, weights)
    assert table.shape == (len(grid), 32)
    for row, r in zip(table, grid, strict=True):
        vac, one, joint = per_row_amplitudes(r, weights)
        assert np.array_equal(row.view(np.uint64), joint.view(np.uint64))
        assert np.array_equal(vacuum(r).view(np.uint64), vac.view(np.uint64))
        assert np.array_equal(one_particle(r, weights).view(np.uint64), one.view(np.uint64))


#: r = 0, tiny r, sqrt(eps), a small r where the closed form needs both Newton steps,
#: pi/4 and the rounding slack past it
HARD_R = [0.0, 1e-300, 1e-80, 1e-20, math.sqrt(EPS) / 2, math.sqrt(EPS), 5e-4, R_MAX, R_MAX + R_MAX_TOL]
Q_ABS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, SWAP_POINT, 1.0]))
PHASES = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
R_GRID = st.lists(st.one_of(st.floats(0.0, R_MAX), st.sampled_from(HARD_R)), min_size=1, max_size=8)


def phased_weights(q_abs, phase_r, phase_l):
    """Weights of modulus q_abs and sqrt(1 - q_abs^2), each with its own phase."""
    return UnruhWeights(q_abs * cmath.exp(1j * phase_r), math.sqrt(1.0 - q_abs * q_abs) * cmath.exp(1j * phase_l))


def with_crossings(grid, weights):
    """``grid`` plus the r in range where cos(theta + r) = 0 ("AR") or sin(theta - r) = 0 ("AAR").

    There the two smaller eigenvalues of block 1 meet at 0, theta = atan2(|q_L|, |q_R|).  Each
    crossing comes with the doubles just below and above it.
    """
    theta = math.atan2(weights.abs_l, weights.abs_r)
    near = [y for x in (math.pi / 2 - theta, theta) for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 1.0))]
    return np.array(list(grid) + [x for x in near if 0.0 <= x <= R_MAX + R_MAX_TOL])


def scalar_ends(grid, weights):
    """Values, lower and upper ends of the scalar blocks pair at each r of ``grid``, each (rows, 2)."""
    rows = [fermionic_negativity_pair(r, weights) for r in grid.tolist()]
    return (np.array([(row.n_ar, row.n_aar) for row in rows]), np.array([row.lo for row in rows]),
            np.array([row.hi for row in rows]))


@settings(max_examples=60, deadline=None)
@given(q_abs=Q_ABS, phases=PHASES, grid=R_GRID)
@example(q_abs=0.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=1.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=SWAP_POINT, phases=(0.3, -1.2), grid=HARD_R)
@example(q_abs=0.8, phases=(1.1, 2.0), grid=HARD_R)
@example(q_abs=0.3, phases=(-2.5, 0.7), grid=HARD_R)
def test_closed_form_blocks_match_their_eigensolve(q_abs, phases, grid):
    # each block's negativity from its invariants against eigvalsh of its explicit entries
    weights = phased_weights(q_abs, *phases)
    grid = with_crossings(grid, weights)
    eigs = hermitian_eigenvalues(pt_blocks(grid, weights))
    got = fermionic._negativities(fermionic._lowest_root(*fermionic._invariants(grid, weights)[0])[..., None])
    assert np.abs(got - fermionic._negativities(eigs)).max() <= 1e-15
    # a positive semidefinite block gives exactly +0.0
    assert {v.hex() for v in got[eigs[..., 0] >= 0.0]} <= {"0x0.0p+0"}


@settings(max_examples=60, deadline=None)
@given(q_abs=Q_ABS, phases=PHASES, grid=R_GRID)
@example(q_abs=0.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=1.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=SWAP_POINT, phases=(0.3, -1.2), grid=HARD_R)
@example(q_abs=0.75, phases=(0.0, 0.0), grid=[6.3481234552695825e-80])
def test_closed_form_swap_rule(q_abs, phases, grid):
    # exchanging q_R and q_L exchanges the bipartitions, bit for bit
    weights = phased_weights(q_abs, *phases)
    swapped = UnruhWeights(weights.q_l, weights.q_r)
    grid = with_crossings(grid, weights)
    pairs, mirror = (fermionic._blocks_negativities(grid, w)[0] for w in (weights, swapped))
    assert pairs[:, ::-1].tobytes() == mirror.tobytes()


@settings(max_examples=60, deadline=None)
@given(q_abs=Q_ABS, phases=PHASES, grid=R_GRID)
@example(q_abs=0.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=1.0, phases=(0.0, 0.0), grid=HARD_R)
@example(q_abs=SWAP_POINT, phases=(0.3, -1.2), grid=HARD_R)
@example(q_abs=0.8, phases=(1.1, 2.0), grid=HARD_R)
@example(q_abs=0.3, phases=(-2.5, 0.7), grid=HARD_R)
@example(q_abs=0.75, phases=(0.0, 0.0), grid=[6.3481234552695825e-80])
def test_bound_covers_both_references(q_abs, phases, grid):
    # each value's ends hold eigvalsh of the blocks and the 8x8 oracle, up to each reference's own
    # rounding: a few eps times the norm of what it solves
    weights = phased_weights(q_abs, *phases)
    grid = with_crossings(grid, weights)
    pairs, lo, hi = scalar_ends(grid, weights)
    assert pairs.shape == lo.shape == hi.shape == (grid.size, 2)
    assert np.isfinite(hi - lo).all() and np.maximum(pairs - lo, hi - pairs).max() <= 1e-13
    # each bound counts the rounding of its sum, so a positive value lies strictly inside its ends
    assert (lo < pairs)[pairs > 0.0].all() and (pairs < hi)[pairs > 0.0].all()
    stack = pt_blocks(grid, weights)
    per_block = fermionic._negativities(hermitian_eigenvalues(stack))
    rounding = (4.0 * EPS * np.sqrt((abs(stack) ** 2).sum(axis=(-2, -1)))).sum(axis=-1)
    assert (lo - rounding <= per_block.sum(axis=-1)).all() and (per_block.sum(axis=-1) <= hi + rounding).all()
    full = fermionic._full_negativities(grid.tolist(), weights)
    assert (lo - 8.0 * EPS <= full).all() and (full <= hi + 8.0 * EPS).all()


@pytest.mark.parametrize("excess", [1e-14, 1e-13, 4.9e-13])
def test_bound_covers_weights_normalized_only_to_tolerance(excess):
    # the closed form is that of the normalized weights, the blocks are built from the weights as
    # given; the Weyl term of the normalization moves the bracket out to the blocks' own eigenvalue
    weights = UnruhWeights(0.8 * (1.0 + excess), 0.6j * (1.0 + excess))
    grid = with_crossings(np.linspace(0.0, R_MAX, 41), weights)
    pairs, lo, hi = scalar_ends(grid, weights)
    reference = fermionic._negativities(hermitian_eigenvalues(pt_blocks(grid, weights))).sum(axis=-1)
    assert np.isfinite(hi - lo).all() and np.maximum(pairs - lo, hi - pairs).max() <= 1e-10
    assert ((lo <= reference) & (reference <= hi)).all()


def exact_cos_sin(r):
    """cos r and sin r of the double r as Fractions, their Taylor series summed to 2^-200 relative.

    For 0 <= r < 1 both series alternate with falling terms, so each sum is off by less than the
    next term.  The sums are then rounded to 300 bits, which keeps the Fractions small.
    """
    x, sums = Fraction(r), []
    for first in (0, 1):  # cos, then sin
        term, total, k = x**first, Fraction(0), first
        while term and abs(term) * 2**200 > abs(total):
            total += term
            term *= -x * x / ((k + 1) * (k + 2))
            k += 2
        shift = 300 + total.denominator.bit_length() - total.numerator.bit_length()
        sums.append(Fraction(round(total * 2**shift), 2**shift) if total else total)
    return sums


def exact_invariants(r, weights):
    """(t, e2, det) of each block at the exact r and the normalized exact weights, as Fractions.

    Shape (3, bipartition, block).  Each depends on the weights only through a^2 and b^2, which
    are rational: (aC + bS)(aC - bS) = a^2 C^2 - b^2 S^2.
    """
    cos, sin = exact_cos_sin(r)
    c2, s2 = cos * cos, sin * sin
    mod2 = [Fraction(q.real) ** 2 + Fraction(q.imag) ** 2 for q in (weights.q_r, weights.q_l)]
    out = np.empty((3, 2, 2), dtype=object)
    for side, (x2, y2) in enumerate((mod2, mod2[::-1])):
        x2, y2 = x2 / sum(mod2), y2 / sum(mod2)
        cross = x2 * c2 - y2 * s2
        out[:, side, 0] = (x2 * s2 + y2 * c2 + c2 * s2) / 2, -(c2 - s2) * cross / 4, -c2 * s2 * cross**2 / 8
        out[:, side, 1] = ((c2 * c2 + s2 * s2) / 2, -c2 * s2 * (x2 * s2 * s2 + y2 * c2 * c2) / 4,
                           -(c2 * s2) ** 2 * (x2 * c2 + y2 * s2) / 8)
    return out


def exact_cubic(x, t, e2, det):
    x = Fraction(x)
    return ((x - t) * x + e2) * x - det


#: r = 0, tiny r, sqrt(eps), pi/4 and its neighbours, where cos 2r = C^2 - S^2 vanishes, and the
#: rounding slack past it
MARGIN_R = [0.0, 1e-300, math.sqrt(EPS), 0.3, math.nextafter(R_MAX, 0.0), R_MAX, math.nextafter(R_MAX, 1.0),
            R_MAX + R_MAX_TOL]
#: (q_abs, phase of q_R, phase of q_L, scale): extremal, mixed and equal weights, some off normalization
MARGIN_WEIGHTS = [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (SWAP_POINT, 0.3, -1.2, 1.0), (0.8, 1.1, 2.0, 1.0),
                  (0.3, -2.5, 0.7, 1.0), (0.6, 0.4, 0.0, 1.0 + 2e-13), (0.95, 0.0, 1.0, 1.0 - 4.9e-13)]


def margin_cases():
    for q_abs, phase_r, phase_l, scale in MARGIN_WEIGHTS:
        weights = phased_weights(q_abs, phase_r, phase_l)
        weights = UnruhWeights(weights.q_r * scale, weights.q_l * scale)
        yield weights, with_crossings(MARGIN_R, weights)


@pytest.mark.parametrize("case", range(len(MARGIN_WEIGHTS)))
def test_invariants_and_cubic_within_their_stated_errors(case):
    # each computed invariant, and the cubic at lam and at both ends of the certified bracket, lies
    # within its stated error of the value at the exact r and normalized weights
    weights, grid = list(margin_cases())[case]
    inv, err = fermionic._invariants(grid, weights)
    lam = fermionic._lowest_root(*inv)
    half = fermionic._half_width(inv, err, lam)
    negative = lam < NEGATIVITY_CUTOFF
    # a block with no negativity is certified at the cutoff alone
    ends = (lam, np.where(negative, lam - half, NEGATIVITY_CUTOFF), np.where(negative, lam + half, lam))
    for row, r in enumerate(grid.tolist()):
        exact = exact_invariants(r, weights)
        for got, bound, want in zip(inv[:, row].ravel(), err[:, row].ravel(), exact.ravel()):
            assert abs(Fraction(got) - want) <= Fraction(bound), (r, got, want, bound)
        for x in ends:
            value, bound = fermionic._cubic(x[row], inv[:, row], err[:, row])
            for at, got, limit, *block in zip(x[row].ravel(), value.ravel(), bound.ravel(), *exact.reshape(3, 4)):
                assert abs(Fraction(got) - exact_cubic(at, *block)) <= Fraction(limit), (r, at)


@pytest.mark.parametrize("case", range(len(MARGIN_WEIGHTS)))
@pytest.mark.parametrize("ulps", [None, 1, 4])
def test_certified_brackets_hold_the_exact_eigenvalue(case, ulps):
    # the bracket the route certifies (ulps None), and brackets too narrow for the rounding of the
    # cubic: wherever a block is certified, the exact cubic changes sign across its bracket, so
    # its smallest eigenvalue lies inside
    weights, grid = list(margin_cases())[case]
    inv, err = fermionic._invariants(grid, weights)
    lam = fermionic._lowest_root(*inv)
    half = fermionic._half_width(inv, err, lam) if ulps is None else ulps * np.spacing(abs(lam))
    bounds = fermionic._block_bounds(inv, err, lam, half, 1.0)
    if ulps is None:
        assert np.isfinite(bounds).all()
    negative = lam < NEGATIVITY_CUTOFF
    lo = np.where(negative, lam - half, NEGATIVITY_CUTOFF)
    for row, r in enumerate(grid.tolist()):
        exact = exact_invariants(r, weights).reshape(3, 4)
        for i, (t, e2, det) in enumerate(exact.T):
            at = np.unravel_index(i, (2, 2))
            if np.isfinite(bounds[row][at]):
                assert exact_cubic(lo[row][at], t, e2, det) < 0, (r, at)
                if negative[row][at]:
                    assert exact_cubic(lam[row][at] + half[row][at], t, e2, det) > 0, (r, at)


@pytest.mark.parametrize("case", range(len(MARGIN_WEIGHTS)))
def test_cubic_rounding_within_its_horner_term(case):
    # with no invariant error the bound of ``_cubic`` is Horner's rounding term alone: the cubic of
    # the doubles (x, t, e2, det) as computed lies within it of the same cubic in exact arithmetic
    weights, grid = list(margin_cases())[case]
    inv, _ = fermionic._invariants(grid, weights)
    lam = fermionic._lowest_root(*inv)
    half = fermionic._half_width(inv, np.zeros_like(inv), lam)
    points = (lam, lam - half, lam + half, np.full_like(lam, NEGATIVITY_CUTOFF), -inv[0], inv[0] / 3.0)
    for x in points:
        value, bound = fermionic._cubic(x, inv, np.zeros_like(inv))
        for at, got, limit, t, e2, det in zip(x.ravel(), value.ravel(), bound.ravel(), *inv.reshape(3, -1)):
            if math.isfinite(at):  # the half-width is NaN where the slope at lam is not positive
                exact = exact_cubic(at, Fraction(t), Fraction(e2), Fraction(det))
                assert abs(Fraction(got) - exact) <= Fraction(limit), (at, t, e2, det)


def exact_sqrt(v):
    """The square root of a Fraction in [0, 1], rounded down to 300 bits."""
    return Fraction(math.isqrt(v.numerator * 4**300 // v.denominator), 2**300)


def pushed_invariants(r, weights, sign):
    """``_invariants`` at the double r, re-evaluated in Fractions with every error at its limit one way.

    cos r and sin r are the exact ones moved by ``sign`` ulp of their doubles; a and b are the exact
    normalized weights times 1 + 3 sign eps; each rounding of the formula, in the order numpy
    evaluates it, multiplies by 1 + sign eps/2, and each scaling by a power of two is exact.
    Shape (3, bipartition, block), as ``exact_invariants``.
    """
    def rounded(v):
        return v * (1 + Fraction(sign, 2**53))

    cos, sin = exact_cos_sin(r)
    c, s = (v + sign * Fraction(float(np.spacing(f(r)))) for v, f in ((cos, np.cos), (sin, np.sin)))
    mod2 = [Fraction(q.real) ** 2 + Fraction(q.imag) ** 2 for q in (weights.q_r, weights.q_l)]
    a, b = (exact_sqrt(m / sum(mod2)) * (1 + 3 * sign * Fraction(EPS)) for m in mod2)
    c2, s2 = rounded(c * c), rounded(s * s)
    cs2 = rounded(c2 * s2)
    out = np.empty((3, 2, 2), dtype=object)
    for side, (x, y) in enumerate(((a, b), (b, a))):
        plus, minus = rounded(rounded(x * c) + rounded(y * s)), rounded(rounded(x * c) - rounded(y * s))
        diff, total = rounded(c - s), rounded(c + s)
        cross = rounded(plus * minus)
        x2, y2 = rounded(x * x), rounded(y * y)
        out[:, side, 0] = (rounded(rounded(rounded(x2 * s2) + rounded(y2 * c2)) + cs2) / 2,
                           rounded(rounded(-diff / 4 * total) * cross),
                           rounded(rounded(-cs2 / 8 * cross) * cross))
        fourth = rounded(rounded(rounded(x2 * s2) * s2) + rounded(rounded(y2 * c2) * c2))
        out[:, side, 1] = (rounded(rounded(c2 * c2) + rounded(s2 * s2)) / 2,
                           rounded(-cs2 / 4 * fourth),
                           rounded(rounded(-cs2 / 8 * cs2) * rounded(rounded(x2 * c2) + rounded(y2 * s2))))
    return out


@pytest.mark.parametrize("case", range(len(MARGIN_WEIGHTS)))
@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
def test_invariant_errors_cover_every_error_pushed_one_way(case, sign):
    # the stated errors against the error model itself: every input error and every rounding at its
    # limit, all up and then all down, where the sampled roundings stay far inside the unit counts
    weights, grid = list(margin_cases())[case]
    _, err = fermionic._invariants(grid, weights)
    for row, r in enumerate(grid.tolist()):
        pushed, exact = pushed_invariants(r, weights, sign), exact_invariants(r, weights)
        for got, want, bound in zip(pushed.ravel(), exact.ravel(), err[:, row].ravel()):
            assert abs(got - want) <= Fraction(bound), (r, got, want, bound)
