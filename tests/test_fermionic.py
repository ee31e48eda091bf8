"""Grassmann-scalar states, reduced matrices, blocks and negativity curves."""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unruhkit.fermionic as fermionic
from unruhkit.errors import MethodDisagreementError
from unruhkit.fermionic import (
    FermionScenario,
    FermionSqueezing,
    R_MAX,
    R_MAX_TOL,
    fermion_joint_state,
    fermionic_curve,
    fermionic_negativity_pair,
    grassmann_one_particle,
    grassmann_vacuum,
    method_agreement_residual,
    occupation_index,
    pt_blocks,
    rho_alice_antirob_fermi,
    rho_alice_rob_fermi,
)
from unruhkit.qops import hermitian_eigenvalues, negativity, partial_transpose
from unruhkit.weights import UnruhWeights


def scenario(r, q_abs, phase=0.0):
    return FermionScenario(FermionSqueezing(r), UnruhWeights.from_abs(q_abs, phase))


class TestSqueezing:
    def test_derived_value(self):
        sq = FermionSqueezing.from_acceleration(1.0, 1.0)
        assert abs(sq.r - math.atan(math.exp(-math.pi))) < 1e-15

    def test_small_acceleration(self):
        assert FermionSqueezing.from_acceleration(1.0, 1e-3).r < 1e-100

    def test_infinite_acceleration_is_bounded(self):
        r = FermionSqueezing.from_acceleration(1.0, 1e12).r
        assert abs(r - R_MAX) < 1e-10

    def test_rindler_energy_parameterization(self):
        # at a = 1, omega_a is the Rindler energy E: tan r = e^{-pi E}
        for energy in (0.3, 2.5):
            sq = FermionSqueezing.from_acceleration(energy, 1.0)
            assert abs(math.tan(sq.r) - math.exp(-math.pi * energy)) < 1e-15
        assert FermionSqueezing.from_acceleration(1e-300, 1.0).r == pytest.approx(R_MAX)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FermionSqueezing(1.0)
        with pytest.raises(ValueError):
            FermionSqueezing.from_acceleration(-1.0, 1.0)

    @pytest.mark.parametrize("omega_a,a", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, math.inf),
    ])
    def test_nan_inputs_blame_the_inputs(self, omega_a, a):
        # NaN, and inf / inf = NaN, fail every ordered comparison, so they used
        # to pass the input check and fail later as an out-of-range squeezing
        with pytest.raises(ValueError, match="omega_a and a must be > 0"):
            FermionSqueezing.from_acceleration(omega_a, a)

    def test_one_sided_infinite_limits(self):
        assert FermionSqueezing.from_acceleration(1.0, math.inf).r == R_MAX
        assert FermionSqueezing.from_acceleration(math.inf, 1.0).r == 0.0


class TestStates:
    def test_vacuum_at_zero_squeezing(self):
        amp = grassmann_vacuum(0.0)
        assert amp[0] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 7))
    def test_vacuum_norm_is_exactly_one(self, r):
        assert abs(np.linalg.norm(grassmann_vacuum(r)) - 1.0) < 1e-15

    def test_vacuum_amplitudes_at_maximal_squeezing(self):
        amp = grassmann_vacuum(R_MAX)
        assert abs(amp[occupation_index(0, 0, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(0, 0, 1, 1)] + 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 1, 1)] + 0.5) < 1e-15

    def test_one_particle_at_zero_squeezing(self):
        amp = grassmann_one_particle(0.0, UnruhWeights.from_abs(1.0))
        assert amp[occupation_index(1, 0, 0, 0)] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 5))
    def test_one_particle_norm(self, r):
        amp = grassmann_one_particle(r, UnruhWeights.from_abs(0.8, 0.4))
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-15

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 9))
    def test_one_particle_orthogonal_to_vacuum(self, r):
        vac = grassmann_vacuum(r)
        one = grassmann_one_particle(r, UnruhWeights.from_abs(0.7, 1.2))
        assert abs(np.vdot(vac, one)) < 1e-14

    def test_joint_state_norm_and_bell_limit(self):
        amp = fermion_joint_state(scenario(0.0, 1.0)).amplitudes
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-15
        root_half = 1.0 / math.sqrt(2.0)
        assert abs(amp[0] - root_half) < 1e-15                    # |0>_M |0000>
        assert abs(amp[16 + occupation_index(1, 0, 0, 0)] - root_half) < 1e-15

    def test_joint_amplitude_read_off(self):
        # amplitude at (M=1, |1011>) is -q_R sin(r)/sqrt(2)
        r, q_abs, phase = 0.5, 0.8, 0.7
        amp = fermion_joint_state(scenario(r, q_abs, phase)).amplitudes
        q_r = q_abs * np.exp(1j * phase)
        expected = -q_r * math.sin(r) / math.sqrt(2.0)
        assert abs(amp[16 + occupation_index(1, 0, 1, 1)] - expected) < 1e-15


class TestReducedMatrices:
    def test_rho_ar_vacuum_diagonal(self):
        r = 0.6
        c = math.cos(r)
        rho = rho_alice_rob_fermi(fermion_joint_state(scenario(r, 0.8))).matrix
        assert abs(rho[0, 0] - c**4 / 2.0) < 1e-15

    def test_rho_ar_off_diagonal_coefficient(self):
        # <000| rho |110> = q_R^* C^3 / 2 in the (M, I+, I-) basis
        r, q_abs, phase = 0.6, 0.8, 1.1
        rho = rho_alice_rob_fermi(fermion_joint_state(scenario(r, q_abs, phase))).matrix
        q_r = q_abs * np.exp(1j * phase)
        expected = np.conj(q_r) * math.cos(r) ** 3 / 2.0
        assert abs(rho[0b000, 0b110] - expected) < 1e-15

    def test_rho_aar_mixed_diagonal(self):
        # |101><101| carries (|q_R|^2 S^2 + |q_L|^2 C^2)/2 in the (M, II-, II+) basis
        r, q_abs = 0.45, 0.75
        c, s = math.cos(r), math.sin(r)
        rho = rho_alice_antirob_fermi(fermion_joint_state(scenario(r, q_abs))).matrix
        expected = (q_abs**2 * s**2 + (1 - q_abs**2) * c**2) / 2.0
        assert abs(rho[0b101, 0b101] - expected) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_traces_and_validity(self, seed):
        rng = np.random.default_rng(seed)
        sc = scenario(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        joint = fermion_joint_state(sc)
        for rho in (rho_alice_rob_fermi(joint).matrix, rho_alice_antirob_fermi(joint).matrix):
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_antirob_pure_product_at_zero_squeezing(self):
        rho = rho_alice_antirob_fermi(fermion_joint_state(scenario(0.0, 1.0)))
        assert negativity(rho, "M").value == 0.0


def sc_blocks(sc, bipartition):
    return pt_blocks(sc.squeezing.r, sc.weights, bipartition)


class TestBlocks:
    def test_printed_entries(self):
        r, q_abs = 0.5, 0.8
        c, s = math.cos(r), math.sin(r)
        ql2 = 1.0 - q_abs**2
        ar_first = sc_blocks(scenario(r, q_abs), "AR")[0]
        assert abs(ar_first[0, 0] - c**2 * ql2 / 2.0) < 1e-15
        aar_second = sc_blocks(scenario(r, q_abs), "AAR")[1]
        assert abs(aar_second[2, 2] - c**4 / 2.0) < 1e-15

    def test_blocks_are_hermitian(self):
        for mat in sc_blocks(scenario(0.7, 0.6, phase=0.9), "AR"):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-14

    @pytest.mark.parametrize("bipartition", ["AR", "AAR"])
    @pytest.mark.parametrize("q_abs,phase", [(0.8, 0.9), (0.3, -2.2), (1.0, 1.0), (0.0, 0.4)])
    def test_stacked_blocks_equal_the_scalar_blocks(self, bipartition, q_abs, phase):
        weights = UnruhWeights.from_abs(q_abs, phase)
        grid = np.concatenate([[0.0, R_MAX], np.linspace(1e-3, R_MAX - 1e-3, 37)])
        stack = pt_blocks(grid, weights, bipartition)
        assert stack.shape == (grid.size, 2, 3, 3)
        looped = np.stack([pt_blocks(float(r), weights, bipartition) for r in grid])
        assert np.array_equal(stack, looped)

    def test_unknown_bipartition_rejected(self):
        with pytest.raises(ValueError, match="bipartition"):
            pt_blocks(0.1, UnruhWeights.from_abs(1.0), "AB")

    @pytest.mark.parametrize("bipartition,builder,bases", [
        ("AR", rho_alice_rob_fermi, (("100", "010", "111"), ("000", "101", "011"))),
        ("AAR", rho_alice_antirob_fermi, (("111", "001", "100"), ("011", "110", "000"))),
    ])
    def test_blocks_are_the_partial_transpose_on_their_bases(self, bipartition, builder, bases):
        # the bases named in the pt_blocks docstring, checked against the
        # full 8x8 partial transpose of the reduced state
        sc = scenario(0.6, 0.7, phase=1.1)
        sigma = partial_transpose(builder(fermion_joint_state(sc)), "M")
        for mat, basis in zip(sc_blocks(sc, bipartition), bases):
            idx = [int(label, 2) for label in basis]
            assert np.max(np.abs(sigma[np.ix_(idx, idx)] - mat)) < 1e-15

    @pytest.mark.parametrize("bipartition,builder", [
        ("AR", rho_alice_rob_fermi),
        ("AAR", rho_alice_antirob_fermi),
    ])
    def test_block_eigenvalues_sit_in_full_spectrum(self, bipartition, builder):
        # oracle: eigensolve of the full 8x8 partial transpose
        rng = np.random.default_rng(17)
        for _ in range(6):
            sc = scenario(
                rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
            )
            full = np.sort(
                hermitian_eigenvalues(partial_transpose(builder(fermion_joint_state(sc)), "M"))
            )
            for mat in sc_blocks(sc, bipartition):
                for eig in hermitian_eigenvalues(mat):
                    assert np.min(np.abs(full - eig)) < 1e-12


class TestNegativities:
    def test_exact_endpoints(self):
        start = fermionic_negativity_pair(scenario(0.0, 1.0))
        assert abs(start.n_ar - 0.5) < 1e-14
        assert start.n_aar == 0.0
        end = fermionic_negativity_pair(scenario(R_MAX, 1.0))
        assert abs(end.n_ar - 0.25) < 1e-14
        assert abs(end.n_aar - 0.25) < 1e-14

    def test_conservation_law(self):
        for r in np.linspace(0.0, R_MAX, 41):
            pair = fermionic_negativity_pair(scenario(r, 1.0))
            assert abs(pair.n_ar + pair.n_aar - 0.5) < 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        sc = scenario(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        assert method_agreement_residual(sc) < 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            fermionic_negativity_pair(scenario(0.1, 1.0), method="magic")

    def test_phase_invariance(self):
        base = fermionic_negativity_pair(scenario(0.5, 0.8))
        for phase in (math.pi / 7, math.pi / 3, 1.0):
            rotated = fermionic_negativity_pair(scenario(0.5, 0.8, phase))
            assert abs(rotated.n_ar - base.n_ar) < 1e-10
            assert abs(rotated.n_aar - base.n_aar) < 1e-10

    def test_swap_symmetry(self):
        q = 0.8
        swapped_q = math.sqrt(1.0 - q * q)
        pair = fermionic_negativity_pair(scenario(0.6, q))
        mirror = fermionic_negativity_pair(scenario(0.6, swapped_q))
        assert abs(pair.n_ar - mirror.n_aar) < 1e-14
        assert abs(pair.n_aar - mirror.n_ar) < 1e-14

    @pytest.mark.parametrize("q_abs", [1.0, 0.9, 0.8, 1 / math.sqrt(2)])
    def test_alice_rob_monotone_for_dominant_right_weight(self, q_abs):
        values = [
            fermionic_negativity_pair(scenario(r, q_abs)).n_ar
            for r in np.linspace(0.0, R_MAX, 60)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_total_at_maximal_squeezing_extremes(self):
        totals = {}
        for q_abs in (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 1 / math.sqrt(2)):
            pair = fermionic_negativity_pair(scenario(R_MAX, q_abs))
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

    def test_residual_column(self):
        rows = fermionic_curve(0.9, np.linspace(0.0, R_MAX, 5))
        assert all(row.residual < 1e-12 for row in rows)

    def test_residual_reuses_the_blocks_pair(self, monkeypatch):
        # one stack of both bipartitions covers the whole grid, and the residual reuses its rows
        calls = []
        pt_stack = fermionic._pt_stack

        def counting(r, weights):
            calls.append(np.shape(r))
            return pt_stack(r, weights)

        monkeypatch.setattr(fermionic, "_pt_stack", counting)
        grid = np.linspace(0.0, R_MAX, 10)
        rows = fermionic_curve(0.8, grid)
        assert calls == [(len(rows),)]
        assert [row.residual for row in rows] == [
            method_agreement_residual(scenario(float(r), 0.8)) for r in grid]

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
        # the blocks take cos r and sin r once per row for both bipartitions, not once per
        # bipartition; the oracle takes its own, once per row for the joint-state table
        calls = collections.Counter()

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def cos(self, x):
                calls["cos"] += 1
                return math.cos(x)

            def sin(self, x):
                calls["sin"] += 1
                return math.sin(x)

        monkeypatch.setattr(fermionic, "math", CountingMath())
        weights = UnruhWeights.from_abs(0.8)
        grid = np.linspace(0.0, R_MAX, 9)
        fermionic._blocks_negativities(grid, weights)
        assert calls == {"cos": 9, "sin": 9}
        calls.clear()
        fermionic._full_negativities(grid.tolist(), weights)
        assert calls == {"cos": 9, "sin": 9}
        calls.clear()
        rows = fermionic_curve(0.8, grid)
        assert calls == {"cos": 2 * len(rows), "sin": 2 * len(rows)}

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
        assert calls == [(7, 2, 2, 3, 3), (7, 2, 8, 8)]
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
        pair = fermionic_negativity_pair(FermionScenario(FermionSqueezing(r), weights), "blocks")
        assert (row.r, row.n_ar, row.n_aar) == (r, pair.n_ar, pair.n_aar)


#: r = 0, the top of the range, and tiny r, where the flush acts
EDGE_GRID = [0.0, R_MAX, 1e-300, 6.3481234552695825e-80]


def qops_full_pair(sc):
    """The 8x8 pair as a scalar ``qops.negativity`` of each reduced state."""
    joint = fermion_joint_state(sc)
    return (negativity(rho_alice_rob_fermi(joint), "M").value,
            negativity(rho_alice_antirob_fermi(joint), "M").value)


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
    expected = [qops_full_pair(FermionScenario(FermionSqueezing(r), weights)) for r in grid]
    stacked = fermionic._full_negativities(grid, weights).tolist()
    assert [[v.hex() for v in pair] for pair in stacked] == [[v.hex() for v in pair] for pair in expected]
    # the curve's residual column is the distance of its blocks pair from that pair
    rows = fermionic_curve(q_abs, grid) if phase == 0.0 else []
    for row, (e_ar, e_aar) in zip(rows, expected):
        assert row.residual.hex() == max(abs(row.n_ar - e_ar), abs(row.n_aar - e_aar)).hex()


@pytest.mark.parametrize("q_abs, phase", [(0.8, 0.0), (1 / math.sqrt(2), 1.1), (1.0, -2.0), (0.0, 0.4)])
def test_scalar_full_pair_is_the_curve_row(q_abs, phase):
    # fermionic_negativity_pair(sc, "full") is the curve's stacked route at one r
    weights = UnruhWeights.from_abs(q_abs, phase)
    scenarios = [FermionScenario(FermionSqueezing(r), weights) for r in EDGE_GRID + [1e-9, 0.3]]
    stacked = fermionic._full_negativities([sc.squeezing.r for sc in scenarios], weights).tolist()
    for sc, (n_ar, n_aar) in zip(scenarios, stacked, strict=True):
        pair = fermionic_negativity_pair(sc, "full")
        assert (pair.n_ar.hex(), pair.n_aar.hex()) == (n_ar.hex(), n_aar.hex())


@pytest.mark.parametrize("q_abs, phase", [(0.75, 0.0), (0.9, 0.0), (0.3, 0.0), (0.75, 0.7)])
def test_tiny_squeezing_routes_agree(q_abs, phase):
    # below r ~ 1e-40 squares of the 8x8 partial-transpose entries underflow, and without
    # the flush of tiny joint-state amplitudes the 8x8 eigensolve lost up to ~3e-3
    weights = UnruhWeights.from_abs(q_abs, phase)
    worst = max(method_agreement_residual(FermionScenario(FermionSqueezing(r), weights))
                for r in np.geomspace(1e-300, 1e-40, 1001).tolist())
    assert worst <= 1e-10


def test_tiny_weights_need_no_flush():
    # the flush acts only at tiny r; a tiny weight at larger r gives no underflow trouble
    for q in np.geomspace(1e-300, 1e-8, 40).tolist():
        for weights in (UnruhWeights.from_abs(q), UnruhWeights(1.0, q)):
            for r in (1e-3, 0.3, 0.7):
                assert method_agreement_residual(FermionScenario(FermionSqueezing(r), weights)) <= 1e-10


def test_flush_leaves_ordinary_joint_states_alone():
    # r = 0, r >= sqrt(eps) and tiny weights keep every amplitude, with its bits
    for r, q_abs, phase in ((0.0, 0.8, 0.0), (1.5e-8, 0.9, 0.0), (0.3, 0.8, 0.7), (R_MAX, 1e-9, 0.0),
                            (0.0, 1e-9, 0.3)):
        sc = scenario(r, q_abs, phase)
        amp = np.zeros(32, dtype=complex)
        amp[:16] = grassmann_vacuum(r) / math.sqrt(2.0)
        amp[16:] = grassmann_one_particle(r, sc.weights) / math.sqrt(2.0)
        assert fermion_joint_state(sc).amplitudes.tobytes() == amp.tobytes()


def test_flush_zeroes_only_amplitudes_below_eps_times_the_largest():
    sc = scenario(1e-80, 0.75)
    amp = fermion_joint_state(sc).amplitudes
    exact = np.concatenate([grassmann_vacuum(1e-80), grassmann_one_particle(1e-80, sc.weights)]) / math.sqrt(2.0)
    size = np.abs(exact)
    tiny = (size > 0.0) & (size < fermionic.FLUSH * size.max())
    assert tiny.sum() == 5  # every nonzero amplitude with a factor sin r
    assert np.array_equal(amp, np.where(tiny, 0.0, exact))


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
    if 0.0 < r < math.sqrt(fermionic.FLUSH):
        size = np.abs(joint)
        joint[size < fermionic.FLUSH * size.max()] = 0.0
    return vac, one, joint


#: r = 0, pi/4, the flush range and its edge (sqrt(eps) ~ 1.49e-8), and an ordinary value
TABLE_R = [0.0, R_MAX, 1e-300, 5e-324, 1.4e-8, 1.6e-8, 0.3]


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
        public = fermion_joint_state(scenario(r, q_abs, phase)).amplitudes
        assert np.array_equal(public.view(np.uint64), joint.view(np.uint64))
        assert np.array_equal(grassmann_vacuum(r).view(np.uint64), vac.view(np.uint64))
        assert np.array_equal(grassmann_one_particle(r, weights).view(np.uint64), one.view(np.uint64))
