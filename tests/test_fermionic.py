"""Grassmann-scalar states, reduced matrices, blocks and negativity curves."""

import math

import numpy as np
import pytest

import unruhkit.fermionic as fermionic
from unruhkit.fermionic import (
    FermionScenario,
    FermionSqueezing,
    R_MAX,
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
        sq = FermionSqueezing.from_rindler_energy(1.0)
        assert abs(math.tan(sq.r) - math.exp(-math.pi)) < 1e-15
        assert FermionSqueezing.from_rindler_energy(0.0).r == pytest.approx(R_MAX)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FermionSqueezing(1.0)
        with pytest.raises(ValueError):
            FermionSqueezing.from_acceleration(-1.0, 1.0)


class TestStates:
    def test_vacuum_at_zero_squeezing(self):
        amp = grassmann_vacuum(0.0).amplitudes
        assert amp[0] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 7))
    def test_vacuum_norm_is_exactly_one(self, r):
        assert abs(grassmann_vacuum(r).norm() - 1.0) < 1e-15

    def test_vacuum_amplitudes_at_maximal_squeezing(self):
        amp = grassmann_vacuum(R_MAX).amplitudes
        assert abs(amp[occupation_index(0, 0, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(0, 0, 1, 1)] + 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 0, 0)] - 0.5) < 1e-15
        assert abs(amp[occupation_index(1, 1, 1, 1)] + 0.5) < 1e-15

    def test_one_particle_at_zero_squeezing(self):
        amp = grassmann_one_particle(0.0, UnruhWeights.from_abs(1.0)).amplitudes
        assert amp[occupation_index(1, 0, 0, 0)] == 1.0
        assert np.count_nonzero(amp) == 1

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 5))
    def test_one_particle_norm(self, r):
        ket = grassmann_one_particle(r, UnruhWeights.from_abs(0.8, 0.4))
        assert abs(ket.norm() - 1.0) < 1e-15

    @pytest.mark.parametrize("r", np.linspace(0.0, R_MAX, 9))
    def test_one_particle_orthogonal_to_vacuum(self, r):
        vac = grassmann_vacuum(r)
        one = grassmann_one_particle(r, UnruhWeights.from_abs(0.7, 1.2))
        assert abs(vac.overlap(one)) < 1e-14

    def test_joint_state_norm_and_bell_limit(self):
        ket = fermion_joint_state(scenario(0.0, 1.0))
        assert abs(ket.norm() - 1.0) < 1e-15
        amp = ket.amplitudes
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
        rho = rho_alice_rob_fermi(scenario(r, 0.8)).matrix
        assert abs(rho[0, 0] - c**4 / 2.0) < 1e-15

    def test_rho_ar_off_diagonal_coefficient(self):
        # <000| rho |110> = q_R^* C^3 / 2 in the (M, I+, I-) basis
        r, q_abs, phase = 0.6, 0.8, 1.1
        rho = rho_alice_rob_fermi(scenario(r, q_abs, phase)).matrix
        q_r = q_abs * np.exp(1j * phase)
        expected = np.conj(q_r) * math.cos(r) ** 3 / 2.0
        assert abs(rho[0b000, 0b110] - expected) < 1e-15

    def test_rho_aar_mixed_diagonal(self):
        # |101><101| carries (|q_R|^2 S^2 + |q_L|^2 C^2)/2 in the (M, II-, II+) basis
        r, q_abs = 0.45, 0.75
        c, s = math.cos(r), math.sin(r)
        rho = rho_alice_antirob_fermi(scenario(r, q_abs)).matrix
        expected = (q_abs**2 * s**2 + (1 - q_abs**2) * c**2) / 2.0
        assert abs(rho[0b101, 0b101] - expected) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_traces_and_validity(self, seed):
        rng = np.random.default_rng(seed)
        sc = scenario(rng.uniform(0, R_MAX), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        for rho in (rho_alice_rob_fermi(sc), rho_alice_antirob_fermi(sc)):
            assert abs(rho.trace() - 1.0) < 1e-14
            rho.validate()

    def test_antirob_pure_product_at_zero_squeezing(self):
        rho = rho_alice_antirob_fermi(scenario(0.0, 1.0))
        assert negativity(rho, "M").value == 0.0


class TestBlocks:
    def test_printed_entries(self):
        r, q_abs = 0.5, 0.8
        c, s = math.cos(r), math.sin(r)
        ql2 = 1.0 - q_abs**2
        ar = pt_blocks(scenario(r, q_abs), "AR")
        assert abs(ar.first[0, 0] - c**2 * ql2 / 2.0) < 1e-15
        aar = pt_blocks(scenario(r, q_abs), "AAR")
        assert abs(aar.second[2, 2] - c**4 / 2.0) < 1e-15
        assert ar.first_basis == ("100", "010", "111")
        assert aar.second_basis == ("011", "110", "000")

    def test_blocks_are_hermitian(self):
        blocks = pt_blocks(scenario(0.7, 0.6, phase=0.9), "AR")
        for mat in (blocks.first, blocks.second):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-14

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
                hermitian_eigenvalues(partial_transpose(builder(sc), "M"))
            )
            blocks = pt_blocks(sc, bipartition)
            for mat in (blocks.first, blocks.second):
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
        calls = []

        def counting(scenario, bipartition):
            calls.append(bipartition)
            return pt_blocks(scenario, bipartition)

        monkeypatch.setattr(fermionic, "pt_blocks", counting)
        rows = fermionic_curve(0.8, np.linspace(0.0, R_MAX, 10))
        assert len(calls) == 2 * len(rows)
        sc = scenario(0.4, 0.8)
        pair = fermionic_negativity_pair(sc)
        assert method_agreement_residual(sc, pair) == method_agreement_residual(sc)
