"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines inline.
"""

import math

import numpy as np
import pytest

from unruhkit.bosonic import bosonic_negativity_pair, _dense_pairs
from unruhkit.cli import main
from unruhkit.fermionic import (
    R_MAX,
    SWAP_POINT,
    fermionic_negativity_pair,
    method_agreement_residual,
    _full_negativities,
)
from unruhkit.wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
    alternate_packets,
    closed_form_g,
    f_from_g,
    f_log_gaussian,
    g_from_f,
    parseval_residual,
    peaking_report_from_pair,
    rapidity_gaussian,
)
from unruhkit.weights import UnruhWeights


def point(r, q_abs, phase=0.0):
    return r, UnruhWeights.from_abs(q_abs, phase)


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_fermionic_exact_values():
    tol = 1e-9
    start = fermionic_negativity_pair(*point(0.0, 1.0))
    end = fermionic_negativity_pair(*point(R_MAX, 1.0))
    assert abs(start.n_ar - 0.5) < tol
    assert abs(end.n_ar - 0.25) < tol
    assert abs(end.n_aar - 0.25) < tol
    ok("1 (fermionic exact values 0.5 / 0.25 / 0.25)")


def test_criterion_2_fermionic_conservation_law():
    worst = 0.0
    for r in np.linspace(0.0, R_MAX, 200):
        pair = fermionic_negativity_pair(*point(float(r), 1.0))
        worst = max(worst, abs(pair.n_ar + pair.n_aar - 0.5))
    assert worst < 1e-9
    ok(f"2 (fermionic conservation law, max deviation {worst:.2e})")


def test_criterion_3_block_full_oracle_equivalence():
    worst = 0.0
    for r in np.linspace(0.0, R_MAX, 20):
        for q in np.linspace(0.0, 1.0, 20):
            worst = max(worst, method_agreement_residual(*point(float(r), float(q))))
    assert worst < 1e-10
    ok(f"3 (3x3 blocks vs full 8x8 partial transpose, max residual {worst:.2e})")


@pytest.mark.parametrize("q_abs", [0.9, 0.8, 0.7])
def test_criterion_4_antirob_interior_minimum(q_abs):
    # The negativity between Alice and the wedge that carries the minor Unruh
    # weight has an interior minimum in r.  Above the swap point that wedge is
    # the anti-Rob one; below it the swap rule N_AAR(q) = N_AR(sqrt(1 - q^2))
    # exchanges the roles, and the minimum moves to Alice-Rob.
    grid = np.linspace(0.0, R_MAX, 400)
    pairs = [fermionic_negativity_pair(*point(float(r), q_abs)) for r in grid]
    mirror = math.sqrt(1.0 - q_abs * q_abs)
    mirrored = _full_negativities(grid.tolist(), UnruhWeights.from_abs(mirror)).tolist()
    swap_gap = max(
        max(abs(p.n_aar - m_ar), abs(p.n_ar - m_aar)) for p, (m_ar, m_aar) in zip(pairs, mirrored)
    )
    assert swap_gap < 1e-12, f"swap rule broken at |q_R|={q_abs}: gap {swap_gap:.2e}"
    n_aar = np.array([p.n_aar for p in pairs])
    if q_abs > SWAP_POINT:
        label, values = "Alice-AntiRob", n_aar
    else:
        label, values = "Alice-Rob", np.array([p.n_ar for p in pairs])
        k_aar = int(n_aar.argmin())
        assert k_aar == len(grid) - 1, (
            f"below the swap point N_AAR should fall to its minimum at r = pi/4, "
            f"found the minimum at r={grid[k_aar]:.3f}"
        )
    k = int(values.argmin())
    interior = 0 < k < len(grid) - 1 and values[k] < values[0] and values[k] < values[-1]
    if not interior:
        print(f"ACCEPTANCE 4 ({label} interior minimum, |q_R|={q_abs}): FAIL")
        pytest.fail(
            f"{label} negativity at |q_R|={q_abs} has no interior minimum on "
            f"[0, pi/4] (minimum at grid index {k} of {len(grid)})"
        )
    ok(
        f"4 ({label} interior minimum, |q_R|={q_abs}, at r={grid[k]:.3f}; "
        f"swap rule gap {swap_gap:.2e})"
    )


def test_criterion_4_symmetric_weights_identical():
    q = 1.0 / math.sqrt(2.0)
    worst = max(
        abs((p := fermionic_negativity_pair(*point(float(r), q))).n_ar - p.n_aar)
        for r in np.linspace(0.0, R_MAX, 100)
    )
    assert worst < 1e-10
    ok(f"4 (|q_R|=1/sqrt2 bipartitions identical, max gap {worst:.2e})")


def test_criterion_5_bosonic_closed_form_anchor():
    for q in (1.0, 0.9, 0.8, 0.7):
        ql2 = 1.0 - q * q
        expected = (math.sqrt(ql2 * ql2 + 4.0 * q * q) - ql2) / 4.0
        pair = bosonic_negativity_pair(*point(0.0, q))
        assert abs(pair.n_ar - expected) < 1e-8
    ok("5 (bosonic r=0 closed-form anchor, |q_R| in {1, 0.9, 0.8, 0.7})")


def test_criterion_6_bosonic_decay_and_ordering():
    # monotone decay with squeezing for the canonical weights
    values = [
        bosonic_negativity_pair(*point(float(r), 1.0)).n_ar
        for r in np.linspace(0.0, 1.5, 16)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    # deep-squeezing point through the exact block series
    deep = bosonic_negativity_pair(*point(3.0, 1.0))
    assert deep.report.converged
    assert deep.n_ar < 0.01
    # Fig-2 style ordering at fixed moderate squeezing
    ordered = [bosonic_negativity_pair(*point(0.5, q)).n_ar for q in (1.0, 0.9, 0.8, 0.7)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    ok(f"6 (bosonic decay, N_AR(r=3)={deep.n_ar:.4f} < 0.01, q-ordering at r=0.5)")


def test_criterion_7_bosonic_truncation_convergence():
    worst_delta = 0.0
    for q in (1.0, 0.9, 0.8, 0.7):
        for r in np.linspace(0.0, 1.5, 7):
            pair = next(_dense_pairs(np.array([r]), UnruhWeights.from_abs(q)))
            rep = pair.report
            assert rep.converged, f"not converged at (q={q}, r={r})"
            worst_delta = max(worst_delta, rep.hi[0] - pair.n_ar, rep.hi[1] - pair.n_aar)
    assert worst_delta <= 1e-7
    ok(f"7 (dense truncation convergence, max bracket width={worst_delta:.2e} <= 1e-7)")


def test_criterion_8_phase_invariance_both_models():
    phases = (math.pi / 7, math.pi / 3, 1.0)
    base_b = bosonic_negativity_pair(*point(0.6, 0.8))
    base_f = fermionic_negativity_pair(*point(0.5, 0.8))
    worst = 0.0
    for phi in phases:
        rot_b = bosonic_negativity_pair(*point(0.6, 0.8, phase=phi))
        worst = max(worst, abs(rot_b.n_ar - base_b.n_ar), abs(rot_b.n_aar - base_b.n_aar))
        rot_f = fermionic_negativity_pair(*point(0.5, 0.8, phase=phi))
        worst = max(worst, abs(rot_f.n_ar - base_f.n_ar), abs(rot_f.n_aar - base_f.n_aar))
        full_ar, full_aar = _full_negativities([0.5], UnruhWeights.from_abs(0.8, phi))[0].tolist()
        worst = max(worst, abs(full_ar - base_f.n_ar), abs(full_aar - base_f.n_aar))
    assert worst < 1e-10
    ok(f"8 (phase invariance of both models, max change {worst:.2e})")


def test_criterion_9_wavepacket_oracle():
    params = LogGaussianParams(1.0, 5.0)
    kernel = BogoliubovKernel(epsilon=1)
    f = f_log_gaussian(params)
    pair = g_from_f(f, kernel)
    exact = closed_form_g(params, kernel, omega_grid=pair.omega_grid)
    pointwise = max(
        float(np.max(np.abs(pair.g_r - exact.g_r))),
        float(np.max(np.abs(pair.g_l - exact.g_l))),
    )
    assert pointwise < 1e-6
    parseval = parseval_residual(f, pair)
    assert parseval < 1e-6
    round_trip = f.l2_distance(f_from_g(pair, f.x))
    assert round_trip < 1e-6
    report = peaking_report_from_pair(f, pair)
    assert report.uncertainty_product >= 0.5 - 1e-3
    assert abs(report.uncertainty_product - 0.5) <= 0.01
    ok(
        f"9 (quadrature vs closed form {pointwise:.2e}, Parseval {parseval:.2e}, "
        f"round trip {round_trip:.2e}, product {report.uncertainty_product:.4f})"
    )


def test_criterion_10_alternate_and_massive_packets():
    for kind in ("gamma", "bessel"):
        f = alternate_packets(kind, LogGaussianParams(1.0, 5.0))
        assert abs(f.norm_squared() - 1.0) < 1e-8
        pair = g_from_f(f)
        assert parseval_residual(f, pair) < 1e-6
        assert f.l2_distance(f_from_g(pair, f.x)) < 1e-6
    massless = f_log_gaussian(LogGaussianParams(1.0, 5.0, omega0=1.0))
    massive = rapidity_gaussian(1.0, 5.0, 1.0)
    pair_a = g_from_f(massless, BogoliubovKernel(epsilon=1))
    pair_b = g_from_f(massive, omega_grid=pair_a.omega_grid)
    gap = max(
        float(np.max(np.abs(pair_a.g_r - pair_b.g_r))),
        float(np.max(np.abs(pair_a.g_l - pair_b.g_l))),
    )
    assert gap < 1e-6
    ok(f"10 (gamma/bessel suites pass, massive-massless map gap {gap:.2e})")


def test_criterion_11_cli_reproducibility(tmp_path):
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    args = ["boson", "--q", "1,0.8", "--r-min", "0", "--r-max", "1", "--steps", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    fermion_csv = tmp_path / "fermion.csv"
    assert main(
        ["fermion", "--q", "1", "--r-min", "0", "--r-max", str(R_MAX), "--steps", "101",
         "--out", str(fermion_csv)]
    ) == 0
    lines = fermion_csv.read_text().splitlines()
    assert lines[0] == "# schema=1"
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert float(rows[0]["n_ar"]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[-1]["n_ar"]) == pytest.approx(0.25, abs=1e-9)
    assert float(rows[-1]["n_aar"]) == pytest.approx(0.25, abs=1e-9)
    worst = max(abs(float(r["n_ar"]) + float(r["n_aar"]) - 0.5) for r in rows)
    assert worst < 1e-9
    ok(f"11 (CLI byte-identical rerun; re-parsed sweep obeys criteria 1-2, {worst:.2e})")
