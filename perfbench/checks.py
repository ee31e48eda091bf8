"""Output checker with references that do not go through the code under test.

Every operation (one sweep row or one packet report) gets a status:

* ``ok``          the program certified it and the check accepts it;
* ``unconverged`` the program itself flagged the row as not converged;
* ``rejected``    the program certified it but the check rejects it;
* ``error``       the call raised, exited with an unexpected code, or its
                  output is missing or malformed.

Everything but ``ok`` counts as failed.  A failure is *known* when it is
one of the two bosonic defects the roadmap already names: a row the program
flags unconverged (reach of the dense route), or a certified row that is
within the program's own absolute tolerance ``DELTA_TOL`` of the reference
but outside the relative one (convergence judged absolutely, not relative
to the value).  Any other failure is unexpected and makes the run incorrect.

References:

* bosonic general weights: a dense state built here from the squeezed-vacuum
  coefficients, reduced and eigensolved with the ``qops`` oracle at 40 more
  Fock levels than the row used;
* bosonic extremal weights: the 2x2-sector block series in determinant form
  (no cancellation), summed exactly up to 2^20 terms with an integral plus
  Euler-Maclaurin tail beyond;
* fermions: the 32-dimensional joint state built here from its coefficient
  table, reduced and partially transposed with batched numpy eigensolves;
* packets: Parseval and round-trip residuals, and for log-Gaussian packets
  the closed-form cropped-Gaussian images.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: the program's convergence tolerance, applied here relative to the value
REL_TOL = 1e-6
#: partial-transpose eigenvalues above -1e-12 count as zero in the program
ABS_FLOOR = 1e-12
#: the program's absolute tolerance; certified errors below it are the known defect
DELTA_TOL = 1e-6
#: extra Fock levels of the dense oracle over the row's own truncation
ORACLE_EXTRA_LEVELS = 40
#: tolerance of the packet acceptance criteria (Parseval, round trip, closed form)
PACKET_TOL = 1e-6
#: fermionic blocks-vs-full agreement the program promises
FERMION_RESIDUAL_TOL = 1e-10
FERMION_REL_TOL = 1e-9
N_MAX = 0.5

_SERIES_HEAD = 1 << 20
_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


@dataclass
class Op:
    call: int
    index: int
    status: str
    known: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# references


def _series_terms(r: float):
    """Negative eigenvalue of the n-th 2x2 sector for |q_R| = 1, as a function of n.

    The sector [[a, b], [b, d]] has a d - b^2 = -T^{2n} / (4 cosh^6 r) exactly,
    so -lambda_min = T^{2n} / (4 cosh^6 r lambda_max); pulling T^n out of
    lambda_max leaves a smooth, cancellation-free expression.
    """
    t = math.tanh(r)
    big_t = t * t
    c2 = math.cosh(r) ** 2
    a = big_t / (2.0 * c2)
    log_t = math.log(big_t)

    def term(n):
        n = np.asarray(n, dtype=float)
        b2 = (n + 1.0) / (4.0 * c2**3)
        d = n / (2.0 * big_t * c2 * c2)
        lam_max = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b2)
        return np.exp(n * log_t) / (4.0 * c2**3 * lam_max)

    return term, -log_t


def block_series_reference(r: float) -> float:
    """Extremal-weight bosonic negativity, tail-corrected."""
    if r == 0.0:
        return 0.5
    term, decay = _series_terms(r)
    head_n = min(_SERIES_HEAD, int(60.0 / decay) + 64)
    total = math.fsum(term(np.arange(head_n)))
    if head_n == _SERIES_HEAD:
        # sum_{n >= N} f(n) = int_N^inf f + f(N)/2 - f'(N)/12 + ...; the
        # integrand decays like e^{-decay (n - N)}, so 80 unit panels of
        # 40-point Gauss-Legendre reach e^-80
        edges = head_n + np.arange(81) / decay
        lo, hi = edges[:-1, None], edges[1:, None]
        nodes = 0.5 * (hi - lo) * _GL_X + 0.5 * (hi + lo)
        integral = math.fsum((0.5 * (hi - lo) * _GL_W * term(nodes)).ravel())
        slope = float(term(head_n + 1.0) - term(head_n - 1.0)) / 2.0
        total += integral + 0.5 * float(term(head_n)) - slope / 12.0
    return total


def dense_oracle(q_abs: float, r: float, n_max: int) -> tuple[float, float, float]:
    """(N_AR, N_AAR, discarded weight) from the qops route at truncation n_max."""
    from unruhkit import qops

    d = n_max + 1
    c = math.cosh(r)
    f = math.tanh(r) ** np.arange(d) / c
    psi = np.zeros((2, d, d))
    k = np.arange(d)
    psi[0, k, k] = f
    m = np.arange(n_max)
    excitation = f[:n_max] * np.sqrt(m + 1.0) / c
    psi[1, m, m + 1] = math.sqrt(max(0.0, 1.0 - q_abs * q_abs)) * excitation
    psi[1, m + 1, m] = q_abs * excitation
    psi /= np.linalg.norm(psi)
    space = qops.TensorSpace((("M", 2), ("I", d), ("II", d)))
    ket = qops.FockKet(space, psi.ravel())
    n_ar = qops.negativity(qops.reduced_density(ket, ("M", "I")), "M").value
    n_aar = qops.negativity(qops.reduced_density(ket, ("M", "II")), "M").value
    return n_ar, n_aar, math.tanh(r) ** (2 * (n_max + 1))


def fermion_reference(q_abs: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (N_AR, N_AAR) over an r grid from the explicit Grassmann state.

    Slots (I+, II-, I-, II+), basis index 8n + 4n' + 2n'' + n'''; joint state
    (|0>_M |vac> + |1>_M |one>)/sqrt(2).
    """
    q_r, q_l = q_abs, math.sqrt(max(0.0, 1.0 - q_abs * q_abs))
    c, s = np.cos(r), np.sin(r)
    psi = np.zeros((r.size, 2, 16))
    psi[:, 0, 0b0000] = c * c
    psi[:, 0, 0b0011] = -s * c
    psi[:, 0, 0b1100] = s * c
    psi[:, 0, 0b1111] = -s * s
    psi[:, 1, 0b1000] = q_r * c
    psi[:, 1, 0b1011] = -q_r * s
    psi[:, 1, 0b1101] = q_l * s
    psi[:, 1, 0b0001] = q_l * c
    psi = psi.reshape(r.size, 2, 2, 2, 2, 2) / math.sqrt(2.0)

    def negativity(reduce: str) -> np.ndarray:
        rho = np.einsum(reduce, psi, psi)
        # transpose the M factor: row (n, a, b), column (m, c, d)
        pt = np.einsum("zmabncd->znabmcd", rho).reshape(r.size, 8, 8)
        eig = np.linalg.eigvalsh(pt)
        return -np.where(eig < -ABS_FLOOR, eig, 0.0).sum(axis=1) + 0.0

    # axes after z: M, I+ (p), II- (q), I- (u), II+ (v)
    return (negativity("zMpquv,zNPqUv->zMpuNPU"), negativity("zMpquv,zNpQuV->zMqvNQV"))


# ---------------------------------------------------------------------------
# classification


def _close(value: float, ref: float, rel: float, floor: float) -> bool:
    return abs(value - ref) <= rel * abs(ref) + floor


def _parse_csv(data: bytes | None, header: tuple[str, ...], expected: int):
    if data is None:
        raise ValueError("output file missing")
    lines = data.decode("utf-8").splitlines()
    if lines[:2] != ["# schema=1", ",".join(header)]:
        raise ValueError("unexpected CSV preamble")
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != expected or any(len(row) != len(header) for row in rows):
        raise ValueError(f"expected {expected} rows of {len(header)} fields")
    return rows


def _boson_ops(i: int, call, code, data: bytes | None) -> list[Op]:
    p = call.params
    rows = _parse_csv(data, ("q_abs", "r", "n_ar", "n_aar", "n_max_used", "converged"), call.ops)
    r_grid = np.linspace(p["r_min"], p["r_max"], p["steps"])
    q = p["q"]
    ops = []
    any_unconverged = False
    for j, (q_txt, r_txt, ar_txt, aar_txt, n_txt, conv_txt) in enumerate(rows):
        r = float(r_grid[j])
        n_ar, n_aar, n_used = float(ar_txt), float(aar_txt), int(n_txt)
        if conv_txt not in ("true", "false") or not math.isclose(float(r_txt), r, rel_tol=1e-11, abs_tol=1e-15) \
                or not math.isclose(float(q_txt), q, rel_tol=1e-11):
            ops.append(Op(i, j, "error", detail="row does not match its input"))
            continue
        if not all(math.isfinite(v) and -ABS_FLOOR <= v <= N_MAX + ABS_FLOOR for v in (n_ar, n_aar)):
            ops.append(Op(i, j, "rejected", detail=f"N outside [0, 1/2]: {n_ar}, {n_aar}"))
            continue
        if conv_txt == "false":
            any_unconverged = True
            ops.append(Op(i, j, "unconverged", known=True, detail=f"r={r:.4f} n_max_used={n_used}"))
            continue
        if q in (0.0, 1.0):
            value = block_series_reference(r)
            ref = (value, 0.0) if q == 1.0 else (0.0, value)
            slack = 0.0
        else:
            ref_ar, ref_aar, slack = dense_oracle(q, r, n_used + ORACLE_EXTRA_LEVELS)
            ref = (ref_ar, ref_aar)
        got = (n_ar, n_aar)
        if all(_close(g, e, REL_TOL, ABS_FLOOR + slack) for g, e in zip(got, ref)):
            ops.append(Op(i, j, "ok"))
            continue
        err = max(abs(g - e) for g, e in zip(got, ref))
        ops.append(Op(i, j, "rejected", known=err <= DELTA_TOL,
                      detail=f"r={r:.4f} got={got} ref={ref} abs_err={err:.3e}"))
    if code != (2 if any_unconverged else 0):
        return [Op(i, op.index, "error", detail=f"exit code {code}") for op in ops]
    return ops


def _fermion_ops(i: int, call, code, data: bytes | None) -> list[Op]:
    p = call.params
    rows = _parse_csv(data, ("q_abs", "r", "n_ar", "n_aar", "method_agreement_residual"), call.ops)
    if code != 0:
        return [Op(i, j, "error", detail=f"exit code {code}") for j in range(len(rows))]
    r_grid = np.linspace(p["r_min"], p["r_max"], p["steps"])
    ref_ar, ref_aar = fermion_reference(p["q"], r_grid)
    ops = []
    for j, (_, r_txt, ar_txt, aar_txt, res_txt) in enumerate(rows):
        n_ar, n_aar, residual = float(ar_txt), float(aar_txt), float(res_txt)
        problems = []
        if not math.isclose(float(r_txt), float(r_grid[j]), rel_tol=1e-11, abs_tol=1e-15):
            problems.append("r does not match its input")
        if not residual <= FERMION_RESIDUAL_TOL:
            problems.append(f"residual {residual:.3e}")
        if not (n_ar >= -ABS_FLOOR and n_aar >= -ABS_FLOOR and n_ar + n_aar <= N_MAX + ABS_FLOOR):
            problems.append(f"N_AR + N_AAR = {n_ar + n_aar}")
        if not (_close(n_ar, ref_ar[j], FERMION_REL_TOL, ABS_FLOOR)
                and _close(n_aar, ref_aar[j], FERMION_REL_TOL, ABS_FLOOR)):
            problems.append(f"got ({n_ar}, {n_aar}) ref ({ref_ar[j]}, {ref_aar[j]})")
        ops.append(Op(i, j, "rejected" if problems else "ok", detail="; ".join(problems)))
    return ops


def _closed_form_problem(p: dict, table: list[dict]) -> str:
    from unruhkit.wavepacket import BogoliubovKernel, LogGaussianParams, closed_form_g

    exact = closed_form_g(LogGaussianParams(p["lam"], p["mu"]), BogoliubovKernel(epsilon=1))
    omega = exact.omega_grid
    worst = 0.0
    for entry in table:
        k = int(np.argmin(np.abs(omega - entry["omega"])))
        if not math.isclose(float(omega[k]), entry["omega"], rel_tol=1e-11, abs_tol=1e-12):
            return f"table frequency {entry['omega']} is not on the packet grid"
        worst = max(worst, abs(entry["abs_g_r"] - abs(exact.g_r[k])), abs(entry["abs_g_l"] - abs(exact.g_l[k])))
    return "" if worst <= PACKET_TOL else f"closed form off by {worst:.3e}"


def _packet_ops(i: int, call, code, data: bytes | None) -> list[Op]:
    if code != 0 or data is None:
        return [Op(i, 0, "error", detail=f"exit code {code}")]
    payload = json.loads(data)
    report = payload["report"]
    problems = []
    values = [payload["parseval_residual"], payload["round_trip_error"]] + [
        v for k, v in report.items() if k != "sma_valid"
    ]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        problems.append("non-finite report value")
    elif not 0.0 <= report["leakage"] <= 0.5:
        problems.append(f"leakage {report['leakage']}")
    if not payload["parseval_residual"] <= PACKET_TOL:
        problems.append(f"Parseval residual {payload['parseval_residual']:.3e}")
    if not payload["round_trip_error"] <= PACKET_TOL:
        problems.append(f"round trip {payload['round_trip_error']:.3e}")
    if call.params["family"] == "log-gaussian":
        problem = _closed_form_problem(call.params, payload["table"])
        if problem:
            problems.append(problem)
    return [Op(i, 0, "rejected" if problems else "ok", detail="; ".join(problems))]


_CLASSIFIERS = {"boson": _boson_ops, "fermion": _fermion_ops, "packet": _packet_ops}


def classify(i: int, call, code, data: bytes | None) -> list[Op]:
    """Status of every operation of call ``i`` from its exit code and output bytes."""
    try:
        ops = _CLASSIFIERS[call.kind](i, call, code, data)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return [Op(i, j, "error", detail=f"unreadable output: {exc}") for j in range(call.ops)]
    if len(ops) != call.ops:
        return [Op(i, j, "error", detail="wrong number of operations") for j in range(call.ops)]
    return ops


# ---------------------------------------------------------------------------
# self-test


def perturb(call, data: bytes, index: int) -> bytes:
    """Copy of an output with operation ``index`` changed.

    Sweep rows get their larger negativity scaled by 1 + 1e-3 (plus 1e-6);
    packet reports get the peak |g_R| of their table scaled by 1 + 1e-3 and
    a round-trip residual of at least 1e-3.
    """
    if call.kind == "packet":
        payload = json.loads(data)
        peak = max(payload["table"], key=lambda e: e["abs_g_r"] + e["abs_g_l"])
        peak["abs_g_r"] *= 1.001
        payload["round_trip_error"] = max(payload["round_trip_error"], 1e-3)
        return (json.dumps(payload, indent=2) + "\n").encode()
    lines = data.decode().splitlines()
    fields = lines[2 + index].split(",")
    k = 2 if abs(float(fields[2])) >= abs(float(fields[3])) else 3
    fields[k] = repr(float(fields[k]) * 1.001 + 1e-6)
    lines[2 + index] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def self_test(calls, codes, outputs, ops: list[Op]) -> dict:
    """Perturb the first accepted operation and confirm the checker now fails it."""
    target = next((op for op in ops if op.ok), None)
    if target is None:
        return {"ran": False, "counted_failed": False, "reason": "no accepted operation to perturb"}
    call = calls[target.call]
    bad = perturb(call, outputs[target.call], target.index)
    again = classify(target.call, call, codes[target.call], bad)
    status = again[target.index].status
    return {"ran": True, "call": target.call, "op": target.index, "status_after": status,
            "counted_failed": status != "ok"}
