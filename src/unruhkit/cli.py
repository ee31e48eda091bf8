"""Command-line front end for the negativity sweeps and packet diagnostics.

Three subcommands: ``boson`` and ``fermion`` sweep the squeezing parameter
at fixed |q_R| values and write CSV or JSON tables; ``packet`` prints the
peaking diagnostics of one wave packet as human-readable text plus an
optional JSON report.  Output is deterministic for a fixed spec: stable row
order and 12-significant-digit float formatting, so a rerun is
byte-identical.  A ``key = value`` config file can pre-fill any flag of
its subcommand, and a key that names none is a usage error; explicit
flags win.

Exit codes: 0 success, 1 usage error, 2 numeric failure (non-convergence,
method disagreement, inadequate grid).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bosonic import bosonic_curve
from .errors import ConvergenceError, GridError, MethodDisagreementError
from .fermionic import R_MAX, R_MAX_TOL, fermionic_curve
from .wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
    MassiveKernel,
    alternate_packets,
    f_from_g,
    f_log_gaussian,
    g_from_f,
    parseval_residual,
    peaking_report_from_pair,
    rapidity_gaussian,
    DEFAULT_LEAKAGE_THRESHOLD,
)
# not called here: the benchmark tracer (perfbench/tracer.py) wraps them under this module's names
from .wavepacket import massive_f_from_g, massive_g_from_f, massive_peaking_report  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

DEFAULT_Q_LIST = (1.0, 0.9, 0.8, 0.7)
DEFAULT_BOSON_R_MAX = 1.5
SCHEMA = 1

PACKET_FAMILIES = ("log-gaussian", "gamma", "bessel", "rapidity-gaussian")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented contract
    # reserves 2 for numeric failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class SweepSpec:
    model: str
    q_abs: tuple[float, ...]
    r_min: float
    r_max: float
    steps: int
    out: str
    format: str

    def validate(self) -> None:
        for q in self.q_abs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"q values must lie in [0, 1], got {q}")
        if not self.q_abs:
            raise ValueError("at least one q value is required")
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError(f"r-min/r-max must be finite, got {self.r_min}, {self.r_max}")
        if not 0.0 <= self.r_min <= self.r_max:
            raise ValueError(f"invalid r range [{self.r_min}, {self.r_max}]")
        if self.model == "fermion" and self.r_max > R_MAX + R_MAX_TOL:
            raise ValueError(f"fermionic r range must stay within [0, pi/4 = {R_MAX:.6f}]")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format}")
        if not self.out:
            raise ValueError("an output path is required (--out)")

    def r_grid(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.steps)


@dataclass
class PacketSpec:
    family: str
    lam: float
    mu: float
    omega0: float
    mass: float
    epsilon: int
    leakage_threshold: float
    x_min: float | None
    x_max: float | None
    x_points: int | None
    omega_max: float | None
    omega_points: int | None
    out: str | None

    def validate(self) -> None:
        if self.family not in PACKET_FAMILIES:
            raise ValueError(f"family must be one of {PACKET_FAMILIES}, got {self.family!r}")
        for flag, value in (("lam", self.lam), ("omega0", self.omega0), ("mass", self.mass),
                            ("omega-max", self.omega_max)):
            if value is not None and not 0.0 < value < math.inf:  # so that NaN fails too
                raise ValueError(f"{flag} must be > 0 and finite, got {value}")
        for flag, value in (("mu", self.mu), ("leakage-threshold", self.leakage_threshold),
                            ("x-min", self.x_min), ("x-max", self.x_max)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if self.epsilon not in (-1, 1):
            raise ValueError(f"epsilon must be -1 or 1, got {self.epsilon}")
        grid_flags = (self.x_min, self.x_max, self.x_points)
        if any(v is not None for v in grid_flags) and not all(v is not None for v in grid_flags):
            raise ValueError("x-min, x-max and x-points must be given together")
        if self.x_min is not None and not self.x_max > self.x_min:
            raise ValueError(f"x-max must be > x-min, got {self.x_max} <= {self.x_min}")
        omega_flags = (self.omega_max, self.omega_points)
        if any(v is not None for v in omega_flags) and not all(v is not None for v in omega_flags):
            raise ValueError("omega-max and omega-points must be given together")
        for flag, value in (("x-points", self.x_points), ("omega-points", self.omega_points)):
            if value is not None and value < 16:  # the fewest points a grid may have
                raise ValueError(f"{flag} must be >= 16, got {value}")

    def x_grid(self):
        if self.x_min is None:
            return None
        return np.linspace(self.x_min, self.x_max, self.x_points)

    def omega_grid(self):
        if self.omega_max is None:
            return None
        return np.linspace(0.0, self.omega_max, self.omega_points)


def _read_config(args) -> dict[str, str]:
    """The ``--config`` file's values; each key must name a flag of the subcommand."""
    if not args.config:
        return {}
    path = args.config
    flags = vars(args).keys() - {"command", "config"}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in flags:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}: "
                                 f"{args.command} has no flag --{key.replace('_', '-')}")
            values[key] = value.strip()
    return values


def _parse_q_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse q list {text!r}") from exc


def _resolve(args, config: dict[str, str], key: str, default, cast):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return default


# argparse looks up sys.stdout, sys.stderr and the terminal width only when it prints
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unruhkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for model, r_default in (("boson", DEFAULT_BOSON_R_MAX), ("fermion", R_MAX)):
        p = sub.add_parser(model, help=f"{model}ic negativity sweep")
        p.add_argument("--q", type=str, default=None, help="comma-separated |q_R| values")
        p.add_argument("--r-min", type=float, default=None)
        p.add_argument("--r-max", type=float, default=None, help=f"default {r_default:g}")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--format", type=str, choices=("csv", "json"), default=None)
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--config", type=str, default=None, help="key = value config file")

    p = sub.add_parser("packet", help="wave-packet peaking diagnostics")
    p.add_argument("--family", type=str, choices=PACKET_FAMILIES, default=None)
    p.add_argument("--lam", type=float, default=None, help="packet width parameter lambda")
    p.add_argument("--mu", type=float, default=None, help="chirp / peak Unruh frequency")
    p.add_argument("--omega0", type=float, default=None, help="frequency scale (massless families)")
    p.add_argument("--mass", type=float, default=None, help="field mass (rapidity-gaussian)")
    p.add_argument("--epsilon", type=int, choices=(-1, 1), default=None)
    p.add_argument("--leakage-threshold", type=float, default=None)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--x-points", type=int, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--omega-points", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="JSON report path")
    p.add_argument("--config", type=str, default=None)
    return parser


def _sweep_spec(args, model: str) -> SweepSpec:
    config = _read_config(args)
    r_max_default = DEFAULT_BOSON_R_MAX if model == "boson" else R_MAX
    q_raw = _resolve(args, config, "q", None, str)
    spec = SweepSpec(
        model=model,
        q_abs=_parse_q_list(q_raw) if isinstance(q_raw, str) else (q_raw or DEFAULT_Q_LIST),
        r_min=_resolve(args, config, "r_min", 0.0, float),
        r_max=_resolve(args, config, "r_max", r_max_default, float),
        steps=_resolve(args, config, "steps", 30, int),
        out=_resolve(args, config, "out", "", str),
        format=_resolve(args, config, "format", "csv", str),
    )
    spec.validate()
    return spec


def _packet_spec(args) -> PacketSpec:
    config = _read_config(args)
    spec = PacketSpec(
        family=_resolve(args, config, "family", "log-gaussian", str),
        lam=_resolve(args, config, "lam", 1.0, float),
        mu=_resolve(args, config, "mu", 8.0, float),
        omega0=_resolve(args, config, "omega0", 1.0, float),
        mass=_resolve(args, config, "mass", 1.0, float),
        epsilon=_resolve(args, config, "epsilon", 1, int),
        leakage_threshold=_resolve(
            args, config, "leakage_threshold", DEFAULT_LEAKAGE_THRESHOLD, float
        ),
        x_min=_resolve(args, config, "x_min", None, float),
        x_max=_resolve(args, config, "x_max", None, float),
        x_points=_resolve(args, config, "x_points", None, int),
        omega_max=_resolve(args, config, "omega_max", None, float),
        omega_points=_resolve(args, config, "omega_points", None, int),
        out=_resolve(args, config, "out", None, str),
    )
    spec.validate()
    return spec


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _write_table(spec: SweepSpec, header: Sequence[str], rows: list[list]) -> None:
    if spec.format == "csv":
        lines = [f"# schema={SCHEMA}", ",".join(header)]
        for row in rows:
            lines.append(
                ",".join(
                    _bool(v) if isinstance(v, bool) else (_fmt(v) if isinstance(v, float) else str(v))
                    for v in row
                )
            )
        text = "\n".join(lines) + "\n"
    else:
        objects = []
        for row in rows:
            obj = {"schema": SCHEMA}
            for key, value in zip(header, row):
                obj[key] = _round12(value) if isinstance(value, float) else value
            objects.append(obj)
        text = json.dumps(objects, indent=2) + "\n"
    with open(spec.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def cmd_boson(spec: SweepSpec) -> int:
    header = ("q_abs", "r", "n_ar", "n_aar", "n_max_used", "converged")
    rows = []
    all_converged = True
    for q in spec.q_abs:
        for row in bosonic_curve(q, spec.r_grid()):
            rows.append([row.q_abs, row.r, row.n_ar, row.n_aar, row.n_max_used, row.converged])
            all_converged = all_converged and row.converged
    _write_table(spec, header, rows)
    if not all_converged:
        sys.stderr.write("unruhkit boson: some rows did not converge (see 'converged' column)\n")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_fermion(spec: SweepSpec) -> int:
    header = ("q_abs", "r", "n_ar", "n_aar", "method_agreement_residual")
    rows = []
    flagged = False
    for q in spec.q_abs:
        for row in fermionic_curve(q, spec.r_grid()):
            if row.n_ar < 0.0 or row.n_aar < 0.0 or row.n_ar + row.n_aar > 0.5 + 1e-9:
                raise ConvergenceError(
                    f"negativity invariant violated at (q={q}, r={row.r}): "
                    f"N_AR={row.n_ar}, N_AAR={row.n_aar}"
                )
            flagged = flagged or row.swap_equivalent
            rows.append([row.q_abs, row.r, row.n_ar, row.n_aar, row.residual])
    if flagged:
        sys.stderr.write(
            "unruhkit fermion: some |q_R| < 1/sqrt(2); those rows describe the "
            "swap-equivalent bipartition\n"
        )
    _write_table(spec, header, rows)
    return EXIT_OK


def _packet_pipeline(spec: PacketSpec):
    if spec.family == "rapidity-gaussian":
        kernel = MassiveKernel(spec.mass)  # x is the rapidity: no length shift, eps = +1
        f = rapidity_gaussian(spec.lam, spec.mu, kernel, x_grid=spec.x_grid())
    else:
        kernel = BogoliubovKernel(epsilon=spec.epsilon)
        params = LogGaussianParams(spec.lam, spec.mu, spec.omega0)
        if spec.family == "log-gaussian":
            f = f_log_gaussian(params, x_grid=spec.x_grid())
        else:
            f = alternate_packets(spec.family, params, x_grid=spec.x_grid())
    pair = g_from_f(f, kernel, omega_grid=spec.omega_grid())
    back = f_from_g(pair, kernel, x_grid=f.x)
    report = peaking_report_from_pair(f, pair, kernel, spec.leakage_threshold)
    return f, pair, report, parseval_residual(f, pair), f.l2_distance(back)


def _decimate(n: int, count: int = 33) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(count, n)).astype(int))


def cmd_packet(spec: PacketSpec) -> int:
    f, pair, report, parseval, round_trip = _packet_pipeline(spec)
    fields = [
        ("peak_omega", report.peak_omega),
        ("delta_omega", report.delta_omega),
        ("delta_log_omega", report.delta_log_omega),
        ("uncertainty_product", report.uncertainty_product),
        ("leakage", report.leakage),
    ]
    print(f"packet family={spec.family} lam={_fmt(spec.lam)} mu={_fmt(spec.mu)}")
    for name, value in fields:
        print(f"  {name:<21} = {_fmt(value)}")
    print(f"  {'sma_valid':<21} = {_bool(report.sma_valid)}")
    print(f"  {'parseval_residual':<21} = {_fmt(parseval)}")
    print(f"  {'round_trip_error':<21} = {_fmt(round_trip)}")
    idx = _decimate(pair.omega_grid.size)
    print("  Omega        |g_R|        |g_L|")
    for i in idx:
        print(
            f"  {_fmt(pair.omega_grid[i]):<12} {_fmt(abs(pair.g_r[i])):<12} "
            f"{_fmt(abs(pair.g_l[i]))}"
        )
    if spec.out:
        payload = {
            "schema": SCHEMA,
            "spec": {
                "family": spec.family,
                "lam": _round12(spec.lam),
                "mu": _round12(spec.mu),
                "omega0": _round12(spec.omega0),
                "mass": _round12(spec.mass),
                "epsilon": spec.epsilon,
                "leakage_threshold": _round12(spec.leakage_threshold),
            },
            "report": {name: _round12(value) for name, value in fields}
            | {"sma_valid": report.sma_valid},
            "parseval_residual": _round12(parseval),
            "round_trip_error": _round12(round_trip),
            "table": [
                {
                    "omega": _round12(float(pair.omega_grid[i])),
                    "abs_g_r": _round12(float(abs(pair.g_r[i]))),
                    "abs_g_l": _round12(float(abs(pair.g_l[i]))),
                }
                for i in idx
            ],
        }
        with open(spec.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        if args.command in ("boson", "fermion"):
            spec = _sweep_spec(args, args.command)
        else:
            spec = _packet_spec(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"unruhkit {args.command}: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "boson":
            return cmd_boson(spec)
        if args.command == "fermion":
            return cmd_fermion(spec)
        return cmd_packet(spec)
    except (ConvergenceError, MethodDisagreementError, GridError, OSError) as exc:
        sys.stderr.write(f"unruhkit {args.command}: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
