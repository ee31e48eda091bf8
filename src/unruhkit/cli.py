"""Command-line front end for the negativity sweeps and packet diagnostics.

Three subcommands: ``boson`` and ``fermion`` sweep the squeezing parameter
at fixed |q_R| values and write CSV or JSON tables; ``packet`` prints the
peaking diagnostics of one wave packet as human-readable text plus an
optional JSON report.  Output is deterministic for a fixed spec: stable row
order and 12-significant-digit float formatting, so a rerun is
byte-identical.  The argparse parser is the one table of flags, with their
defaults, types and choices, and the one source of help and usage errors.  A
``key = value`` config file can pre-fill any flag of its subcommand: each
line is parsed as a ``--key=value`` flag placed before the explicit ones, so
explicit flags win, and a key that names no flag is a usage error.

Exit codes: 0 success, 1 usage error, 2 numeric failure (non-convergence,
method disagreement, inadequate grid).  An ``--out`` path that names a
directory, or whose directory does not exist, is a usage error found
before any computation; a write that fails anyway (permissions, a
directory removed meanwhile) exits 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from itertools import starmap
from typing import Sequence

import numpy as np

from .bosonic import bosonic_curve
from .errors import ConvergenceError, GridError, MethodDisagreementError
from .fermionic import R_MAX, R_MAX_TOL, fermionic_curve
from .wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
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

SCHEMA = 1


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.stores = {}  # option string -> action of each flag that stores one value, which ``_read`` reads
        super().__init__(*args, **kwargs)
        # argparse takes -1e2 and -inf for unknown flags; no flag starts with a digit or is
        # named inf, infinity or nan, so "-<digit>", "-.<digit>" and those (any case) are values
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)

    # argparse exits with status 2 on usage errors; the documented contract
    # reserves 2 for numeric failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if not {"action", "nargs", "required"} & kwargs.keys():  # the default action: a store of one value
            self.stores.update(dict.fromkeys(action.option_strings, action))
        return action

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"]:  # --flag=--: argparse drops the "--" and stores [] untyped; it has no value
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _read_config(args) -> list[str]:
    """The ``--config`` file as ``--key=value`` tokens; a key must name a flag of the subcommand."""
    path = args.config
    flags = vars(args).keys() - {"command", "config"}
    tokens = []
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
            tokens.append(f"--{key.replace('_', '-')}={value.strip()}")
    return tokens


def _parse_q_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"could not parse q list {text!r}") from exc


# argparse looks up sys.stdout, sys.stderr and the terminal width only when it prints
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unruhkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand -> its parser

    for model, r_default in (("boson", 1.5), ("fermion", R_MAX)):
        p = sub.add_parser(model, help=f"{model}ic negativity sweep")
        p.add_argument("--q", type=_parse_q_list, default=(1.0, 0.9, 0.8, 0.7),
                       help="comma-separated |q_R| values")
        p.add_argument("--r-min", type=float, default=0.0)
        p.add_argument("--r-max", type=float, default=r_default, help=f"default {r_default:g}")
        p.add_argument("--steps", type=int, default=30)
        p.add_argument("--format", type=str, choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--config", type=str, default=None, help="key = value config file")

    p = sub.add_parser("packet", help="wave-packet peaking diagnostics")
    p.add_argument("--family", type=str, default="log-gaussian",
                   choices=("log-gaussian", "gamma", "bessel", "rapidity-gaussian"))
    p.add_argument("--lam", type=float, default=1.0, help="packet width parameter lambda")
    p.add_argument("--mu", type=float, default=8.0, help="chirp / peak Unruh frequency")
    p.add_argument("--omega0", type=float, default=1.0, help="frequency scale (massless families)")
    p.add_argument("--mass", type=float, default=1.0, help="field mass (rapidity-gaussian)")
    p.add_argument("--epsilon", type=int, choices=(-1, 1), default=1,
                   help="mover index, +1 right or -1 left (massless families)")
    p.add_argument("--leakage-threshold", type=float, default=DEFAULT_LEAKAGE_THRESHOLD)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--x-points", type=int, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--omega-points", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="JSON report path")
    p.add_argument("--config", type=str, default=None)
    for p in parser.commands.values():  # argparse's own values of a subcommand given no flags, for ``_read``
        p.defaults = vars(p.parse_args([]))
    return parser


def _read(argv: list[str]) -> argparse.Namespace | None:
    """``parse_args(argv)`` of a subcommand and exact ``--flag=value`` or ``--flag value`` tokens; else None."""
    try:  # each failure defers: no subcommand, an unknown or abbreviated flag, a missing or rejected value
        parser = _build_parser().commands[argv[0]]
        args = argparse.Namespace(command=argv[0])
        vars(args).update(parser.defaults)
        tokens = iter(argv[1:])
        for token in tokens:  # the last value of a flag wins
            option, eq, text = token.partition("=")
            text = text if eq else next(tokens)
            if text == "--" or not eq and text.startswith("-"):  # argparse drops "--" and reads "-x" as a flag
                return None
            action = parser.stores[option]
            vars(args)[action.dest] = value = action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
    except (IndexError, KeyError, StopIteration, TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return args


def _check_sweep(args) -> None:
    for q in args.q:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q values must lie in [0, 1], got {q}")
    if not args.q:
        raise ValueError("at least one q value is required")
    if not (math.isfinite(args.r_min) and math.isfinite(args.r_max)):
        raise ValueError(f"r-min/r-max must be finite, got {args.r_min}, {args.r_max}")
    if not 0.0 <= args.r_min <= args.r_max:
        raise ValueError(f"invalid r range [{args.r_min}, {args.r_max}]")
    if args.command == "fermion" and args.r_max > R_MAX + R_MAX_TOL:
        raise ValueError(f"fermionic r range must stay within [0, pi/4 = {R_MAX:.6f}]")
    if args.steps < 2:
        raise ValueError(f"steps must be >= 2, got {args.steps}")
    if not args.out:
        raise ValueError("an output path is required (--out)")


def _check_packet(args) -> None:
    for flag, value in (("lam", args.lam), ("omega0", args.omega0), ("mass", args.mass),
                        ("omega-max", args.omega_max)):
        if value is not None and not 0.0 < value < math.inf:  # so that NaN fails too
            raise ValueError(f"{flag} must be > 0 and finite, got {value}")
    for flag, value in (("mu", args.mu), ("leakage-threshold", args.leakage_threshold),
                        ("x-min", args.x_min), ("x-max", args.x_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    grid_flags = (args.x_min, args.x_max, args.x_points)
    if any(v is not None for v in grid_flags) and not all(v is not None for v in grid_flags):
        raise ValueError("x-min, x-max and x-points must be given together")
    if args.x_min is not None and not args.x_max > args.x_min:
        raise ValueError(f"x-max must be > x-min, got {args.x_max} <= {args.x_min}")
    if args.x_min is not None and not math.isfinite(args.x_max - args.x_min):
        raise ValueError(f"x-max - x-min must be finite, got {args.x_max} - {args.x_min}")
    omega_flags = (args.omega_max, args.omega_points)
    if any(v is not None for v in omega_flags) and not all(v is not None for v in omega_flags):
        raise ValueError("omega-max and omega-points must be given together")
    if args.family == "rapidity-gaussian" and args.epsilon != 1:
        raise ValueError("epsilon applies to the massless families: a massive field has no mover index")
    if args.family == "rapidity-gaussian" and args.omega0 != 1.0:
        raise ValueError("omega0 applies to the massless families: rapidity-gaussian takes --mass")
    if args.family != "rapidity-gaussian" and args.mass != 1.0:
        raise ValueError(f"mass applies to rapidity-gaussian: a {args.family} packet is massless")
    for flag, value in (("x-points", args.x_points), ("omega-points", args.omega_points)):
        if value is not None and value < 16:  # the fewest points a grid may have
            raise ValueError(f"{flag} must be >= 16, got {value}")


def _check_out(path: str | None) -> None:
    """An ``--out`` path must name a file in an existing directory."""
    if not path:
        return
    # os.access raises nothing for a missing path, the usual case, where os.stat would
    if os.access(path, os.F_OK) and os.path.isdir(path):
        raise ValueError(f"--out {path}: is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--out {path}: {directory} is not an existing directory")


def _too_large(count: int, start: float, stop: float, flag: str) -> GridError:
    return GridError(f"--{flag} {count}: the grid on [{start:.4g}, {stop:.4g}] needs {count} points "
                     f"of spacing {(stop - start) / (count - 1):.3g}, more than can be allocated")


def _grid(count: int, start: float, stop: float, flag: str) -> np.ndarray:
    """``np.linspace``, with a count past what numpy can index or allocate as a grid error."""
    try:
        return np.linspace(start, stop, count)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise _too_large(count, start, stop, flag) from exc


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _json_number(text: str) -> str:
    """``json``'s text of the float of a ``_fmt`` text: ``float.__repr__``, NaN, Infinity or -Infinity."""
    x = float(text)
    return float.__repr__(x) if math.isfinite(x) else ("NaN" if x != x else ("Infinity" if x > 0 else "-Infinity"))


def _json_object(pad: str, items) -> str:
    """``json.dumps(indent=2)``'s object at indent ``pad`` from (ASCII key, written value) pairs."""
    return "{\n" + ",\n".join([f'{pad}  "{key}": {value}' for key, value in items]) + f"\n{pad}}}"


def _json_list(pad: str, items: list[str]) -> str:
    """``json.dumps(indent=2)``'s list at indent ``pad`` from written items."""
    return "[\n" + ",\n".join([f"{pad}  {item}" for item in items]) + f"\n{pad}]" if items else "[]"


def _json_cell(value):
    """The JSON writer of a table column, picked by its first cell; bool before int, its base."""
    for kind, cell in ((bool, _bool), (int, int.__repr__), (float, lambda v: _json_number(_fmt(v)))):
        if isinstance(value, kind):
            return cell
    raise TypeError(f"a table cell of type {type(value).__name__} has no JSON writer")


#: a row of the packet report's table, laid out at its depth
_PACKET_ROW = '{{\n      "omega": {},\n      "abs_g_r": {},\n      "abs_g_l": {}\n    }}'


def _packet_json(args, fields: list[tuple[str, str]], sma_valid: bool, table: list[list[str]]) -> str:
    """The SCHEMA-1 packet report as ``json.dumps(indent=2)`` writes it, from the ``_fmt`` texts of stdout.

    ``fields`` are the report's five values, then the Parseval and round-trip
    residuals; the file holds the float of each text.  ``--family`` is one of
    four ASCII choices: no escaping.
    """
    spec = [("family", f'"{args.family}"'),
            *[(name, _json_number(_fmt(getattr(args, name)))) for name in ("lam", "mu", "omega0", "mass")],
            ("epsilon", args.epsilon), ("leakage_threshold", _json_number(_fmt(args.leakage_threshold)))]
    values = [(name, _json_number(text)) for name, text in fields]
    rows = [_PACKET_ROW.format(*map(_json_number, row)) for row in table]
    return _json_object("", [("schema", SCHEMA), ("spec", _json_object("  ", spec)),
                             ("report", _json_object("  ", [*values[:5], ("sma_valid", _bool(sma_valid))])),
                             *values[5:], ("table", _json_list("  ", rows))])


def _write(path: str, text: str) -> None:
    """``text`` as UTF-8 over any old bytes, then cut to its length; a crash mid-write leaves a mix of both."""
    data = memoryview(text.encode())
    # no O_TRUNC, which can wait for the old bytes to reach the disk; a new file gets 0o666 less the umask
    size, fd = len(data), os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:  # only an old regular file: ftruncate fails on /dev/null and pipes
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_table(args, header: Sequence[str], rows: list[list]) -> None:
    if args.format == "csv":
        # one format per column, picked from the first row: a float to 12 significant
        # digits, a bool as true/false, anything else (int, str) as str
        first = rows[0] if rows else ()
        template = ",".join("{:.12g}" if isinstance(v, float) else "{}" for v in first)
        if any(isinstance(v, bool) for v in first):  # copies of the rows, with the flags as text
            rows = [[_bool(v) if isinstance(v, bool) else v for v in row] for row in rows]
        text = "\n".join([f"# schema={SCHEMA}", ",".join(header), *starmap(template.format, rows)])
    else:
        cells = [_json_cell(v) for v in rows[0]] if rows else []
        items = [[("schema", SCHEMA), *zip(header, [cell(v) for cell, v in zip(cells, row)])] for row in rows]
        text = _json_list("", [_json_object("  ", row) for row in items])
    _write(args.out, text + "\n")


def cmd_boson(args) -> int:
    header = ("q_abs", "r", "n_ar", "n_aar", "n_max_used", "converged")
    r_grid = _grid(args.steps, args.r_min, args.r_max, "steps")
    rows = [[row.q_abs, row.r, row.n_ar, row.n_aar, row.report.n_max_used, row.report.converged]
            for q in args.q for row in bosonic_curve(q, r_grid)]
    _write_table(args, header, rows)
    if not all(row[-1] for row in rows):
        sys.stderr.write("unruhkit boson: some rows did not converge (see 'converged' column)\n")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_fermion(args) -> int:
    header = ("q_abs", "r", "n_ar", "n_aar", "method_agreement_residual")
    r_grid = _grid(args.steps, args.r_min, args.r_max, "steps")
    rows = []
    flagged = False
    for q in args.q:
        for row in fermionic_curve(q, r_grid):
            if row.n_ar < 0.0 or row.n_aar < 0.0 or row.n_ar + row.n_aar > 0.5 + 1e-9:
                raise ConvergenceError(
                    f"negativity invariant violated at (q={q}, r={row.r}): "
                    f"N_AR={row.n_ar}, N_AAR={row.n_aar}"
                )
            flagged = flagged or row.swap_equivalent
            rows.append([row.q_abs, row.r, row.n_ar, row.n_aar, row.residual])
    if flagged:
        sys.stderr.write("unruhkit fermion: some |q_R| < 1/sqrt(2); those rows describe the "
                         "swap-equivalent bipartition\n")
    _write_table(args, header, rows)
    return EXIT_OK


def _packet_pipeline(args):
    grids = [(args.x_points, args.x_min, args.x_max, "x-points"),
             (args.omega_points, 0.0, args.omega_max, "omega-points")]
    x_grid, omega_grid = (None if grid[0] is None else _grid(*grid) for grid in grids)
    kernel = BogoliubovKernel(epsilon=args.epsilon)  # +1 for the massive family
    params = LogGaussianParams(args.lam, args.mu, args.omega0)
    try:
        if args.family == "rapidity-gaussian":
            f = rapidity_gaussian(args.lam, args.mu, args.mass, x_grid=x_grid)
        elif args.family == "log-gaussian":
            f = f_log_gaussian(params, x_grid=x_grid)
        else:
            f = alternate_packets(args.family, params, x_grid=x_grid)
        pair = g_from_f(f, kernel, omega_grid=omega_grid)
        back = f_from_g(pair, x_grid=f.x)
    except MemoryError as exc:
        if x_grid is None and omega_grid is None:  # else a given grid fit, the work on it did not
            raise
        raise _too_large(*max(grid for grid in grids if grid[0] is not None)) from exc
    report = peaking_report_from_pair(f, pair, args.leakage_threshold)
    return f, pair, report, parseval_residual(f, pair), f.l2_distance(back)


def cmd_packet(args) -> int:
    f, pair, report, parseval, round_trip = _packet_pipeline(args)
    fields = [(name, _fmt(value)) for name, value in zip(
        ("peak_omega", "delta_omega", "delta_log_omega", "uncertainty_product", "leakage",
         "parseval_residual", "round_trip_error"), (*report[:5], parseval, round_trip))]
    size = pair.omega_grid.size
    # below 33 points the indices are arange; from 33 on the step is >= 1, so they increase
    idx = np.linspace(0, size - 1, min(33, size)).astype(int)
    table = [[_fmt(v) for v in row] for row in zip(
        pair.omega_grid[idx].tolist(), np.abs(pair.g_r[idx]).tolist(), np.abs(pair.g_l[idx]).tolist())]
    sys.stdout.write("\n".join([
        f"packet family={args.family} lam={_fmt(args.lam)} mu={_fmt(args.mu)}",
        *[f"  {name:<21} = {value}" for name, value in fields[:5]],
        f"  {'sma_valid':<21} = {_bool(report.sma_valid)}",
        *[f"  {name:<21} = {value}" for name, value in fields[5:]],
        "  Omega        |g_R|        |g_L|",
        *[f"  {omega:<12} {g_r:<12} {g_l}" for omega, g_r, g_l in table],
    ]) + "\n")
    if args.out:
        _write(args.out, _packet_json(args, fields, report.sma_valid, table) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = _read(argv) or parser.parse_args(argv)
        if args.config:  # the file's flags first, so that the explicit ones win
            args = _read(merged := [args.command, *_read_config(args), *argv[1:]]) or parser.parse_args(merged)
        if args.command == "packet":
            _check_packet(args)
        else:
            _check_sweep(args)
        _check_out(args.out)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"unruhkit {args.command}: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "boson":
            return cmd_boson(args)
        if args.command == "fermion":
            return cmd_fermion(args)
        return cmd_packet(args)
    except (ConvergenceError, MethodDisagreementError, GridError, OSError) as exc:
        sys.stderr.write(f"unruhkit {args.command}: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
