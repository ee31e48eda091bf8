"""CLI output bytes against golden files in tests/data.

Each sweep file holds what one command wrote with ``--out``; each packet
case holds its stdout (``.txt``) and its ``--out`` report (``.json``).  The
argvs that argparse parses or rejects itself (help, usage errors, an
abbreviated flag, a split negative value) have their exit code, stdout and
stderr in ``argparse_paths.json``, at ``COLUMNS=80``.  Every call of the
benchmark's four workloads at seed 1 (``perfbench/workloads.py``, loaded by
path and left unchanged) has a SHA-256 of its exit code, stdout, stderr and
output file in ``workload_digests.json``.  An
optimisation must leave every byte in place.  A change that moves outputs on
purpose rewrites the files with ``python tests/test_cli_golden.py``, which
prints every field it moves (file, row, column, old -> new, and the absolute
and relative change of each number that moved) before it writes, and lists
those fields.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from unruhkit.cli import EXIT_NUMERIC, EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = DATA.parent.parent / "perfbench" / "workloads.py"

SWAP_WARNING = ("unruhkit fermion: some |q_R| < 1/sqrt(2); those rows describe the "
                "swap-equivalent bipartition\n")
UNCONVERGED = "unruhkit boson: some rows did not converge (see 'converged' column)\n"

#: golden file name -> (argv without --out, expected stderr, exit code)
CASES = {
    "fermion.csv": (["fermion", "--q", "1,0.8,0.5", "--steps", "40"], SWAP_WARNING, EXIT_OK),
    "fermion.json": (["fermion", "--q", "1,0.8,0.5", "--steps", "40", "--format", "json"], SWAP_WARNING,
                     EXIT_OK),
    # the 8x8 route floors tiny joint-state amplitudes to zero here
    "fermion_tiny_r.csv": (["fermion", "--q", "0.75,0.9", "--r-min", "1e-80", "--r-max", "2e-80",
                            "--steps", "5"], "", EXIT_OK),
    # dense parity-sector route, truncation levels 1 to the cap
    "boson_dense.csv": (["boson", "--q", "0.9,0.5", "--r-min", "0", "--r-max", "1.5", "--steps", "6"], "",
                        EXIT_OK),
    # extremal weights: the block series
    "boson_extremal.csv": (["boson", "--q", "1,0", "--r-min", "4", "--r-max", "10", "--steps", "4"], "",
                           EXIT_OK),
    # the series from r = 0 (t^2 < 1e-300), rows whose head reaches e^-60 with no tail, then 64-term heads
    "boson_extremal_small_r.csv": (["boson", "--q", "1,0", "--r-min", "0", "--r-max", "3", "--steps", "31"],
                                   "", EXIT_OK),
    # 150 dense rows per curve at mixed levels: two band chunks, rows at the cap, tanh r = 1 rows
    "boson_chunks.csv": (["boson", "--q", "0.95,0.4", "--r-max", "25", "--steps", "150"], UNCONVERGED,
                         EXIT_NUMERIC),
}

#: golden stem -> packet argv without --out; <stem>.txt is its stdout, <stem>.json its report
PACKET_CASES = {
    "packet_readme": ["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8"],
    "packet_left_mover": ["packet", "--family", "log-gaussian", "--lam", "1.7", "--mu", "3",
                          "--omega0", "2", "--epsilon", "-1"],
    "packet_gamma": ["packet", "--family", "gamma", "--lam", "0.3", "--mu", "8"],
    "packet_bessel": ["packet", "--family", "bessel", "--lam", "0.2", "--mu", "8"],
    "packet_rapidity": ["packet", "--family", "rapidity-gaussian", "--lam", "0.05", "--mu", "5",
                        "--mass", "2.5"],
    "packet_explicit_grids": ["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8",
                              "--x-min", "-6", "--x-max", "6", "--x-points", "3000",
                              "--omega-max", "40", "--omega-points", "2000"],
}

#: argvs that argparse parses or rejects itself, pinned in ARGPARSE_FILE: help, usage errors, an
#: abbreviated flag and a split negative value (the last two run a packet to stdout)
ARGPARSE_CASES = {
    "no_command": [],
    "help": ["--help"],
    "bogus_command": ["bogus"],
    "packet_help": ["packet", "--help"],
    "boson_h": ["boson", "-h"],
    "abbreviated_flag": ["packet", "--la", "0.5"],
    "split_negative": ["packet", "--mu", "-1e2"],
    "missing_value": ["boson", "--steps"],
    "bad_choice": ["packet", "--family", "nope"],
    "bad_type": ["fermion", "--steps", "1e3"],
}
ARGPARSE_FILE = "argparse_paths.json"
DIGESTS_FILE = "workload_digests.json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_file(name, tmp_path, capsys):
    argv, stderr, status = CASES[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == status
    assert capsys.readouterr() == ("", stderr)
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("stem", sorted(PACKET_CASES))
def test_packet_bytes_match_the_golden_files(stem, tmp_path, capsys):
    out = tmp_path / f"{stem}.json"
    assert main(PACKET_CASES[stem] + ["--out", str(out)]) == EXIT_OK
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    assert stdout.encode() == (DATA / f"{stem}.txt").read_bytes()
    assert out.read_bytes() == (DATA / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(ARGPARSE_CASES))
def test_argparse_path_bytes_match_the_golden_file(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    want = json.loads((DATA / ARGPARSE_FILE).read_text())[name]
    assert argparse_record(ARGPARSE_CASES[name]) == want


def test_workload_bytes_match_their_digests(tmp_path):
    want = json.loads((DATA / DIGESTS_FILE).read_text())
    got = workload_digests(tmp_path)
    assert [call for call in sorted(want.keys() | got.keys()) if want.get(call) != got.get(call)] == []


def fields(name: str, data: bytes) -> dict:
    """Each field of one golden file by its place: (row, column) of a table, a key path of a report, a line."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        return {(f"row {i}", column): value for i, row in enumerate(rows, 1) for column, value in zip(header, row)}
    if name.endswith(".json"):
        flat = {}

        def walk(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                walk(value, path + (str(key),))
            if not items:
                flat[path] = json.dumps(node)

        walk(json.loads(text), ())
        return {(f"row {int(path[0]) + 1}" if path[0].isdigit() else path[0], ".".join(path[1:])): value
                for path, value in flat.items()}
    return {(f"line {i}", ""): line for i, line in enumerate(text.splitlines(), 1)}


def change(old: str, new: str) -> str:
    """'  (abs ..., rel ...)' for each number that moved between two texts of one field, else ''.

    The texts are compared word by word, so a stdout line of several numbers
    names each one that moved; a word that is not a number, or a word count
    that changed, gives no change.
    """
    old_words, new_words = old.split(), new.split()
    try:
        moved = [(float(a), float(b)) for a, b in zip(old_words, new_words) if a != b]
    except ValueError:
        return ""
    if not moved or len(old_words) != len(new_words):
        return ""
    return "  (" + "; ".join(f"abs {abs(b - a):.3g}, rel {abs(b - a) / abs(a) if a else math.inf:.3g}"
                             for a, b in moved) + ")"


def test_change_names_each_moved_number():
    assert change("  leakage = 1.5e-12", "  leakage = 1.2e-12") == "  (abs 3e-13, rel 0.2)"
    assert change("  1   0.5   2", "  1   0.25   3") == "  (abs 0.25, rel 0.5; abs 1, rel 0.5)"
    assert change("0", "1e-300") == "  (abs 1e-300, rel inf)"
    assert change("true", "false") == change("(none)", "1") == change("1 2", "1 2 3") == ""


def rewrite(name: str, data: bytes) -> None:
    """Print every field ``data`` moves against the golden file ``name``, then write ``data`` there."""
    path = DATA / name
    old, new = fields(name, path.read_bytes()) if path.exists() else {}, fields(name, data)
    for place in sorted(old.keys() | new.keys(), key=lambda p: (len(p[0]), p)):
        before, after = old.get(place, "(none)"), new.get(place, "(none)")
        if before != after:
            print(f"{name}, {place[0]}, {place[1]}: {before} -> {after}{change(before, after)}")
    path.write_bytes(data)


def run(argv: list[str], suffix: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and ``--out`` bytes of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"out{suffix}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv + ["--out", str(out)])
        return status, stdout.getvalue().encode(), out.read_bytes()


def argparse_record(argv: list[str]) -> dict:
    """The argv, exit code, stdout and stderr of one CLI call without ``--out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    return {"argv": argv, "status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def workload_digests(directory: Path) -> dict[str, str]:
    """"<workload>/<index>" -> SHA-256 of the exit code, stdout, stderr and output file of each call
    of the four benchmark workloads at seed 1, run in-process with their outputs in ``directory``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    digests = {}
    for name in workloads.WORKLOADS:
        for i, call in enumerate(workloads.build(name, 1, directory)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(list(call.argv))
            data = call.out.read_bytes() if call.out.exists() else None
            record = repr((status, stdout.getvalue(), stderr.getvalue(), data)).encode()
            digests[f"{name}/{i}"] = hashlib.sha256(record).hexdigest()
    return digests


if __name__ == "__main__":
    for name, (argv, _, status) in CASES.items():
        code, _, data = run(argv, Path(name).suffix)
        if code != status:
            sys.exit(f"{name}: the command failed")
        rewrite(name, data)
    for stem, argv in PACKET_CASES.items():
        code, stdout, data = run(argv, ".json")
        if code != EXIT_OK:
            sys.exit(f"{stem}: the command failed")
        rewrite(f"{stem}.json", data)
        rewrite(f"{stem}.txt", stdout)
    os.environ["COLUMNS"] = "80"
    records = {name: argparse_record(argv) for name, argv in ARGPARSE_CASES.items()}
    rewrite(ARGPARSE_FILE, (json.dumps(records, indent=2) + "\n").encode())
    with tempfile.TemporaryDirectory() as tmp:
        rewrite(DIGESTS_FILE, (json.dumps(workload_digests(Path(tmp)), indent=2) + "\n").encode())
