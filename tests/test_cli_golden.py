"""CLI output bytes against golden files in tests/data.

Each sweep file holds what one command wrote with ``--out``; each packet
case holds its stdout (``.txt``) and its ``--out`` report (``.json``).  An
optimisation must leave every byte in place.  A change that moves outputs on
purpose rewrites the files with ``python tests/test_cli_golden.py`` and
lists every moved field.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from unruhkit.cli import EXIT_NUMERIC, EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"

SWAP_WARNING = ("unruhkit fermion: some |q_R| < 1/sqrt(2); those rows describe the "
                "swap-equivalent bipartition\n")
UNCONVERGED = "unruhkit boson: some rows did not converge (see 'converged' column)\n"

#: golden file name -> (argv without --out, expected stderr, exit code)
CASES = {
    "fermion.csv": (["fermion", "--q", "1,0.8,0.5", "--steps", "40"], SWAP_WARNING, EXIT_OK),
    "fermion.json": (["fermion", "--q", "1,0.8,0.5", "--steps", "40", "--format", "json"], SWAP_WARNING,
                     EXIT_OK),
    # the 8x8 route flushes tiny joint-state amplitudes here
    "fermion_tiny_r.csv": (["fermion", "--q", "0.75,0.9", "--r-min", "1e-80", "--r-max", "2e-80",
                            "--steps", "5"], "", EXIT_OK),
    # dense parity-sector route, truncation levels 1 to the cap
    "boson_dense.csv": (["boson", "--q", "0.9,0.5", "--r-min", "0", "--r-max", "1.5", "--steps", "6"], "",
                        EXIT_OK),
    # extremal weights: the block series
    "boson_extremal.csv": (["boson", "--q", "1,0", "--r-min", "4", "--r-max", "10", "--steps", "4"], "",
                           EXIT_OK),
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


if __name__ == "__main__":
    for name, (argv, _, status) in CASES.items():
        if main(argv + ["--out", str(DATA / name)]) != status:
            sys.exit(f"{name}: the command failed")
    for stem, argv in PACKET_CASES.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv + ["--out", str(DATA / f"{stem}.json")])
        if status != EXIT_OK:
            sys.exit(f"{stem}: the command failed")
        (DATA / f"{stem}.txt").write_bytes(stdout.getvalue().encode())
