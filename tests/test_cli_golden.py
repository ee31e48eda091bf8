"""CLI output bytes against golden files in tests/data.

Each file holds what one command wrote with ``--out``.  An optimisation must
leave every byte in place.  A change that moves outputs on purpose rewrites
the files with ``python tests/test_cli_golden.py`` and lists every moved
field.
"""

import sys
from pathlib import Path

import pytest

from unruhkit.cli import EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"

SWAP_WARNING = ("unruhkit fermion: some |q_R| < 1/sqrt(2); those rows describe the "
                "swap-equivalent bipartition\n")

#: golden file name -> (argv without --out, expected stderr)
CASES = {
    "fermion.csv": (["fermion", "--q", "1,0.8,0.5", "--steps", "40"], SWAP_WARNING),
    "fermion.json": (["fermion", "--q", "1,0.8,0.5", "--steps", "40", "--format", "json"], SWAP_WARNING),
    # the 8x8 route flushes tiny joint-state amplitudes here
    "fermion_tiny_r.csv": (["fermion", "--q", "0.75,0.9", "--r-min", "1e-80", "--r-max", "2e-80",
                            "--steps", "5"], ""),
    # dense parity-sector route, truncation levels 1 to the cap
    "boson_dense.csv": (["boson", "--q", "0.9,0.5", "--r-min", "0", "--r-max", "1.5", "--steps", "6"], ""),
    # extremal weights: the block series
    "boson_extremal.csv": (["boson", "--q", "1,0", "--r-min", "4", "--r-max", "10", "--steps", "4"], ""),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_file(name, tmp_path, capsys):
    argv, stderr = CASES[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr() == ("", stderr)
    assert out.read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    for name, (argv, _) in CASES.items():
        if main(argv + ["--out", str(DATA / name)]) != EXIT_OK:
            sys.exit(f"{name}: the command failed")
