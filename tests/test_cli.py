"""Command-line interface: determinism, schemas, exit codes, config merging."""

import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from unruhkit.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


class TestBosonCommand:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["boson", "--q", "1,0.8", "--r-min", "0", "--r-max", "1", "--steps", "4"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_known_first_row(self, tmp_path):
        out = tmp_path / "boson.csv"
        code = main(
            ["boson", "--q", "1", "--r-min", "0", "--r-max", "0.5", "--steps", "2",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["q_abs", "r", "n_ar", "n_aar", "n_max_used", "converged"]
        assert float(rows[0]["n_ar"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[0]["n_aar"]) == 0.0
        assert rows[0]["converged"] == "true"

    def test_deep_extremal_rows_are_certified(self, tmp_path):
        # the block series reaches r = 10 with its bound below 1e-6 of the value
        out = tmp_path / "deep.csv"
        code = main(["boson", "--q", "1", "--r-min", "4", "--r-max", "10", "--steps", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 7
        assert all(row["converged"] == "true" for row in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "boson.json"
        code = main(
            ["boson", "--q", "0.9", "--r-min", "0", "--r-max", "0.4", "--steps", "2",
             "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert isinstance(rows, list)
        assert all(row["schema"] == 1 for row in rows)
        assert rows[0]["n_ar"] == pytest.approx(0.405, abs=1e-9)
        assert isinstance(rows[0]["converged"], bool)

    def test_nonconverged_rows_flagged(self, tmp_path, capsys):
        out = tmp_path / "deep.csv"
        code = main(
            ["boson", "--q", "0.8", "--r-min", "2.5", "--r-max", "2.6", "--steps", "2",
             "--out", str(out)]
        )
        assert code == EXIT_NUMERIC
        _, rows = read_csv(out)
        assert rows[0]["converged"] == "false"

    @pytest.mark.parametrize("r_min, r_max", [("399", "400"), ("799", "800")])
    def test_extreme_squeezing_rows_flagged_without_warnings(self, r_min, r_max, tmp_path):
        # the sector entries underflow at r = 400 and cosh r overflows at r = 800;
        # the rows are flagged without a warning or an exception
        out = tmp_path / "extreme.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["boson", "--q", "0.8", "--r-min", r_min, "--r-max", r_max,
                         "--steps", "2", "--out", str(out)])
        assert code == EXIT_NUMERIC
        _, rows = read_csv(out)
        assert [row["converged"] for row in rows] == ["false", "false"]

    def test_ordering_across_weights_at_fixed_squeezing(self, tmp_path):
        out = tmp_path / "order.csv"
        code = main(
            ["boson", "--q", "1,0.9,0.8,0.7", "--r-min", "0.5", "--r-max", "0.5",
             "--steps", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        values = [float(row["n_ar"]) for row in rows[::2]]  # one row per q value
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_config_file_merged_under_flags(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("q = 0.9\nr-max = 0.2  # inline comment\nsteps = 2\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["boson", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        _, rows = read_csv(out_a)
        assert [row["q_abs"] for row in rows] == ["0.9", "0.9"]
        assert rows[-1]["r"] == "0.2"
        # explicit flag wins over the config value
        assert main(
            ["boson", "--config", str(cfg), "--r-max", "0.1", "--out", str(out_b)]
        ) == EXIT_OK
        _, rows = read_csv(out_b)
        assert rows[-1]["r"] == "0.1"

    @pytest.mark.parametrize(
        "args",
        [
            ["boson", "--q", "1.4", "--out", "x.csv"],
            ["boson", "--q", "1", "--steps", "1", "--out", "x.csv"],
            ["boson", "--q", "1", "--r-min", "-0.5", "--out", "x.csv"],
            ["boson", "--q", "1"],
            ["boson", "--format", "yaml", "--out", "x.csv"],
        ],
    )
    def test_usage_errors(self, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(args) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["boson", "--frequency", "1"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE


class TestFermionCommand:
    def test_exact_rows(self, tmp_path):
        out = tmp_path / "fermion.csv"
        code = main(
            ["fermion", "--q", "1", "--r-min", "0", "--r-max", str(math.pi / 4),
             "--steps", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["q_abs", "r", "n_ar", "n_aar", "method_agreement_residual"]
        assert float(rows[0]["n_ar"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[-1]["n_ar"]) == pytest.approx(0.25, abs=1e-9)
        assert float(rows[-1]["n_aar"]) == pytest.approx(0.25, abs=1e-9)

    def test_conservation_in_reparsed_output(self, tmp_path):
        out = tmp_path / "fermion.csv"
        main(["fermion", "--q", "1", "--steps", "40", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            assert float(row["n_ar"]) + float(row["n_aar"]) == pytest.approx(0.5, abs=1e-9)

    def test_symmetric_weights(self, tmp_path):
        out = tmp_path / "sym.csv"
        q = 1.0 / math.sqrt(2.0)
        main(["fermion", "--q", f"{q:.15f}", "--steps", "9", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            assert float(row["n_ar"]) == pytest.approx(float(row["n_aar"]), abs=1e-9)

    def test_swap_equivalent_warning(self, tmp_path, capsys):
        out = tmp_path / "swap.csv"
        assert main(["fermion", "--q", "0.5", "--steps", "2", "--out", str(out)]) == EXIT_OK
        assert "swap-equivalent" in capsys.readouterr().err

    def test_r_range_guard(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(["fermion", "--q", "1", "--r-max", "1.0", "--out", str(out)]) == EXIT_USAGE


class TestPacketCommand:
    def test_peaked_packet_report(self, tmp_path, capsys):
        out = tmp_path / "packet.json"
        code = main(["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "sma_valid             = true" in text
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["report"]["sma_valid"] is True
        assert payload["report"]["uncertainty_product"] == pytest.approx(0.5, abs=0.01)
        assert payload["parseval_residual"] < 1e-6
        assert payload["round_trip_error"] < 1e-6
        assert {"omega", "abs_g_r", "abs_g_l"} <= set(payload["table"][0])

    def test_balanced_packet_fails_sma(self, capsys):
        assert main(["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "0"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "sma_valid             = false" in text
        assert "leakage               = 0.5" in text

    @pytest.mark.parametrize("family", ["log-gaussian", "gamma", "bessel", "rapidity-gaussian"])
    def test_families_pass_parseval_at_defaults(self, family, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["packet", "--family", family, "--lam", "1", "--mu", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "parseval_residual" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["parseval_residual"] < 1e-6
        assert payload["round_trip_error"] < 1e-6

    def test_inadequate_grid_is_numeric_failure(self, capsys):
        code = main(["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8",
                     "--omega-max", "3", "--omega-points", "128"])
        assert code == EXIT_NUMERIC
        assert "unruhkit packet" in capsys.readouterr().err

    def test_partial_grid_flags_rejected(self):
        assert main(["packet", "--x-min", "-5"]) == EXIT_USAGE

    @pytest.mark.parametrize("family", ["log-gaussian", "rapidity-gaussian"])
    def test_profile_past_the_float_range_is_numeric_failure(self, family, capsys):
        # at lambda = 1e-4 the automatic grid reaches |x| ~ 990, where e^x and
        # cosh x overflow; the NaN norm must stop there as a grid error, and
        # no numpy warning may come first (under -W error it would exit 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["packet", "--family", family, "--lam", "1e-4"]) == EXIT_NUMERIC
        assert "not finite" in capsys.readouterr().err

    def test_gamma_past_the_float_range_fails_at_once(self):
        # widening the gamma grid around its NaN density would cost 1.5x the
        # memory per step; the capped child turns such a relapse into a MemoryError
        out = capped_packet_run("gamma")
        assert out.returncode == EXIT_NUMERIC, out.stderr
        assert "not finite" in out.stderr
        assert "Warning" not in out.stderr

    def test_bessel_past_the_float_range_is_not_a_uniformity_error(self):
        # the automatic grid spans +-3e5 in 5.4M steps of 0.111, whose rounding
        # once failed the uniformity check; the real fault is the profile
        out = capped_packet_run("bessel")
        assert out.returncode == EXIT_NUMERIC, out.stderr
        assert "not finite" in out.stderr
        assert "uniformly spaced" not in out.stderr
        assert "Warning" not in out.stderr

    def test_nan_mass_is_a_usage_error(self, capsys):
        assert main(["packet", "--family", "rapidity-gaussian", "--mass", "nan"]) == EXIT_USAGE
        assert "mass must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["log-gaussian", "rapidity-gaussian"])
    @pytest.mark.parametrize("flag, value", [
        ("lam", "nan"), ("lam", "inf"), ("mu", "nan"), ("mu", "inf"), ("mu", "-inf"),
        ("leakage-threshold", "nan"), ("leakage-threshold", "inf"), ("omega0", "nan"),
        ("mass", "inf"),
    ])
    def test_non_finite_packet_flags_are_usage_errors(self, flag, value, family, capsys):
        # past validation these raise deep in the grid code or pass silently
        # (a NaN threshold makes every packet fail the SMA test)
        assert main(["packet", "--family", family, f"--{flag}={value}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag} must be" in err and f"got {value}" in err
        assert "Traceback" not in err


def capped_packet_run(family):
    """``packet --lam 1e-4`` in a child with warnings as errors and 1 GiB of address space.

    Both the gamma and the Bessel run need about 0.35 GiB, so the cap turns a
    grid that keeps growing into a MemoryError instead of exhausting memory.
    """
    limit = 1 << 30
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "unruhkit.cli", "packet", "--family", family,
         "--lam", "1e-4"],
        env=src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


def test_import_loads_no_scipy_special_or_linalg():
    # scipy, the quadrature nodes of numpy.polynomial and numpy.fft cost a
    # noticeable share of every CLI call; they load on first use
    code = ("import sys, unruhkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith(('numpy.polynomial', 'numpy.fft'))))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
