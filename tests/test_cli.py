"""Command-line interface: determinism, schemas, exit codes, config merging."""

import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unruhkit.cli as cli
from unruhkit.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _fmt, _packet_json, _write_table, main


#: one value per config key that its flag rejects
BAD_CONFIG_VALUES = {"steps": "abc", "format": "yaml", "epsilon": "2", "family": "sinc"}

#: grid counts past memory: numpy fails to allocate the first and to index the second
EXCESSIVE_COUNTS = ("1000000000000", "100000000000000000000")


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

    def test_extremal_rows_at_the_float_range_edge_are_finite_and_quiet(self, tmp_path):
        # near r = 353.5 the block series' last tail edges lie at the end of the
        # float range; a numpy overflow there would reach stderr and give nan
        out = tmp_path / "edge.csv"
        run = subprocess.run(
            [sys.executable, "-m", "unruhkit.cli", "boson", "--q", "1", "--r-min", "353.53",
             "--r-max", "353.535", "--steps", "2", "--out", str(out)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (EXIT_OK, "")
        _, rows = read_csv(out)
        assert [row["converged"] for row in rows] == ["true", "true"]
        assert all(0.0 < float(row["n_ar"]) < 1e-306 for row in rows)

    @pytest.mark.parametrize("r", ["19.5", "25", "150", "353.4", "353.6", "400", "1e300"])
    def test_extremal_rows_near_and_past_the_float_range_edge_exit_zero(self, r, tmp_path):
        # warnings are errors in this suite; past r ~ 353.538 the series prints 0 with 0 terms
        out = tmp_path / "edge.csv"
        assert main(["boson", "--q", "1,0", "--r-min", r, "--r-max", r, "--steps", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [row["converged"] for row in rows] == ["true"] * 4
        assert {row["n_max_used"] for row in rows} == ({"64"} if float(r) < 353.5 else {"0"})

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
        # packet: a negative value in exponent form, and a flag over a key
        report = tmp_path / "p.json"
        cfg.write_text(f"family = gamma\nlam = 2\nmu = -1e2\nout = {report}\n")
        assert main(["packet", "--config", str(cfg), "--lam", "0.5"]) == EXIT_OK
        spec = json.loads(report.read_text())["spec"]
        assert (spec["family"], spec["lam"], spec["mu"]) == ("gamma", 0.5, -100.0)

    @pytest.mark.parametrize(
        "args",
        [
            ["boson", "--q", "1.4", "--out", "x.csv"],
            ["boson", "--q", "1", "--steps", "1", "--out", "x.csv"],
            ["boson", "--q", "1", "--r-min", "-0.5", "--out", "x.csv"],
            ["boson", "--q", "1"],
            ["boson", "--format", "yaml", "--out", "x.csv"],
            ["boson", "--config", "steps.cfg"],
            ["boson", "--config", "format.cfg"],
            ["packet", "--config", "epsilon.cfg"],
            ["packet", "--config", "family.cfg"],
        ],
    )
    def test_usage_errors(self, args, tmp_path, monkeypatch, capsys):
        # a config value is typed and checked like the flag it names
        monkeypatch.chdir(tmp_path)
        for key, value in BAD_CONFIG_VALUES.items():
            (tmp_path / f"{key}.cfg").write_text(f"out = x.out\n{key} = {value}\n")
        assert main(args) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.out").exists()

    def test_retired_n_max_flag_and_key(self, tmp_path, monkeypatch, capsys):
        # the truncation comes from the bracket widths; a start level is no input
        monkeypatch.chdir(tmp_path)
        assert main(["boson", "--n-max", "30", "--out", "x.csv"]) == EXIT_USAGE
        assert "--n-max" in capsys.readouterr().err
        (tmp_path / "sweep.cfg").write_text("q = 0.9\nn_max = 30\n")
        assert main(["boson", "--config", "sweep.cfg", "--out", "x.csv"]) == EXIT_USAGE
        assert "'n_max'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_tiny_squeezing_rows_pass_the_method_check(self, tmp_path, capsys):
        # the 8x8 route lost ~1e-5 here before its tiny amplitudes were floored to zero
        out = tmp_path / "f.csv"
        code = main(["fermion", "--q", "0.75", "--r-min", "1e-80", "--r-max", "2e-80", "--steps", "2",
                     "--out", str(out)])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        _, rows = read_csv(out)
        assert all(float(row["method_agreement_residual"]) <= 1e-15 for row in rows)

    def test_swap_equivalent_warning(self, tmp_path, capsys):
        out = tmp_path / "swap.csv"
        assert main(["fermion", "--q", "0.5", "--steps", "2", "--out", str(out)]) == EXIT_OK
        assert "swap-equivalent" in capsys.readouterr().err

    def test_r_range_guard(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(["fermion", "--q", "1", "--r-max", "1.0", "--out", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize("r_max, code", [
        ("0.7853981633975", EXIT_OK), ("0.785398163399", EXIT_USAGE),
    ])
    def test_r_max_past_pi_over_4_by_rounding(self, r_max, code, tmp_path, capsys):
        # 5e-14 and 1.6e-12 past pi/4: the CLI range check and the squeezing
        # share one tolerance, so the first used to pass the check and then
        # end in a ValueError traceback from the fermion curve's r check
        out = tmp_path / "f.csv"
        assert main(["fermion", "--q", "1", "--r-max", r_max, "--steps", "2",
                     "--out", str(out)]) == code
        if code == EXIT_OK:
            assert read_csv(out)[1][-1]["r"] == "0.785398163398"
        else:
            assert "fermionic r range must stay within" in capsys.readouterr().err

    @pytest.mark.parametrize("r_min, r_max, code, text", [
        ("0", "0", EXIT_OK, ""),
        ("0.7853981633984", "0.7853981633984", EXIT_OK, ""),  # 9.5e-13 past pi/4
        ("-0.1", "0.5", EXIT_USAGE, "invalid r range [-0.1, 0.5]"),
        ("0.5", "0.2", EXIT_USAGE, "invalid r range [0.5, 0.2]"),
    ])
    def test_r_range_exit_codes(self, r_min, r_max, code, text, tmp_path, capsys):
        # the curve checks its whole grid before it solves; the CLI's own range
        # check comes first, so every grid it passes on is valid
        out = tmp_path / "f.csv"
        assert main(["fermion", "--q", "0.8,0.5", "--r-min", r_min, "--r-max", r_max,
                     "--steps", "3", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert text in err and "Traceback" not in err
        assert out.exists() == (code == EXIT_OK)


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

    @pytest.mark.parametrize("family, lam", [
        ("log-gaussian", "1e-4"), ("rapidity-gaussian", "1e-4"), ("log-gaussian", "1e-300"),
        ("gamma", "1e-300"), ("bessel", "1e-300"), ("bessel", "1e-310"),
    ])
    def test_profile_past_the_float_range_is_numeric_failure(self, family, lam, capsys):
        # at lambda = 1e-4 the automatic grid reaches |x| ~ 990, where e^x and
        # cosh x overflow; that window must be a grid error, and no numpy
        # warning may come first (under -W error it would exit 1).  At 1e-300
        # the window needs more points than numpy can index, and at 1e-310 an
        # infinite number: these ended in a ValueError or an OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["packet", "--family", family, "--lam", lam]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "not finite" in err and " points of spacing " in err

    def test_gamma_past_the_float_range_fails_at_once(self):
        # widening the gamma grid around its NaN density would cost 1.5x the
        # memory per step; the gamma and the Bessel window both leave the float
        # range of omega(x) and must fail before they are sampled.  Under the
        # cap a relapse ends in a failed allocation, not "not finite"
        out = capped_run("packet", "--family", "gamma", "--lam", "1e-4")
        assert out.returncode == EXIT_NUMERIC, out.stderr
        assert "not finite" in out.stderr
        assert "Warning" not in out.stderr

    def test_bessel_past_the_float_range_is_not_a_uniformity_error(self):
        # the automatic grid spans +-3e5 in 5.4M steps of 0.111, whose rounding
        # once failed the uniformity check; the real fault is the profile
        out = capped_run("packet", "--family", "bessel", "--lam", "1e-4")
        assert out.returncode == EXIT_NUMERIC, out.stderr
        assert "not finite" in out.stderr
        assert "uniformly spaced" not in out.stderr
        assert "Warning" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ("packet", "--mu", "1e300"), ("packet", "--mu", "1e12"), ("packet", "--lam", "1e20"),
        ("packet", "--mu", "1.7e308"), ("packet", "--family", "gamma", "--lam", "1e20"),
        ("packet", "--family", "rapidity-gaussian", "--mu", "1e300"),
        *[(command, "--out", "x.csv", "--steps", count)
          for command in ("boson", "fermion") for count in EXCESSIVE_COUNTS],
        *[("packet", "--x-min", "-5", "--x-max", "5", "--x-points", count)
          for count in EXCESSIVE_COUNTS],
        *[("packet", "--omega-max", "5", "--omega-points", count) for count in EXCESSIVE_COUNTS],
        # numpy allocates these grids, but not the profile or the transform on them
        ("packet", "--x-min", "-5", "--x-max", "5", "--x-points", "60000000"),
        ("packet", "--omega-max", "5", "--omega-points", "60000000"),
    ])
    def test_grid_count_past_the_memory_is_numeric_failure(self, argv, tmp_path):
        # the spacing shrinks as 1/|mu| and 1/sqrt(lambda) on a window that stays
        # finite; a count numpy cannot index or allocate (or an infinite one, once
        # 2 |mu| overflows) must be a grid error naming the count and the spacing,
        # and so must an explicit count
        out = capped_run(*argv, limit=2 << 30, cwd=tmp_path)
        assert out.returncode == EXIT_NUMERIC, out.stderr
        assert " points of spacing " in out.stderr and "more than can be allocated" in out.stderr
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr
        if argv[-2] in ("--steps", "--x-points", "--omega-points"):
            assert f"{argv[-2]} {argv[-1]}: " in out.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags, value", [
        (("--x-min", "-5", "--x-max", "5", "--x-points"), "-3"),
        (("--x-min", "-5", "--x-max", "5", "--x-points"), "0"),
        (("--x-min", "-5", "--x-max", "5", "--x-points"), "15"),
        (("--omega-max", "5", "--omega-points"), "-5"),
        (("--omega-max", "5", "--omega-points"), "1"),
        (("--omega-max", "5", "--omega-points"), "15"),
    ])
    def test_grid_counts_below_16_are_usage_errors(self, flags, value, capsys):
        # a negative count used to end in a numpy traceback, and 1-15 in a
        # grid error (exit 2) after the profile was built
        assert main(["packet", *flags, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flags[-1][2:]} must be >= 16, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, lam", [
        ("bessel", "114"), ("bessel", "150"), ("bessel", "300"), ("log-gaussian", "114"),
        ("log-gaussian", "150"), ("log-gaussian", "300"), ("log-gaussian", "1000"),
        ("gamma", "44"), ("gamma", "150"), ("bessel", "365"), ("bessel", "1000"),
        ("gamma", "50000"), ("gamma", "100000"),
    ])
    def test_large_lambda_passes_parseval_and_round_trip(self, family, lam, tmp_path):
        # K_0(300) ~ 3.7e-132 sets the Bessel norm at lambda = 150; the trapezoid
        # step shrinks with 1/sqrt(z).  Past lambda ~ 100 the x window, not the
        # packet width, bounds d_omega: a Fourier period 2 pi / d_omega inside
        # the window once folded the packet onto itself (round trip sqrt 2).
        # From gamma lambda = 44 on, u^lambda overflowed where e^-u was 0, and
        # past lambda = 85.8 so did Gamma(2 lambda); from Bessel lambda ~ 360 on,
        # K_0(2 lambda) went subnormal, then 0.  Each weight is now one
        # exponential of its logarithm, so these packets are finite.  From gamma
        # lambda ~ 5e4 on, the norm's rounding (about lambda eps) failed the
        # unit-norm check until the exponent was written around its peak.
        out = tmp_path / "report.json"
        assert main(["packet", "--family", family, "--lam", lam, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["parseval_residual"] < 1e-6
        assert payload["round_trip_error"] < 1e-6

    def test_nan_mass_is_a_usage_error(self, capsys):
        assert main(["packet", "--family", "rapidity-gaussian", "--mass", "nan"]) == EXIT_USAGE
        assert "mass must be > 0" in capsys.readouterr().err

    def test_the_massive_family_takes_no_left_mover_index(self, tmp_path, capsys):
        # --epsilon -1 was computed as +1 and reported as -1
        out = tmp_path / "report.json"
        argv = ["packet", "--family", "rapidity-gaussian", "--epsilon", "-1", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "a massive field has no mover index" in capsys.readouterr().err
        assert not out.exists()

    def test_a_massless_family_takes_no_mass(self, tmp_path, capsys):
        # --mass 7 was ignored and reported as "mass": 7.0
        out = tmp_path / "report.json"
        assert main(["packet", "--family", "bessel", "--mass", "7", "--out", str(out)]) == EXIT_USAGE
        assert "a bessel packet is massless" in capsys.readouterr().err
        assert not out.exists()

    def test_the_massive_family_takes_no_frequency_scale(self, tmp_path, capsys):
        # --omega0 3 was ignored and reported as "omega0": 3.0
        out = tmp_path / "report.json"
        argv = ["packet", "--family", "rapidity-gaussian", "--omega0", "3", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "rapidity-gaussian takes --mass" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_ends_in_messages_are_short(self, capsys):
        # written with .3f, each end of this window took 300 digits
        assert main(["packet", "--x-min", "-1e300", "--x-max", "1e300", "--x-points", "16"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "grid [-1e+300, 1e+300] " in err and len(err) < 200

    def test_a_window_wider_than_the_float_range_is_a_usage_error(self, capsys):
        # x-max - x-min overflowed inside np.linspace: two RuntimeWarnings (under
        # -W error, a traceback and exit 1), then "grid must be uniformly spaced"
        argv = ["packet", "--x-min", "-1e308", "--x-max", "1e308", "--x-points", "16"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "x-max - x-min must be finite" in err and "1e+308 - -1e+308" in err

    @pytest.mark.parametrize("family", ["log-gaussian", "rapidity-gaussian"])
    def test_a_given_grid_past_the_float_range_of_omega_is_numeric_failure(self, family, capsys):
        # the weight is finite there (it underflows to 0), omega(x) = e^x or m cosh x is not:
        # the grid's ends fail before the profile is sampled
        argv = ["packet", "--family", family, "--x-min", "-800", "--x-max", "800", "--x-points", "200000"]
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "not finite" in err and "grid [-800, 800] " in err

    @pytest.mark.parametrize("family", ["log-gaussian", "gamma", "bessel", "rapidity-gaussian"])
    @pytest.mark.parametrize("grids", [[], ["--x-min", "-12", "--x-max", "12", "--x-points", "4001"]],
                             ids=["auto", "given"])
    def test_omega_of_x_is_taken_at_the_grid_ends_only(self, family, grids, tmp_path, monkeypatch):
        # a profile stores its L2 weight sqrt(omega) f, which every transform, norm and moment
        # reads: no step of the packet path needs omega(x) on the whole grid
        from unruhkit import wavepacket

        omega = wavepacket._omega

        def ends_only(x, mass):
            assert np.size(x) <= 2, f"omega(x) evaluated on {np.size(x)} points"
            return omega(x, mass)

        monkeypatch.setattr(wavepacket, "_omega", ends_only)
        out = tmp_path / "report.json"
        assert main(["packet", "--family", family, *grids, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["round_trip_error"] < 1e-6

    @pytest.mark.parametrize("family", ["log-gaussian", "rapidity-gaussian"])
    @pytest.mark.parametrize("flag, value", [
        ("lam", "nan"), ("lam", "inf"), ("mu", "nan"), ("mu", "inf"), ("mu", "-inf"),
        ("leakage-threshold", "nan"), ("leakage-threshold", "inf"), ("omega0", "nan"),
        ("mass", "inf"), ("x-min", "nan"), ("x-min", "-inf"), ("x-max", "inf"),
        ("omega-max", "inf"), ("omega-max", "nan"), ("omega-max", "-5"), ("omega-max", "0"),
        ("x-max", "-10"),
    ])
    def test_non_finite_packet_flags_are_usage_errors(self, flag, value, family, capsys):
        # past validation these raise deep in the grid code, after numpy
        # warnings, blame the wrong thing or pass silently (a NaN threshold
        # makes every packet fail the SMA test); x-max = -10 meets x-min = 10
        companions = ["--x-min=10", "--x-points=2000"] if (flag, value) == ("x-max", "-10") else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["packet", "--family", family, f"--{flag}={value}", *companions])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag} must be" in err and f"got {value}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, text", [
    (["packet", "--mu", "-1e2"], EXIT_OK, "mu=-100"),
    (["packet", "--mu", "-1E-3"], EXIT_OK, "mu=-0.001"),
    (["packet", "--mu", "-.5e1"], EXIT_OK, "mu=-5"),
    (["packet", "--x-min", "-1e1", "--x-max", "10", "--x-points", "1000"], EXIT_OK, "mu=8"),
    (["boson", "--r-min", "-1e-3", "--out", "x.csv"], EXIT_USAGE, "invalid r range [-0.001, 1.5]"),
    (["packet", "--mu", "-inf"], EXIT_USAGE, "mu must be finite, got -inf"),
    (["packet", "--mu", "-Infinity"], EXIT_USAGE, "mu must be finite, got -inf"),
    (["packet", "--leakage-threshold", "-NaN"], EXIT_USAGE, "leakage-threshold must be finite, got nan"),
    (["boson", "--r-max", "-inf", "--out", "x.csv"], EXIT_USAGE, "r-min/r-max must be finite, got 0.0, -inf"),
])
def test_negative_values_in_exponent_form(argv, code, text, tmp_path, monkeypatch, capsys):
    # unless told otherwise, argparse reads -1e2 as an unknown flag, not as a value:
    # "argument --mu: expected one argument"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    got = capsys.readouterr()
    assert text in got.out + got.err
    assert "expected one argument" not in got.err


@pytest.mark.parametrize("model, flag, value", [
    ("boson", "r-max", "inf"), ("boson", "r-max", "nan"), ("boson", "r-max", "-inf"),
    ("boson", "r-min", "nan"), ("boson", "r-min", "inf"), ("fermion", "r-min", "nan"),
    ("fermion", "r-max", "nan"),
])
def test_non_finite_r_flags_are_usage_errors(model, flag, value, tmp_path, monkeypatch, capsys):
    # NaN passes every ordered comparison as false, so it used to reach the
    # squeezing validation and end in a traceback
    monkeypatch.chdir(tmp_path)
    assert main([model, f"--{flag}={value}", "--out", "x.csv"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "r-min/r-max must be finite" in err and value in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


#: boson, packet, a usage error, packet, packet, packet, boson and help: each writes to stdout,
#: stderr or a file.  The flag reader reads the sweeps and the p.json call; argparse parses an
#: abbreviated flag, a split negative value and a --config call with one (its file sets mu = -1).
SEQUENCE = (
    ["boson", "--q", "0.9,1", "--r-max", "2", "--steps", "5", "--out", "a.csv"],
    ["packet", "--la", "0.3", "--out", "abbreviated.json"],
    ["boson", "--q", "1.4", "--out", "bad.csv"],
    ["packet", "--mu", "-2", "--out", "negative.json"],
    ["packet", "--family", "log-gaussian", "--lam", "0.5", "--out", "p.json"],
    ["packet", "--config", "negative.cfg", "--epsilon", "-1", "--out", "config.json"],
    ["boson", "--q", "0.3", "--r-max", "1", "--steps", "4", "--format", "json", "--out", "b.json"],
    ["fermion", "--help"],
)


def test_in_process_calls_match_separate_runs(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: later calls must not see any
    # state of earlier ones, whether the flag reader or argparse parsed them
    monkeypatch.setenv("COLUMNS", "80")
    separate, together = tmp_path / "separate", tmp_path / "together"
    for directory in (separate, together):
        directory.mkdir()
        (directory / "negative.cfg").write_text("mu = -1\n")
    expected = []
    for argv in SEQUENCE:
        out = subprocess.run([sys.executable, "-m", "unruhkit.cli", *argv], cwd=separate,
                             env=src_env(), capture_output=True, text=True, timeout=60)
        expected.append((out.returncode, out.stdout, out.stderr))
    monkeypatch.chdir(together)
    for argv, want in zip(SEQUENCE, expected):
        code = main(list(argv))
        got = capsys.readouterr()
        assert (code, got.out, got.err) == want
    codes = [code for code, _, _ in expected]
    assert codes == [EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert [cli._read(argv) is None for argv in SEQUENCE] == [False, True, False, True, False, True, False, True]
    files = sorted(path.name for path in separate.iterdir())
    assert files == ["a.csv", "abbreviated.json", "b.json", "config.json", "negative.cfg", "negative.json", "p.json"]
    assert json.loads((separate / "config.json").read_text())["spec"]["mu"] == -1.0
    assert sorted(path.name for path in together.iterdir()) == files
    for name in files:
        assert (together / name).read_bytes() == (separate / name).read_bytes()


def argparse_namespace(argv):
    """argparse's namespace for ``argv``, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


def fields(namespace) -> dict:
    """Each attribute's repr: NaN equals NaN, and -0.0 differs from 0.0 and 1 from 1.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


#: odd values: negatives, empties, "--", flags, text, and texts that only some types take
EDGE_VALUES = st.sampled_from(["", "--", "-", "-1", "-1e2", "-inf", "-h", "--help", "--lam", "abc", "1e3",
                               "nan", "1,x", " 2"])


def typed_values(action) -> st.SearchStrategy[str]:
    """Texts that a flag's type and choices take, negatives included."""
    if action.choices is not None:
        return st.sampled_from([str(choice) for choice in action.choices])
    if action.type is float:
        return st.floats().map(repr)
    if action.type is int:
        return st.integers(-10, 10**6).map(str)
    if action.type is str:
        return st.text(alphabet="ab./-= ", max_size=6)
    return st.lists(st.floats(0.0, 1.0), max_size=3).map(lambda qs: ",".join(map(repr, qs)))  # --q


@st.composite
def flag_tokens(draw, stores: dict, clean: bool):
    """(tokens, plain) of one flag of ``stores``: clean ones take a typed value as --flag=value or
    --flag value, others any value in any form; plain when the reader must read them."""
    option = draw(st.sampled_from(sorted(stores)))
    typed = clean or draw(st.booleans())
    value = draw(typed_values(stores[option]) if typed else EDGE_VALUES)
    form = draw(st.sampled_from(["split", "equals"] if clean else
                                ["split", "equals", "abbreviated", "missing", "help"]))
    if form == "abbreviated":  # down to "--", which ends argparse's flags
        return [option[:draw(st.integers(2, len(option) - 1))], value], False
    if form == "help":
        return [draw(st.sampled_from(["-h", "--help"]))], False
    tokens = {"split": [option, value], "equals": [f"{option}={value}"], "missing": [option]}[form]
    return tokens, typed and value != "--" and (form == "equals" or form == "split" and value[:1] != "-")


@st.composite
def flag_argvs(draw):
    """(argv, plain): a subcommand and a random run of its flags, in any order and with repeats, with
    up to two odd ones among them; plain when every token is an exact flag with a typed value, given
    as --flag=value or, when it does not start with "-", as --flag value."""
    command = draw(st.sampled_from(sorted(cli._build_parser().commands)))
    stores = cli._build_parser().commands[command].stores
    flags = draw(st.lists(flag_tokens(stores, clean=True), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        flags.insert(draw(st.integers(0, len(flags))), draw(flag_tokens(stores, clean=False)))
    return [command, *[token for tokens, _ in flags for token in tokens]], all(plain for _, plain in flags)


@settings(max_examples=500, deadline=None)
@given(flag_argvs())
@example((["boson", "--out=--"], False))
@example((["boson", "--q=--", "--steps", "5"], False))
@example((["boson", "--format=yaml"], False))
@example((["packet", "--epsilon=2"], False))
@example((["packet", "--lam", "1", "--lam", "2", "--mu=-3"], True))
@example((["packet", "--mu", "-1e2"], False))
@example((["packet", "--mu", "-h"], False))
@example((["packet", "--family", "--lam"], False))
@example((["packet", "--la", "1"], False))
@example((["fermion", "--steps"], False))
@example((["fermion", "--steps", "1e3"], False))
@example((["fermion", "--r-max="], False))
def test_the_flag_reader_agrees_with_argparse(case):
    argv, plain = case
    ours, theirs = cli._read(argv), argparse_namespace(argv)
    if ours is not None:  # whenever the reader reads argv, argparse parses it to the same namespace
        assert theirs is not None and fields(ours) == fields(theirs)
    if theirs is None:  # whenever argparse exits, the reader left argv to it
        assert ours is None
    if plain:  # and the reader reads every argv of exact flags and typed values
        assert ours is not None


def test_the_flag_reader_defers_without_a_subcommand():
    for argv in ([], ["bogus"], ["-h"], ["--help"], ["--q", "1"], ["--q=1"]):
        assert cli._read(argv) is None


@pytest.mark.parametrize("command", ["boson", "fermion", "packet"])
def test_the_flag_reader_knows_every_flag_of_the_usage(command):
    parser = cli._build_parser().commands[command]
    assert set(re.findall(r"\[(--[a-z0-9-]+)", parser.format_usage())) == set(parser.stores)


@pytest.mark.parametrize("command, flag", [(command, flag) for command, parser in cli._build_parser().commands.items()
                                           for flag in sorted(parser.stores)])
def test_a_flag_valued_dashes_is_a_flag_with_no_value(command, flag, tmp_path, monkeypatch, capsys):
    # argparse drops the "--" of --flag=-- and stored [] without running the type: --lam=-- ended
    # in a TypeError, --family=-- in a ValueError, --out=-- exited 0 and --format=-- wrote JSON
    monkeypatch.chdir(tmp_path)
    runs = [(main([command, "--out", "x.out", last]), *capsys.readouterr()) for last in (f"{flag}=--", flag)]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def capped_run(*argv, limit=1 << 30, cwd=None):
    """The CLI on ``argv`` in a child with warnings as errors and ``limit`` bytes of address space.

    The cap makes any large allocation fail at once instead of succeeding
    lazily and exhausting memory later: a grid that keeps growing, or one
    whose point count has no bound.
    """
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "unruhkit.cli", *argv],
        env=src_env(), cwd=cwd, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("command, key", [
    ("boson", "n_maxx"), ("boson", "family"), ("fermion", "n-max"), ("fermion", "config"),
    ("packet", "steps"), ("packet", "lamda"),
])
def test_config_keys_without_a_flag_are_usage_errors(command, key, tmp_path, monkeypatch, capsys):
    # a misspelt or foreign key used to be dropped without a word
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"out = x.out\n{key} = 5\n")
    assert main([command, "--config", "run.cfg"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"run.cfg:2: unknown key {key.replace('-', '_')!r}" in err and "Traceback" not in err
    assert not (tmp_path / "x.out").exists()


def test_import_loads_no_scipy_special_or_linalg():
    # scipy, the quadrature nodes of numpy.polynomial and numpy.fft cost a
    # noticeable share of every CLI call; they load on first use.  json the
    # CLI does not load at all: it writes its two JSON layouts itself, and the
    # dense engine starts its own threads, with no concurrent.futures pool
    code = ("import sys, unruhkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'json', 'concurrent') "
            "or m.startswith(('numpy.polynomial', 'numpy.fft'))))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("calls, expected", [
    # the dense engine loads scipy.linalg's LAPACK extension by file path, alone
    ([["boson", "--q", "0.8", "--steps", "3", "--out", "b.csv"],
      ["packet", "--family", "gamma"], ["packet", "--family", "bessel"]],
     ["scipy.linalg._flapack"]),
    ([["fermion", "--steps", "3", "--out", "f.csv"], ["packet", "--family", "log-gaussian"],
      ["boson", "--q", "1", "--steps", "3", "--out", "b.csv"]], []),
], ids=["dense-gamma-bessel", "fermion-log-gaussian-blocks"])
def test_cli_calls_load_no_scipy_package(calls, expected, tmp_path):
    # importing scipy.linalg or scipy.special costs ~0.25 s and ~26-28 MB each
    code = (f"import sys, unruhkit.cli; print([unruhkit.cli.main(a) for a in {calls!r}], "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == f"{[EXIT_OK] * len(calls)} {expected}"


def old_csv_cell(value):
    # the per-cell rule the CSV writer had before it picked one format per column
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


CELLS = {
    "float": st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, math.nan, -math.inf]),
    "int": st.integers(),
    # the text a UTF-8 file can hold: no lone surrogates (see test_csv_rejects_a_lone_surrogate)
    "str": st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=8),
    "bool": st.booleans(),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
def test_csv_rows_match_the_per_cell_rule(data, kinds, tmp_path_factory):
    rows = data.draw(st.lists(st.tuples(*[CELLS[kind] for kind in kinds]).map(list), min_size=1, max_size=6))
    header = [f"c{i}" for i in range(len(kinds))]
    want = ["# schema=1", ",".join(header)] + [",".join(map(old_csv_cell, row)) for row in rows]
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_table(SimpleNamespace(format="csv", out=str(out)), header, [list(row) for row in rows])
    assert out.read_text() == "\n".join(want) + "\n"


def test_csv_rejects_a_lone_surrogate(tmp_path):
    # strict UTF-8 cannot encode one, and no CLI table has a string column
    with pytest.raises(UnicodeEncodeError):
        _write_table(SimpleNamespace(format="csv", out=str(tmp_path / "t.csv")), ["b", "s"], [[False, "\ud800"]])


def test_csv_special_floats(tmp_path):
    rows = [[math.nan, 1, "a", True], [math.inf, -2, "b", False], [-math.inf, 0, "", True], [-0.0, 3, "c", False]]
    want = [",".join(map(old_csv_cell, row)) for row in rows]
    out = tmp_path / "t.csv"
    _write_table(SimpleNamespace(format="csv", out=str(out)), ["f", "i", "s", "b"], [list(row) for row in rows])
    assert out.read_text().splitlines()[2:] == want == ["nan,1,a,true", "inf,-2,b,false", "-inf,0,,true", "-0,3,c,false"]


def test_csv_write_leaves_its_rows_unchanged(tmp_path):
    # the flags become text in the file only, so a caller may read its rows after the write
    rows = [[0.5, 3, True], [0.25, 4, False]]
    _write_table(SimpleNamespace(format="csv", out=str(tmp_path / "t.csv")), ["f", "i", "b"], rows)
    assert rows == [[0.5, 3, True], [0.25, 4, False]]
    assert (tmp_path / "t.csv").read_text().splitlines()[2:] == ["0.5,3,true", "0.25,4,false"]


def round12(x):
    # a float as the JSON documents hold it: the float of its 12-digit text
    return float(_fmt(x))


#: floats where the writers could part from json: NaN, +-inf, -0.0, subnormals and the smallest
#: normals, the ends of the float range, 1e12, where .12g switches to an exponent, and 1e16,
#: where repr does, integers, and the notation switches at 1e-4 and 1e-5
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                  2.225073858507e-308, 2.2250738585073e-308, 1e-300, 1.7976931348623157e308, 0.1, 1e12,
                  -1.5e12, 999999999999.5, 1e15, 1e16, 999999999999999.9, 9999999999999998.0,
                  1.00000000000005e15, 123456789012.5, 12.0, -3.0, 1e-05, 0.0001, 9.99999999999995e-05]
JSON_FLOATS = (st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
               | st.floats(allow_nan=False, allow_infinity=False).map(round12))
JSON_CELLS = {"float": JSON_FLOATS, "int": st.integers() | st.sampled_from([0, -1, 2**70]), "bool": st.booleans()}


def table_json(header, rows, directory):
    out = directory / "t.json"
    _write_table(SimpleNamespace(format="json", out=str(out)), header, [list(row) for row in rows])
    return out.read_text()


def old_table_json(header, rows):
    # the SCHEMA-1 sweep table as it was written through the general json walker
    return json.dumps([{"schema": 1} | {key: round12(v) if isinstance(v, float) else v
                                        for key, v in zip(header, row)} for row in rows], indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(JSON_CELLS)), min_size=1, max_size=6))
def test_table_json_matches_the_indent_encoder(data, kinds, tmp_path_factory):
    rows = data.draw(st.lists(st.tuples(*[JSON_CELLS[kind] for kind in kinds]).map(list), max_size=5))
    header = [f"c{i}" for i in range(len(kinds))]
    assert table_json(header, rows, tmp_path_factory.mktemp("json")) == old_table_json(header, rows)


def test_table_json_special_values(tmp_path):
    header = ["f", "i", "b", "g"]
    rows = [[v, i, i % 2 == 0, np.float64(v)] for i, v in zip([0, -1, 2**70, *range(len(SPECIAL_FLOATS) - 3)],
                                                                SPECIAL_FLOATS)]
    assert table_json(header, rows, tmp_path) == old_table_json(header, rows)
    assert table_json(header, [], tmp_path) == "[]\n" == old_table_json(header, [])


@pytest.mark.parametrize("cell", [np.int64(3), "text", None, (1.5,), np.bool_(True)])
def test_table_json_rejects_a_column_it_cannot_write(cell, tmp_path):
    # a type outside the writer's set fails loudly rather than being written some other way
    with pytest.raises(TypeError):
        table_json(["a", "b"], [[1.0, cell]], tmp_path)


def old_packet_json(args, fields, sma_valid, table):
    # the SCHEMA-1 packet report as it was written through the general json walker
    values = {name: float(text) for name, text in fields}
    return json.dumps({
        "schema": 1,
        "spec": {"family": args.family} | {name: round12(getattr(args, name))
                                            for name in ("lam", "mu", "omega0", "mass")}
        | {"epsilon": args.epsilon, "leakage_threshold": round12(args.leakage_threshold)},
        "report": {name: values[name] for name, _ in fields[:5]} | {"sma_valid": sma_valid},
        "parseval_residual": values["parseval_residual"],
        "round_trip_error": values["round_trip_error"],
        "table": [dict(zip(("omega", "abs_g_r", "abs_g_l"), map(float, row))) for row in table],
    }, indent=2)


PACKET_FIELDS = ("peak_omega", "delta_omega", "delta_log_omega", "uncertainty_product", "leakage",
                 "parseval_residual", "round_trip_error")


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["log-gaussian", "gamma", "bessel", "rapidity-gaussian"]),
       spec=st.lists(JSON_FLOATS, min_size=5, max_size=5), epsilon=st.sampled_from([-1, 1]),
       values=st.lists(JSON_FLOATS, min_size=7, max_size=7), sma_valid=st.booleans(),
       table=st.lists(st.lists(JSON_FLOATS, min_size=3, max_size=3), min_size=1, max_size=33))
def test_packet_json_matches_the_indent_encoder(family, spec, epsilon, values, sma_valid, table):
    args = SimpleNamespace(family=family, epsilon=epsilon,
                           **dict(zip(("lam", "mu", "omega0", "mass", "leakage_threshold"), spec)))
    fields = [(name, _fmt(v)) for name, v in zip(PACKET_FIELDS, values)]
    table = [[_fmt(v) for v in row] for row in table]
    assert _packet_json(args, fields, sma_valid, table) == old_packet_json(args, fields, sma_valid, table)


def test_packet_json_special_values():
    args = SimpleNamespace(family="gamma", epsilon=-1, lam=1e16, mu=-0.0, omega0=5e-324, mass=math.inf,
                           leakage_threshold=math.nan)
    fields = [(name, _fmt(v)) for name, v in zip(PACKET_FIELDS, SPECIAL_FLOATS)]
    table = [[_fmt(v) for v in SPECIAL_FLOATS[i:i + 3]] for i in range(len(SPECIAL_FLOATS) - 2)]
    assert _packet_json(args, fields, True, table) == old_packet_json(args, fields, True, table)


@pytest.mark.parametrize("argv", [
    ["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8"],
    ["packet", "--family", "rapidity-gaussian", "--lam", "0.05", "--mu", "5"],
    ["packet", "--family", "gamma", "--lam", "0.3", "--mu", "-2", "--leakage-threshold", "1e-300"],
    ["boson", "--q", "1,0.8", "--r-max", "2", "--steps", "6", "--format", "json"],
    ["fermion", "--q", "0.9,0.5", "--steps", "7", "--format", "json"],
], ids=["log-gaussian", "rapidity-gaussian", "gamma", "boson", "fermion"])
def test_written_json_is_the_indent_encoders_text(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) in (EXIT_OK, EXIT_NUMERIC)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_a_repeated_packet_call_repeats_its_work_and_bytes(tmp_path, monkeypatch, capsys):
    # no state outlives a call: the second of two identical calls does the same transforms
    from numpy import fft

    transforms = []
    monkeypatch.setattr(fft, "fft", lambda *args, _fft=fft.fft, **kwargs: transforms.append(1) or _fft(*args, **kwargs))
    outputs, counts = [], []
    for out in (tmp_path / "a.json", tmp_path / "b.json"):
        before = len(transforms)
        assert main(["packet", "--family", "bessel", "--lam", "0.2", "--out", str(out)]) == EXIT_OK
        counts.append(len(transforms) - before)
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert counts[0] == counts[1] > 0
    assert outputs[0] == outputs[1]


def test_write_finishes_a_short_write_with_the_mode_of_open(tmp_path, monkeypatch):
    text = "snowman \u2603 and a row\n" * 50
    real_write = os.write
    chunks = []

    def short_write(fd, data):
        chunks.append(real_write(fd, bytes(data[:7])))
        return chunks[-1]

    monkeypatch.setattr(os, "write", short_write)
    cli._write(str(tmp_path / "low.txt"), text)
    monkeypatch.undo()
    with open(tmp_path / "high.txt", "w") as handle:
        handle.write(text)
    assert (tmp_path / "low.txt").read_bytes() == text.encode() == (tmp_path / "high.txt").read_bytes()
    assert len(chunks) == -(-len(text.encode()) // 7)
    assert os.stat(tmp_path / "low.txt").st_mode == os.stat(tmp_path / "high.txt").st_mode
    cli._write(str(tmp_path / "low.txt"), "short")  # an existing file is truncated
    assert (tmp_path / "low.txt").read_bytes() == b"short"


FERMION = ["fermion", "--q", "0.9", "--steps"]


def test_rewriting_an_output_in_place_leaves_no_stale_tail(tmp_path):
    # a long table written over by a short one is cut to the short one's bytes, in the same file
    out, fresh = tmp_path / "x.csv", tmp_path / "fresh.csv"
    assert main([*FERMION, "40", "--out", str(out)]) == EXIT_OK
    inode, long_size = os.stat(out).st_ino, os.stat(out).st_size
    assert main([*FERMION, "3", "--out", str(out)]) == main([*FERMION, "3", "--out", str(fresh)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes() and len(fresh.read_bytes()) < long_size
    assert os.stat(out).st_ino == inode


@pytest.mark.parametrize("argv", [
    [*FERMION, "3"], ["boson", "--q", "0.9", "--steps", "3"], ["packet", "--lam", "1"],
])
def test_out_may_be_dev_null(argv, capsys):
    # not a regular file: nothing is cut, as ftruncate would fail there
    assert main([*argv, "--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_a_symlinked_out_rewrites_its_target_and_keeps_the_link(tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_text("an older, longer file\n" * 500)
    link.symlink_to(target)
    assert main([*FERMION, "3", "--out", str(link)]) == main([*FERMION, "3", "--out", str(fresh)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_an_unwritable_out_is_a_numeric_failure_that_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    # the open of a read-only file fails with EACCES (a root user is not refused, so the refusal is stubbed)
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    out.chmod(0o444)
    real_open = os.open

    def refusing(path, flags, *args):
        if path == str(out):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", refusing)
    assert main([*FERMION, "3", "--out", str(out)]) == EXIT_NUMERIC
    assert "Permission denied" in capsys.readouterr().err and out.read_text() == "old\n"


@pytest.mark.parametrize("argv, work", [
    (["boson", "--q", "0.9", "--steps", "3"], "bosonic_curve"),
    (["fermion", "--q", "0.9", "--steps", "3"], "fermionic_curve"),
    (["packet", "--lam", "1"], "_packet_pipeline"),
])
@pytest.mark.parametrize("where", ["missing directory", "directory", "file as directory"])
def test_unusable_out_is_a_usage_error_before_any_work(argv, work, where, tmp_path, monkeypatch, capsys):
    # such a path used to fail only when the finished table or report was written
    # (exit 2), after the whole sweep, and a packet printed its report first
    def failing(*args, **kwargs):
        raise AssertionError("computation began before --out was checked")

    monkeypatch.setattr(cli, work, failing)
    (tmp_path / "file").write_text("")
    out = {"missing directory": tmp_path / "missing" / "x.out", "directory": tmp_path,
           "file as directory": tmp_path / "file" / "x.out"}[where]
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    expected = "is a directory" if where == "directory" else f"{out.parent} is not an existing directory"
    assert captured.out == "" and f"--out {out}: " in captured.err and expected in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["file"] and (tmp_path / "file").read_text() == ""


def test_write_failure_the_check_cannot_see_stays_a_numeric_failure(tmp_path, monkeypatch, capsys):
    def refused(path, text):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "_write", refused)
    out = tmp_path / "x.csv"
    assert main(["fermion", "--q", "0.9", "--steps", "3", "--out", str(out)]) == EXIT_NUMERIC
    assert "Permission denied" in capsys.readouterr().err
