"""The benchmark's tracer and output checker still fit the package.

``perfbench/tracer.py`` replaces named functions in named modules, and
refuses to run if a module no longer imports a function by that name.
``perfbench/checks.py`` builds its references partly from package names
(``qops`` for the dense bosonic oracle, the closed-form packet images).
Renaming or deleting one would break only the benchmark run; these tests
make it fail here instead.  A smoke test runs each workload's argv
(``perfbench/workloads.py``) through the CLI and the checker.  The
benchmark's files are only loaded, never changed.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from test_bosonic import fsum_block_series
from unruhkit.bosonic import _dense_pair, bosonic_curve, bosonic_negativity_pair
import unruhkit.cli as cli
from unruhkit.cli import main
from unruhkit.fermionic import R_MAX, fermionic_curve
from unruhkit.weights import UnruhWeights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def attributes(tracer):
    """(owner, attribute) for everything the tracer replaces."""
    found = []
    for _layer, _name, home, func, importers, _facts in tracer.TARGETS:
        for module in (home,) + importers:
            found.append((importlib.import_module(f"unruhkit.{module}"), func))
    for _layer, _name, home, cls_name, methods in tracer.METHOD_TARGETS:
        cls = getattr(importlib.import_module(f"unruhkit.{home}"), cls_name)
        found.extend((cls, method) for method in methods)
    return found


def test_install_wraps_and_uninstall_restores():
    tracing = load("tracer")
    targets = attributes(tracing)
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr), original in zip(targets, originals))


#: one call per subcommand: dense boson rows, a fermion curve, a packet with its report
TRACED_CALLS = (
    ["boson", "--q", "0.9", "--r-max", "1", "--steps", "4", "--out", "b.csv"],
    ["fermion", "--q", "0.8", "--steps", "5", "--format", "json", "--out", "f.json"],
    ["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8", "--out", "p.json"],
)


def run_calls(directory, capsys):
    """Exit code, stdout, stderr and written bytes of each of ``TRACED_CALLS`` run in ``directory``."""
    results = []
    for argv in TRACED_CALLS:
        out = directory / argv[-1]
        code = cli.main([*argv[:-1], str(out)])  # through the module, as the benchmark calls it
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, out.read_bytes()))
    return results


def test_traced_calls_match_untraced_ones(tmp_path, capsys):
    # every wrapper is called, not just installed: a wrapped name that breaks only
    # when it runs would otherwise show only in a traced benchmark run
    tracing = load("tracer")
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run_calls(tmp_path / "plain", capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        traced = run_calls(tmp_path / "traced", capsys)
    finally:
        tracer.uninstall()
    assert [code for code, *_ in plain] == [0, 0, 0]
    assert traced == plain
    names = {span[2] for span in tracer.spans}
    # the fermion curve solves its 8x8 oracle as one stack, so no per-row
    # fermionic.residual or "full" fermionic.pair span remains; its blocks
    # route builds no explicit block, so the pt_blocks wrapper, still
    # installed, records no span
    assert {"cli.main", "cli.cmd", "bosonic.curve", "fermionic.curve",
            "qops.eigvalsh", "wavepacket.forward", "wavepacket.inverse", "wavepacket.norm"} <= names
    assert "fermionic.pt_blocks" not in names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["fermionic.pair_full.calls"] == 0 and metrics["wavepacket.packets"] == 1
    assert metrics["fermionic.pt_blocks.calls"] == 0


def test_tracer_bound_is_the_farthest_distance_to_the_ends():
    # the tracer's ``bound`` fact reads ``tail_weight``: on both routes it must be the farthest a
    # value lies from the ends the report certifies, and those ends must hold a deeper reference
    # (at the dense point, q = 0.3 and r = 0.2, the widths are over 100 times the squeezed-vacuum
    # weight past its level, so a report that gave that weight would fail here)
    tracing = load("tracer")
    for q, r, method in ((0.3, 0.2, "dense"), (1.0, 5.0, "blocks")):
        weights = UnruhWeights.from_abs(q)
        pair = bosonic_negativity_pair(r, weights)
        rep = pair.report
        facts = tracing._pair_facts((r, weights), {}, pair)
        far = max(max(v - lo, hi - v) for v, lo, hi in zip((pair.n_ar, pair.n_aar), rep.lo, rep.hi))
        assert facts["method"] == rep.method == method
        assert facts["bound"] == far > 0.0
        if method == "dense":  # within the bracket tests' allowance for LAPACK's rounding
            deeper, slack = _dense_pair(r, weights, rep.n_max_used + 32), 1e-14
        else:
            deeper, slack = (fsum_block_series(r)[0], 0.0), 0.0
        for lo, deep, hi in zip(rep.lo, deeper, rep.hi):
            assert lo - slack <= deep <= hi + slack


def test_checker_references_accept_the_package():
    checks = load("checks")
    # dense bosonic oracle on one small case, judged as the checker judges a row
    n_ar, n_aar, slack = checks.dense_oracle(0.8, 0.5, 40)
    pair = bosonic_negativity_pair(0.5, UnruhWeights.from_abs(0.8))
    for got, ref in ((pair.n_ar, n_ar), (pair.n_aar, n_aar)):
        assert checks._close(got, ref, checks.REL_TOL, checks.ABS_FLOOR + slack)
    # converged curve rows on the smallest levels (r = 0 and 0.005 take n = 1
    # and 2) up to the cap, judged as the checker judges a boson row
    grid = np.append([0.0, 0.005], np.linspace(0.05, 1.6, 12))
    levels = set()
    for q in (0.4, 0.9):
        for row in bosonic_curve(q, grid):
            assert row.report.converged
            levels.add(row.report.n_max_used)
            ref_ar, ref_aar, slack = checks.dense_oracle(
                q, row.r, row.report.n_max_used + checks.ORACLE_EXTRA_LEVELS)
            for got, ref in ((row.n_ar, ref_ar), (row.n_aar, ref_aar)):
                assert checks._close(got, ref, checks.REL_TOL, checks.ABS_FLOOR + slack)
    assert {1, 2, 120} <= levels
    # batched fermion reference on a short grid
    grid = np.linspace(0.0, R_MAX, 5)
    ref_ar, ref_aar = checks.fermion_reference(0.8, grid)
    for row, e_ar, e_aar in zip(fermionic_curve(0.8, grid), ref_ar, ref_aar):
        assert checks._close(row.n_ar, e_ar, checks.FERMION_REL_TOL, checks.ABS_FLOOR)
        assert checks._close(row.n_aar, e_aar, checks.FERMION_REL_TOL, checks.ABS_FLOOR)


def test_checker_closed_form_accepts_a_packet_table(tmp_path):
    checks = load("checks")
    out = tmp_path / "report.json"
    assert main(["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8",
                 "--out", str(out)]) == 0
    table = json.loads(out.read_text())["table"]
    assert table
    assert checks._closed_form_problem({"lam": 1.0, "mu": 8.0}, table) == ""


def test_every_workload_passes_its_checker(tmp_path):
    # seed 1 of each workload through the CLI, judged op by op as the benchmark
    # judges a pass; only the failures the checker calls known may remain
    # (boson-sweep's unconverged rows past r ~ 1.63)
    workloads, checks = load("workloads"), load("checks")
    for name in workloads.WORKLOADS:
        calls = workloads.build(name, 1, tmp_path / name)
        (tmp_path / name).mkdir()
        for i, call in enumerate(calls):
            code = main(list(call.argv))
            data = call.out.read_bytes() if call.out.is_file() else None
            ops = checks.classify(i, call, code, data)
            assert len(ops) == call.ops
            unexpected = [op for op in ops if not op.ok and not op.known]
            assert not unexpected, (name, call.argv, unexpected[0].detail)


def test_the_flag_reader_reads_every_workload_argv(tmp_path):
    # the benchmark's traffic is well-formed exact flags: none of it reaches argparse
    workloads = load("workloads")
    argvs = [list(call.argv) for name in workloads.WORKLOADS for seed in (1, 2, 3)
             for call in workloads.build(name, seed, tmp_path)]
    assert len(argvs) == 75
    for argv in argvs:
        args = cli._read(argv)
        assert args is not None and vars(args) == vars(cli._build_parser().parse_args(argv))
