"""unruhkit benchmark: seeded CLI workloads, checked outputs, optional trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload boson-sweep --seed 1 --seconds 15 --trace 0

The load is a closed loop: one process and one client calling
``unruhkit.cli.main(argv)`` in-process, one call after the other, with the
BLAS and OpenMP pools pinned to one thread.  A pass is the workload's whole
argv list.  After one untimed warm-up pass, passes repeat until
``--seconds`` have gone by; every pass must write the same bytes as the
warm-up.  The warm-up outputs are then checked against independent
references (see ``checks.py``), outside the timed region.

Before and after every call a fixed reference computation (the probe) is
timed.  The machine's speed drifts by tens of percent over seconds when its
host is busy, and the probe drifts with it, so each call's time divided by
the mean of its two neighbouring probes measures the program rather than
the host.  ``wall_s`` is that calibrated pass time in reference seconds,
and ``setup_s`` is the import time calibrated the same way; the raw times
are kept in the run's details.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracer.py``).  The last line of standard output is the result object;
the line before it carries the run's details (argv, samples, quartiles,
operation statuses, self-test, machine), which are also written, with the
spans of the first traced pass, under ``perfbench/out/``.
"""

from __future__ import annotations

import os

#: pinned before numpy loads so its BLAS pool starts with one thread
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"

#: fresh-interpreter import samples per run, after one untimed import
SETUP_SAMPLES = 7
#: fewest timed passes, so that a median exists even when a pass outlasts --seconds
MIN_PASSES = 2

IMPORT_SNIPPET = "import time; t = time.perf_counter(); import unruhkit.cli; print(time.perf_counter() - t)"


class Probe:
    """Fixed reference work, timed between calls to track the machine's speed.

    Each kind takes about 10 ms on an idle 2.1 GHz Xeon core.  ``mixed`` is
    an interpreter loop, 64x64 and 3x3 complex LAPACK eigensolves and a
    complex exponential over 100k points: the kinds of work the dense,
    fermionic and packet paths do.  ``vector`` is elementwise power and
    square-root arithmetic over 200k points, the kind of work the block
    series does; host contention slows it far less than interpreter and
    LAPACK work, so it needs its own reference.
    """

    #: probe time that counts as one reference second, per kind
    REFERENCE_S = {"mixed": 0.010, "vector": 0.0105}

    def __init__(self, kind: str):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.matrix = a + a.conj().T
        self.x = np.linspace(0.0, 1.0, 100_000)
        self.n = np.arange(200_000)
        self.kernel = getattr(self, f"_{kind}")
        self.reference = self.REFERENCE_S[kind]

    def _mixed(self) -> None:
        s = 0
        for i in range(40_000):
            s += i * i
        for _ in range(8):
            np.linalg.eigvalsh(self.matrix)
        for _ in range(300):
            np.linalg.eigvalsh(self.matrix[:3, :3])
        np.abs(np.exp(1j * self.x)).sum()

    def _vector(self) -> None:
        n, t = self.n, 0.99999  # t**n stays far from the subnormal range
        a = t ** (n + 1)
        b = t**n * np.sqrt(n + 1.0)
        d = n * t ** np.maximum(n - 1, 0)
        (0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)).sum()

    def __call__(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start


@dataclass
class Pass:
    call_s: list[float]
    probe_s: list[float]
    reference: float
    codes: list
    outputs: list
    stdout: list[str]

    @property
    def wall(self) -> float:
        return sum(self.call_s)

    @property
    def calibrated(self) -> float:
        """Pass time with each call scaled by the machine speed around it."""
        return sum(t * 2.0 * self.reference / (a + b)
                   for t, a, b in zip(self.call_s, self.probe_s, self.probe_s[1:]))

    @property
    def result(self) -> tuple:
        return self.codes, self.outputs, self.stdout


def run_pass(calls, probe: Probe, tracer=None) -> Pass:
    """One closed-loop pass over the workload's calls, probes in between."""
    import unruhkit.cli as cli

    for call in calls:
        call.out.unlink(missing_ok=True)
    sink, errors = io.StringIO(), io.StringIO()
    marks, codes, call_s, probe_s = [0], [], [], [probe()]
    with redirect_stdout(sink), redirect_stderr(errors):
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.call = i
            start = perf_counter()
            try:
                codes.append(cli.main(list(call.argv)))
            except Exception as exc:  # an op that raises is counted as failed, the run goes on
                codes.append(f"{type(exc).__name__}: {exc}")
            call_s.append(perf_counter() - start)
            marks.append(sink.tell())
            probe_s.append(probe())
    text = sink.getvalue()
    stdout = [text[a:b] for a, b in zip(marks, marks[1:])]
    outputs = [call.out.read_bytes() if call.out.is_file() else None for call in calls]
    return Pass(call_s, probe_s, probe.reference, codes, outputs, stdout)


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_samples(probe: Probe, importtime: bool) -> list[tuple]:
    """Time ``import unruhkit.cli`` in fresh interpreters, never in this process.

    Each sample comes with the calibration factor of the probes around it.
    """
    flags = ["-X", "importtime"] if importtime else []
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        before = probe()
        proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_SNIPPET], env=_child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        after = probe()
        if k == 0:
            continue  # the first import may also write bytecode caches
        value = _parse_importtime(proc.stderr) if importtime else float(proc.stdout)
        samples.append((value, 2.0 * probe.reference / (before + after)))
    return samples


def _parse_importtime(text: str) -> dict[str, float]:
    """unruhkit and scipy.special cumulative import seconds from ``-X importtime``."""
    unruhkit_us = 0
    special_us = 0
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        if name.strip() == "scipy.special":
            special_us = cumulative
        if name.startswith(" unruhkit"):  # top level of the import tree
            unruhkit_us += cumulative
    return {"setup.import.unruhkit_s": unruhkit_us * 1e-6,
            "setup.import.scipy_special_s": special_us * 1e-6}


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _measure(calls, probe, seconds: float, warm: Pass) -> tuple[list[Pass], int]:
    """Timed passes after the warm-up; returns them and the count of output mismatches."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(run_pass(calls, probe))
    return passes, sum(p.result != warm.result for p in passes)


def _measure_traced(calls, probe, seconds: float, warm: Pass):
    """Alternate untraced and traced passes; returns both and the spans of each traced pass."""
    tracer = tracing.Tracer()
    tracer.install()
    untraced, traced, spans = [], [], []
    deadline = perf_counter() + seconds
    try:
        while not traced or perf_counter() < deadline:
            untraced.append(run_pass(calls, probe))
            tracer.spans = []
            tracer.enabled = True
            try:
                traced.append(run_pass(calls, probe, tracer))
            finally:
                tracer.enabled = False
            spans.append(tracer.spans)
    finally:
        tracer.uninstall()
    mismatches = sum(p.result != warm.result for p in untraced + traced)
    return untraced, traced, spans, mismatches


def _machine() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _write_spans(path: Path, spans) -> None:
    keys = ("id", "parent", "name", "layer", "call", "start", "end", "facts")
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _layer_metrics(traced: list[Pass], untraced: list[Pass], spans: list, outputs, calls):
    """Per-layer metrics: medians of times over the traced passes, counts checked to repeat."""
    per_pass = []
    for p, pass_spans in zip(traced, spans):
        m = tracing.layer_metrics(pass_spans)
        m["trace.wall_s"] = p.wall
        m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        per_pass.append(m)
    metrics, counts_repeat = {}, True
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in tracing.COUNT_METRICS:
            counts_repeat = counts_repeat and len(set(values)) == 1
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    packets = [json.loads(data) for call, data in zip(calls, outputs) if call.kind == "packet" and data]
    metrics["wavepacket.parseval.max"] = max((p["parseval_residual"] for p in packets), default=0.0)
    metrics["wavepacket.round_trip.max"] = max((p["round_trip_error"] for p in packets), default=0.0)
    return metrics, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unruhkit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no unruhkit sources under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    outdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    (outdir / "work").mkdir(parents=True)

    calls = workloads.build(args.workload, args.seed, outdir / "work")
    import_samples = _import_samples(Probe("mixed"), importtime=bool(args.trace))
    probe = Probe(workloads.WORKLOADS[args.workload].probe)
    warm = run_pass(calls, probe)
    if args.trace:
        untraced, traced, spans, mismatches = _measure_traced(calls, probe, args.seconds, warm)
        measured = untraced
    else:
        measured, mismatches = _measure(calls, probe, args.seconds, warm)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [op for i, call in enumerate(calls)
           for op in checks.classify(i, call, warm.codes[i], warm.outputs[i])]
    self_test = checks.self_test(calls, warm.codes, warm.outputs, ops)
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known]
    correct = not unexpected and mismatches == 0 and self_test["counted_failed"]
    samples = {
        "wall_s": _quartiles([p.calibrated for p in measured]),
        "raw_wall_s": _quartiles([p.wall for p in measured]),
        "probe_s": _quartiles([t for p in measured for t in p.probe_s]),
    }

    counts_repeat = None
    if args.trace:
        metrics, counts_repeat = _layer_metrics(traced, untraced, spans, warm.outputs, calls)
        for key in ("setup.import.unruhkit_s", "setup.import.scipy_special_s"):
            metrics[key] = statistics.median(s[key] for s, _ in import_samples)
        correct = correct and counts_repeat
        _write_spans(outdir / "spans.jsonl.gz", spans[0])
        samples["traced_raw_wall_s"] = _quartiles([p.wall for p in traced])
    else:
        samples["setup_s"] = _quartiles([t * scale for t, scale in import_samples])
        samples["raw_setup_s"] = _quartiles([t for t, _ in import_samples])
        ok = len(ops) - len(failed)
        wall = samples["wall_s"]["median"]
        metrics = {
            "setup_s": samples["setup_s"]["median"],
            "wall_s": wall,
            "ops_per_s": ok / wall,
            "ops_ok_frac": ok / len(ops),
            "peak_rss_mb": peak_rss_mb,
        }

    missing = sorted(set(declared) - set(metrics))
    if missing:
        sys.stderr.write(f"perfbench: declared metrics not measured: {missing}\n")
        return 2
    status_counts = {}
    for op in ops:
        status_counts[op.status] = status_counts.get(op.status, 0) + 1
    details = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, sequential in-process cli.main calls",
        "argv": [" ".join(call.argv) for call in calls],
        "ops": len(ops),
        "ops_failed": len(failed),
        "status_counts": status_counts,
        "unexpected_failures": [vars(op) for op in unexpected][:20],
        "known_failures": [vars(op) for op in failed if op.known][:20],
        "output_mismatches": mismatches,
        "counts_repeat": counts_repeat,
        "self_test": self_test,
        "samples": samples,
        "metrics": metrics,
        "machine": _machine(),
    }
    (outdir / "report.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps({"correct": bool(correct), "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
