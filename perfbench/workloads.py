"""Seeded workload generator.

Each workload turns a seed into a list of ``Call`` objects: the argv handed
to ``unruhkit.cli.main`` plus what the checker needs to know about it.  The
seed draws only values inside fixed ranges and never changes the counts,
so the cost of a pass stays comparable across seeds.  The program sees
nothing but the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: upper end of the fermionic squeezing range, pi/4
FERMION_R_MAX = math.pi / 4


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass and the operations it carries."""

    kind: str  # "boson", "fermion" or "packet"
    argv: tuple[str, ...]
    out: Path
    ops: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list[Call]]
    #: kind of reference work (see ``run.Probe``) whose speed tracks the workload's
    probe: str = "mixed"


def _num(x: float) -> str:
    # repr round-trips, so the checker can rebuild the exact inputs
    return repr(float(x))


def _sweep(kind: str, q: float, r_min: float, r_max: float, steps: int, out: Path) -> Call:
    argv = (kind, "--q", _num(q), "--r-min", _num(r_min), "--r-max", _num(r_max),
            "--steps", str(steps), "--format", "csv", "--out", str(out))
    return Call(kind, argv, out, steps, {"q": q, "r_min": r_min, "r_max": r_max, "steps": steps})


def _boson_sweep(rng: random.Random, outdir: Path) -> list[Call]:
    # |q_R| = 1 takes the block series; the four general weights take the
    # dense route.  Two are drawn below and two above the swap point 1/sqrt(2):
    # near it the number of certified rows that fail the relative check
    # changes with q, away from it the number is the same for every draw.
    qs = [1.0] + [rng.uniform(0.3, 0.5) for _ in range(2)] + [rng.uniform(0.87, 0.97) for _ in range(2)]
    calls = []
    for i, q in enumerate(qs):
        r_min, r_max = rng.uniform(0.0, 0.005), rng.uniform(2.995, 3.0)
        calls.append(_sweep("boson", q, r_min, r_max, 40, outdir / f"boson-{i}.csv"))
    return calls


def _boson_deep(rng: random.Random, outdir: Path) -> list[Call]:
    # the grid points sit near r = 4, 5, ..., 10; the jitter is small enough
    # that the same points reach the block series' 20M-term cap on every seed
    r_min, r_max = rng.uniform(4.0, 4.02), rng.uniform(9.98, 10.0)
    return [_sweep("boson", 1.0, r_min, r_max, 7, outdir / "deep.csv")]


def _fermion_sweep(rng: random.Random, outdir: Path) -> list[Call]:
    qs = [rng.uniform(0.72, 1.0) for _ in range(7)] + [rng.uniform(0.3, 0.7)]
    calls = []
    for i, q in enumerate(qs):
        r_min, r_max = rng.uniform(0.0, 1e-3), FERMION_R_MAX - rng.uniform(1e-6, 1e-3)
        calls.append(_sweep("fermion", q, r_min, r_max, 500, outdir / f"fermion-{i}.csv"))
    return calls


#: (family, lambda, central mu); mu is drawn within 3% of the centre, which
#: moves the grid sizes N_x, N_Omega by about as much
PACKETS = (
    ("log-gaussian", 4.0, 2.0),
    ("log-gaussian", 1.0, 8.0),
    ("log-gaussian", 0.2, 8.0),
    ("log-gaussian", 0.05, 8.0),
    ("log-gaussian", 0.01, 8.0),
    ("gamma", 1.0, 8.0),
    ("gamma", 0.3, 8.0),
    ("bessel", 1.0, 8.0),
    ("bessel", 0.2, 8.0),
    ("rapidity-gaussian", 1.0, 5.0),
    ("rapidity-gaussian", 0.05, 5.0),
)


def _packet_suite(rng: random.Random, outdir: Path) -> list[Call]:
    calls = []
    for i, (family, lam, mu0) in enumerate(PACKETS):
        mu = mu0 * rng.uniform(0.97, 1.03)
        out = outdir / f"packet-{i}.json"
        argv = ("packet", "--family", family, "--lam", _num(lam), "--mu", _num(mu), "--out", str(out))
        calls.append(Call("packet", argv, out, 1, {"family": family, "lam": lam, "mu": mu}))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "boson-sweep",
            "dense partial-transpose eigensolves from n=30 to the n=120 cap; general rows past r~1.63 stay unconverged",
            _boson_sweep,
        ),
        Workload(
            "boson-deep",
            "extremal weight at r in [4, 10]: only the block series works, up to its 20M-term cap; mirror of boson-sweep",
            _boson_deep,
            probe="vector",
        ),
        Workload(
            "fermion-sweep",
            "4000 exact rows of tiny 3x3/8x8 eigensolves: per-call Python overhead and CLI formatting, not flops",
            _fermion_sweep,
        ),
        Workload(
            "packet-suite",
            "11 packets of 4 families whose O(Nx*NOmega) forward and inverse transforms span 1e5 to 4.8e6",
            _packet_suite,
        ),
    )
}


def build(name: str, seed: int, outdir: Path) -> list[Call]:
    """Calls of workload ``name`` for ``seed``; the same seed gives the same argv."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name].build(rng, outdir)
