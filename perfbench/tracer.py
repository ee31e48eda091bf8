"""Outside-in span tracer for the traced run.

Each public function of a layer is replaced, in the defining module and in
every module that imported it by name (``from .qops import negativity``), by
a wrapper that records a span: name, layer, start, end, parent span and the
CLI call it belongs to.  Facts about the work are read off the arguments and
the returned objects (``report.method``, matrix dimensions, grid sizes), so
nothing under ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np


def _pair_facts(args, kwargs, result):
    rep = result.report
    return {"method": rep.method, "n": rep.n_max_used, "converged": rep.converged,
            "bound": rep.tail_weight, "value": result.n_ar + result.n_aar}


def _eig_facts(args, kwargs, result):
    return {"dim": int(np.shape(args[0])[0])}


def _fermion_pair_facts(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else "blocks")
    return {"method": method}


def _residual_facts(args, kwargs, result):
    return {"residual": float(result)}


def _forward_facts(args, kwargs, result):
    return {"work": int(args[0].x.size) * int(result.omega_grid.size)}


def _inverse_facts(args, kwargs, result):
    return {"work": int(result.x.size) * int(args[0].omega_grid.size)}


#: (layer, span name, defining module, function, modules importing it by name, facts)
TARGETS = (
    ("cli", "cli.main", "cli", "main", (), None),
    ("cli", "cli.cmd", "cli", "cmd_boson", (), None),
    ("cli", "cli.cmd", "cli", "cmd_fermion", (), None),
    ("cli", "cli.cmd", "cli", "cmd_packet", (), None),
    ("bosonic", "bosonic.curve", "bosonic", "bosonic_curve", ("cli",), None),
    ("bosonic", "bosonic.pair", "bosonic", "bosonic_negativity_pair", (), _pair_facts),
    ("bosonic", "bosonic.joint_state", "bosonic", "joint_state", (), None),
    ("qops", "qops.reduced_density", "qops", "reduced_density", ("bosonic", "fermionic"), None),
    ("qops", "qops.partial_transpose", "qops", "partial_transpose", (), None),
    ("qops", "qops.eigvalsh", "qops", "hermitian_eigenvalues", ("fermionic",), _eig_facts),
    ("qops", "qops.negativity", "qops", "negativity", ("bosonic", "fermionic"), None),
    ("fermionic", "fermionic.curve", "fermionic", "fermionic_curve", ("cli",), None),
    ("fermionic", "fermionic.pair", "fermionic", "fermionic_negativity_pair", (), _fermion_pair_facts),
    ("fermionic", "fermionic.pt_blocks", "fermionic", "pt_blocks", (), None),
    ("fermionic", "fermionic.residual", "fermionic", "method_agreement_residual", (), _residual_facts),
    ("wavepacket", "wavepacket.profile", "wavepacket", "f_log_gaussian", ("cli",), None),
    ("wavepacket", "wavepacket.profile", "wavepacket", "alternate_packets", ("cli",), None),
    ("wavepacket", "wavepacket.profile", "wavepacket", "rapidity_gaussian", ("cli",), None),
    ("wavepacket", "wavepacket.forward", "wavepacket", "g_from_f", ("cli",), _forward_facts),
    ("wavepacket", "wavepacket.forward", "wavepacket", "massive_g_from_f", ("cli",), _forward_facts),
    ("wavepacket", "wavepacket.inverse", "wavepacket", "f_from_g", ("cli",), _inverse_facts),
    ("wavepacket", "wavepacket.inverse", "wavepacket", "massive_f_from_g", ("cli",), _inverse_facts),
    ("wavepacket", "wavepacket.peaking", "wavepacket", "peaking_report_from_pair", ("cli",), None),
    ("wavepacket", "wavepacket.peaking", "wavepacket", "massive_peaking_report", ("cli",), None),
)

#: methods the CLI calls for the Parseval and round-trip residuals
METHOD_TARGETS = (
    ("wavepacket", "wavepacket.norm", "wavepacket", "MinkowskiSmearing", ("norm_squared", "l2_distance")),
    ("wavepacket", "wavepacket.norm", "wavepacket", "MassiveSmearing", ("norm_squared", "l2_distance")),
    ("wavepacket", "wavepacket.norm", "wavepacket", "UnruhSmearingPair", ("norm_squared",)),
)


class Tracer:
    """Span recorder; wrappers call straight through while ``enabled`` is false."""

    def __init__(self):
        self.enabled = False
        self.call = -1
        self.spans: list[list] = []  # [id, parent, name, layer, call, start, end, facts]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, facts=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, layer, self.call,
                   0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rec[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = perf_counter()
                self._stack.pop()
            if facts is not None:
                rec[7] = facts(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        def mod(name):
            return importlib.import_module(f"unruhkit.{name}")

        for layer, name, home, func, importers, facts in TARGETS:
            original = getattr(mod(home), func)
            wrapper = self.wrap(original, name, layer, facts)
            for module in (home,) + importers:
                if getattr(mod(module), func) is not original:
                    raise RuntimeError(f"unruhkit.{module}.{func} is not unruhkit.{home}.{func}")
                self._replace(mod(module), func, wrapper)
        for layer, name, home, cls_name, methods in METHOD_TARGETS:
            cls = getattr(mod(home), cls_name)
            for method in methods:
                self._replace(cls, method, self.wrap(getattr(cls, method), name, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans."""
    child = [0.0] * len(spans)
    for sid, parent, *_rest, start, end, _facts in spans:
        if parent >= 0:
            child[parent] += end - start
    dur = {}
    self_time = {}
    calls = {}
    facts = {}
    layer_self = {}
    for sid, parent, name, layer, _call, start, end, fact in spans:
        d = end - start
        s = d - child[sid]
        dur.setdefault(name, []).append(d)
        self_time[name] = self_time.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        facts.setdefault(name, []).append(fact)
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    def total(name):
        return float(sum(dur.get(name, ())))

    pairs = list(zip(dur.get("bosonic.pair", ()), facts.get("bosonic.pair", ())))
    dense = [(d, f) for d, f in pairs if f["method"] == "dense"]
    blocks = [(d, f) for d, f in pairs if f["method"] == "blocks"]
    eig_dims = [f["dim"] for f in facts.get("qops.eigvalsh", ())]
    fpairs = facts.get("fermionic.pair", ())
    forward = facts.get("wavepacket.forward", ())
    inverse = facts.get("wavepacket.inverse", ())
    packets = calls.get("wavepacket.profile", 0)
    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "bosonic.points": len(pairs),
        "bosonic.point_ms.p50": _percentile([d * 1e3 for d, _ in pairs], 50),
        "bosonic.point_ms.p95": _percentile([d * 1e3 for d, _ in pairs], 95),
        "bosonic.dense.points": len(dense),
        "bosonic.dense.s": float(sum(d for d, _ in dense)),
        "bosonic.dense.n_max_used.mean": float(np.mean([f["n"] for _, f in dense])) if dense else 0.0,
        "bosonic.dense.joint_states_per_point": calls.get("bosonic.joint_state", 0) / len(dense) if dense else 0.0,
        "bosonic.joint_state.s": total("bosonic.joint_state"),
        "bosonic.unconverged": sum(not f["converged"] for _, f in pairs),
        "bosonic.blocks.points": len(blocks),
        "bosonic.blocks.s": float(sum(d for d, _ in blocks)),
        "bosonic.blocks.series_terms": sum(f["n"] for _, f in blocks),
        "bosonic.blocks.bound_exceeds_value": sum(f["converged"] and f["bound"] >= f["value"] for _, f in blocks),
        "bosonic.self_s": layer_self.get("bosonic", 0.0),
        "qops.reduced_density.calls": calls.get("qops.reduced_density", 0),
        "qops.reduced_density.s": total("qops.reduced_density"),
        "qops.partial_transpose.calls": calls.get("qops.partial_transpose", 0),
        "qops.partial_transpose.s": total("qops.partial_transpose"),
        "qops.eigvalsh.calls": len(eig_dims),
        "qops.eigvalsh.s": total("qops.eigvalsh"),
        "qops.eigvalsh.dim_max": max(eig_dims, default=0),
        "qops.eigvalsh.work_n3": sum(d**3 for d in eig_dims),
        "qops.negativity.self_s": self_time.get("qops.negativity", 0.0),
        "qops.self_s": layer_self.get("qops", 0.0),
        "fermionic.curve.s": total("fermionic.curve"),
        "fermionic.self_s": layer_self.get("fermionic", 0.0),
        "fermionic.pair_blocks.calls": sum(f["method"] == "blocks" for f in fpairs),
        "fermionic.pair_full.calls": sum(f["method"] == "full" for f in fpairs),
        "fermionic.pt_blocks.calls": calls.get("fermionic.pt_blocks", 0),
        "fermionic.residual.s": total("fermionic.residual"),
        "fermionic.residual.max": max((f["residual"] for f in facts.get("fermionic.residual", ())), default=0.0),
        "wavepacket.packets": packets,
        "wavepacket.profile.s": total("wavepacket.profile"),
        "wavepacket.forward.calls": len(forward),
        "wavepacket.forward.s": total("wavepacket.forward"),
        "wavepacket.forward.work": sum(f["work"] for f in forward),
        "wavepacket.forward_per_packet": len(forward) / packets if packets else 0.0,
        "wavepacket.inverse.calls": len(inverse),
        "wavepacket.inverse.s": total("wavepacket.inverse"),
        "wavepacket.inverse.work": sum(f["work"] for f in inverse),
        # self time: the forward transform the massive path repeats counts as forward
        "wavepacket.peaking.s": self_time.get("wavepacket.peaking", 0.0),
        "wavepacket.self_s": layer_self.get("wavepacket", 0.0),
    }


#: metrics that count work; they must repeat exactly from pass to pass
COUNT_METRICS = (
    "bosonic.points", "bosonic.dense.points", "bosonic.dense.n_max_used.mean",
    "bosonic.dense.joint_states_per_point", "bosonic.unconverged", "bosonic.blocks.points",
    "bosonic.blocks.series_terms", "bosonic.blocks.bound_exceeds_value",
    "qops.reduced_density.calls", "qops.partial_transpose.calls", "qops.eigvalsh.calls",
    "qops.eigvalsh.dim_max", "qops.eigvalsh.work_n3", "fermionic.pair_blocks.calls",
    "fermionic.pair_full.calls", "fermionic.pt_blocks.calls", "fermionic.residual.max",
    "wavepacket.packets", "wavepacket.forward.calls", "wavepacket.forward.work",
    "wavepacket.forward_per_packet", "wavepacket.inverse.calls", "wavepacket.inverse.work",
)

LAYERS = ("cli", "bosonic", "qops", "fermionic", "wavepacket")
