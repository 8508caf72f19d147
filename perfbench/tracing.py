"""Span tracing of chaosrng from outside the package.

``Tracer.install`` wraps the public functions listed in ``WRAPPED``. chaosrng
modules bind their callees by name at import (``from .density import
steady_state``), so a wrapper has to replace the name in every module that
holds it, not only in the module that defines it. Each wrapped call records a
span (name, start, end, parent, counters) in memory while a job runs.
``layer_metrics`` turns one round's spans into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LOG2_E = 1.0 / math.log(2.0)

#: span name -> (defining module, attribute). The span name's prefix is the
#: layer it is billed to; ``maps.perturb`` lives in montecarlo.py but builds maps.
WRAPPED = {
    "density.ulam_matrix": ("chaosrng.density", "ulam_matrix"),
    "density.steady_state": ("chaosrng.density", "steady_state"),
    "density.steady_state_for": ("chaosrng.density", "steady_state_for"),
    "symbolic.refine": ("chaosrng.symbolic", "refine"),
    "entropy.entropy_rate": ("chaosrng.entropy", "entropy_rate"),
    "kernels.bits_from_trajectory": ("chaosrng.kernels", "bits_from_trajectory"),
    "postproc.generate_bits": ("chaosrng.postproc", "generate_bits"),
    "postproc.von_neumann": ("chaosrng.postproc", "von_neumann"),
    "postproc.vn_rate_exact": ("chaosrng.postproc", "vn_rate_exact"),
    "postproc.build_typical_coder": ("chaosrng.postproc", "build_typical_coder"),
    "postproc.encode": ("chaosrng.postproc", "encode"),
    "postproc.check_rate_bound": ("chaosrng.postproc", "check_rate_bound"),
    "stattests.battery": ("chaosrng.stattests", "battery"),
    "maps.perturb": ("chaosrng.montecarlo", "perturb"),
    "maps.uniform_certificate": ("chaosrng.maps", "uniform_certificate"),
    "montecarlo.mc_profile": ("chaosrng.montecarlo", "mc_profile"),
    "cli.DensityGrid.to_csv": ("chaosrng.density", "DensityGrid.to_csv"),
    "cli.SequenceTable.to_csv": ("chaosrng.symbolic", "SequenceTable.to_csv"),
    "cli.EntropyReport.to_json": ("chaosrng.entropy", "EntropyReport.to_json"),
    "cli.MCProfile.to_csv": ("chaosrng.montecarlo", "MCProfile.to_csv"),
    "cli.MCProfile.to_json": ("chaosrng.montecarlo", "MCProfile.to_json"),
    "cli.write_stream": ("chaosrng.postproc", "write_stream"),
    "cli.read_stream": ("chaosrng.postproc", "read_stream"),
}
ROOT = "job"
WRITERS = ("cli.DensityGrid.to_csv", "cli.SequenceTable.to_csv", "cli.EntropyReport.to_json",
           "cli.MCProfile.to_csv", "cli.MCProfile.to_json", "cli.write_stream")


def _table_counters(args, table):
    n = table.depth
    return {"intervals": table.interval_count(n),
            "useful": int(np.count_nonzero(table.probs(n) > 0)),
            "mass_lost": 1.0 - table.partition_length(n)}


def _text_bytes(args, text):
    return {"bytes": len(text)}


#: span name -> counters taken from (args, result) after the span ends
COUNTERS = {
    "density.ulam_matrix": lambda a, op: {"nnz": int(op.matrix.nnz)},
    "symbolic.refine": _table_counters,
    "entropy.entropy_rate": lambda a, r: {"ceiling_gap": r.entropy_rate - r.lyapunov * LOG2_E},
    "kernels.bits_from_trajectory": lambda a, r: {"bits": len(a[8])},
    "postproc.von_neumann": lambda a, r: {"in": len(a[0]), "out": len(r[0])},
    "montecarlo.mc_profile": lambda a, p: {"failures": p.failures},
    "cli.DensityGrid.to_csv": _text_bytes,
    "cli.SequenceTable.to_csv": _text_bytes,
    "cli.EntropyReport.to_json": _text_bytes,
    "cli.MCProfile.to_csv": _text_bytes,
    "cli.MCProfile.to_json": _text_bytes,
    # 8-byte count header plus the packed bits
    "cli.write_stream": lambda a, r: {"bytes": 8 + (len(a[1]) + 7) // 8},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped calls while ``enabled``; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counters is not None:
                span.counters = counters(args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chaosrng" or n.startswith("chaosrng.")]
        for name, (mod_name, attr) in WRAPPED.items():
            owner = sys.modules[mod_name]
            if "." in attr:          # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._patches):
            setattr(obj, key, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def job(self, label: str):
        """A root span around one CLI call, with recording enabled inside it."""
        self.enabled = True
        span = self._open(ROOT)
        span.counters = {"label": label}
        try:
            yield
        finally:
            self._close(span)
            self.enabled = False


def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _trial_times(spans: list[Span]) -> list[float]:
    """Per-trial durations: from one ``maps.perturb`` start to the next in an mc_profile."""
    starts: dict[int, list[float]] = {}
    for s in spans:
        if s.name == "maps.perturb" and s.parent >= 0:
            starts.setdefault(s.parent, []).append(s.start)
    out = []
    for parent, ts in starts.items():
        ts = ts + [spans[parent].end]
        out += [b - a for a, b in zip(ts[:-1], ts[1:])]
    return out


def layer_metrics(spans: list[Span]) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced round, and its Monte Carlo trial times."""
    selfs = self_times(spans)
    t: dict[str, float] = {}
    calls: dict[str, int] = {}
    c: dict[str, list] = {}
    for s, st in zip(spans, selfs):
        t[s.name] = t.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in s.counters.items():
            c.setdefault(f"{s.name}:{k}", []).append(v)

    def total(key):
        return float(sum(c.get(key, [])))

    def worst(key):
        return float(max(c[key])) if key in c else 0.0

    wall = t.get(ROOT, 0.0) + sum(v for k, v in t.items() if k != ROOT)
    intervals = total("symbolic.refine:intervals")
    vn_in = total("postproc.von_neumann:in")
    gen_s = t.get("kernels.bits_from_trajectory", 0.0)
    metrics = {
        "density.ulam_s": t.get("density.ulam_matrix", 0.0),
        "density.ulam_nnz": total("density.ulam_matrix:nnz"),
        "density.steady_s": t.get("density.steady_state", 0.0),
        "density.steady_calls": float(calls.get("density.steady_state", 0)),
        "symbolic.refine_s": t.get("symbolic.refine", 0.0),
        "symbolic.intervals": intervals,
        "symbolic.useful_ratio": total("symbolic.refine:useful") / intervals if intervals else 0.0,
        "symbolic.mass_lost": worst("symbolic.refine:mass_lost"),
        "entropy.self_s": t.get("entropy.entropy_rate", 0.0),
        "entropy.ceiling_gap": worst("entropy.entropy_rate:ceiling_gap"),
        "kernels.gen_s": gen_s,
        "kernels.bits_per_s": total("kernels.bits_from_trajectory:bits") / gen_s if gen_s else 0.0,
        "postproc.vn_s": t.get("postproc.von_neumann", 0.0),
        "postproc.typical_s": (t.get("postproc.build_typical_coder", 0.0)
                               + t.get("postproc.encode", 0.0)),
        "postproc.vn_yield": total("postproc.von_neumann:out") / vn_in if vn_in else 0.0,
        "stattests.battery_s": t.get("stattests.battery", 0.0),
        "maps.perturb_s": t.get("maps.perturb", 0.0),
        "maps.certificate_s": t.get("maps.uniform_certificate", 0.0),
        "montecarlo.trials_failed": total("montecarlo.mc_profile:failures"),
        "cli.write_s": sum(t.get(name, 0.0) for name in WRITERS),
        "cli.read_s": t.get("cli.read_stream", 0.0),
        "cli.bytes_written": sum(total(f"{name}:bytes") for name in WRITERS),
        "cli.self_s": t.get(ROOT, 0.0),
        "trace.coverage": 1.0 - t.get(ROOT, 0.0) / wall if wall else 0.0,
    }
    return metrics, _trial_times(spans)
