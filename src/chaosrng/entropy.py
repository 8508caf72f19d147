"""Block entropies, conditional entropies, and entropy-rate reports.

The entropy rate of the bit process is approximated by the conditional
entropy H(Z_n | Z^{n-1}) at the deepest computed n; convergence is
exponential, so the report also carries a fitted per-step contraction
factor for judging truncation error.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityGrid, invariant_density
from .errors import ConfigError, InsufficientDataError
from .maps import BitGen, PiecewiseMap
from .symbolic import SequenceTable, refine

logger = logging.getLogger(__name__)

LOG2_E = 1.0 / math.log(2.0)


def entropy_of(probs: np.ndarray) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = probs[probs > 0]
    return float(-(p * np.log2(p)).sum())


def block_entropy(table: SequenceTable, n: int) -> float:
    """H(Z^n) in bits from exact word probabilities."""
    return entropy_of(table.probs(n))


def conditional_entropy(table: SequenceTable, n: int) -> float:
    """H(Z_n | Z^{n-1}) = H(Z^n) - H(Z^{n-1}); equals H(Z_1) at n = 1."""
    if n == 1:
        return block_entropy(table, 1)
    val = block_entropy(table, n) - block_entropy(table, n - 1)
    if val < 0.0:
        if val < -1e-9:
            logger.warning("conditional entropy at n=%d is %.3e; clipping to 0", n, val)
        val = 0.0
    return val


@dataclass
class EntropyReport:
    """Per-length entropies plus the quantities the analysis pipeline reports."""

    map_label: str
    n_max: int
    per_n: list  # (n, H(Z^n), H(Z_n|Z^{n-1})) triples
    entropy_rate: float
    convergence_exponent: float | None
    bias: float
    lyapunov: float

    def to_json(self) -> str:
        return json.dumps({
            "map": self.map_label,
            "n_max": self.n_max,
            "entropy_rate": self.entropy_rate,
            "convergence_exponent": self.convergence_exponent,
            "bias": self.bias,
            "lyapunov": self.lyapunov,
            "per_n": [{"n": n, "block_entropy": h, "conditional_entropy": c}
                      for n, h, c in self.per_n],
        }, indent=2, sort_keys=True)


def entropy_rate(m: PiecewiseMap, gen: BitGen, density: DensityGrid | None = None,
                 n_max: int = 10, table: SequenceTable | None = None) -> EntropyReport:
    """Full entropy analysis of the bit process of (m, gen).

    Returns H := H(Z_{n_max} | Z^{n_max - 1}) together with the per-n
    entropies, the fitted contraction factor r of |H_n - H| ~ C r^n, the
    bias, and the Lyapunov exponent (nats).
    """
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if density is None:
        density = invariant_density(m)
    if table is None:
        table = refine(m, gen, n_max, density=density)

    blocks = [block_entropy(table, n) for n in range(1, n_max + 1)]
    conds = [blocks[0]] + [conditional_entropy(table, n) for n in range(2, n_max + 1)]
    per_n = [(n, blocks[n - 1], conds[n - 1]) for n in range(1, n_max + 1)]
    rate = conds[-1]

    ns, logs = [], []
    for n in range(1, n_max):
        d = abs(conds[n - 1] - rate)
        if d > 1e-12:
            ns.append(n)
            logs.append(math.log(d))
    exponent = None
    if len(ns) >= 2:
        slope = np.polyfit(np.asarray(ns, float), np.asarray(logs), 1)[0]
        exponent = float(math.exp(slope))

    return EntropyReport(
        map_label=m.label,
        n_max=n_max,
        per_n=per_n,
        entropy_rate=rate,
        convergence_exponent=exponent,
        bias=table.bias(),
        lyapunov=m.lyapunov(density),
    )


def word_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-grams of a 0/1 array (non-circular)."""
    if m == 0:
        return np.array([bits.size], dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(bits, np.uint8), m)
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    return np.bincount(windows @ weights, minlength=2 ** m)


def empirical_entropy(bits: np.ndarray, block_len: int) -> float:
    """Plug-in conditional-entropy estimate from an observed bit stream.

    Estimates H(Z_m | Z^{m-1}) with m = block_len from overlapping m-gram
    frequencies. Requires at least 100 * 2**block_len bits.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    required = 100 * 2 ** block_len
    if bits.size < required:
        raise InsufficientDataError(
            f"need at least {required} bits for block_len={block_len}, got {bits.size}",
            required=required)

    def h(counts: np.ndarray) -> float:
        total = counts.sum()
        p = counts[counts > 0] / total
        return float(-(p * np.log2(p)).sum())

    hm = h(word_counts(bits, block_len))
    if block_len == 1:
        return hm
    return hm - h(word_counts(bits, block_len - 1))
