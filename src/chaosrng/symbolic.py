"""Exact initial-condition sets for bit words, and their probabilities.

For a map M and threshold bit function, the set of starting points that emit
a given word w = z_1..z_n is a finite union of open intervals, built by the
recursion  S_n(z_1..z_n) = S_1(z_1) gets intersected with M^{-1}(S_{n-1}(z_2..z_n)).
All 2^n words at each level are refined together on flat endpoint arrays, so
one level costs a handful of vectorized passes per branch. Each level is kept
as those arrays, in refinement order, with each interval's word index beside it.

Word indexing: the integer index of z_1..z_n has z_1 as the most significant
bit, so the two one-symbol extensions of word v are indices 2v and 2v+1.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .density import DensityGrid, invariant_density
from .errors import ConfigError, ResourceLimitError
from .maps import BitGen, PiecewiseMap

logger = logging.getLogger(__name__)

#: intervals shorter than this are dropped during refinement (measure-safe)
MIN_INTERVAL = 1e-14
#: hard cap on refinement depth; memory grows with branches**n
MAX_DEPTH = 20
#: hard cap on the total number of intervals at one refinement level
MAX_INTERVALS = 20_000_000


@dataclass(eq=False)
class IntervalSet:
    """Sorted union of disjoint open subintervals of (0,1).

    Intervals may share endpoints (they are disjoint as open sets); slivers
    shorter than MIN_INTERVAL are dropped at construction and logged.
    """

    lefts: np.ndarray
    rights: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.lefts, dtype=float)
        b = np.asarray(self.rights, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ConfigError("lefts/rights must be 1-d arrays of equal length")
        order = np.argsort(a, kind="stable")
        a, b = a[order], b[order]
        keep = b - a > MIN_INTERVAL
        dropped = int((~keep).sum())
        if dropped:
            logger.debug("IntervalSet: dropped %d slivers below %g", dropped, MIN_INTERVAL)
        a, b = a[keep], b[keep]
        if a.size:
            if a[0] < -1e-12 or b[-1] > 1.0 + 1e-12:
                raise ConfigError("intervals must lie within [0,1]")
            if (b[:-1] > a[1:] + 1e-15).any():
                raise ConfigError("intervals overlap")
        self.lefts = np.clip(a, 0.0, 1.0)
        self.rights = np.clip(b, 0.0, 1.0)

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        arr = np.asarray(list(pairs), dtype=float).reshape(-1, 2)
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return self.lefts.size

    def __iter__(self):
        return iter(zip(self.lefts.tolist(), self.rights.tolist()))

    @property
    def length(self) -> float:
        """Total Lebesgue measure."""
        return float((self.rights - self.lefts).sum())

    def contains(self, x: float) -> bool:
        i = int(np.searchsorted(self.lefts, x, side="right")) - 1
        return i >= 0 and self.lefts[i] < x < self.rights[i]

    def intersect_interval(self, lo: float, hi: float) -> "IntervalSet":
        a = np.maximum(self.lefts, lo)
        b = np.minimum(self.rights, hi)
        keep = b - a > 0
        return IntervalSet(a[keep], b[keep])


def s1(gen: BitGen) -> tuple[IntervalSet, IntervalSet]:
    """The bit-0 and bit-1 starting sets: ((0, threshold), (threshold, 1))."""
    t = gen.threshold
    return (IntervalSet(np.array([0.0]), np.array([t])),
            IntervalSet(np.array([t]), np.array([1.0])))


def _pullbacks(m: PiecewiseMap, lefts: np.ndarray, rights: np.ndarray):
    """Per branch meeting intervals (lefts_i, rights_i): (mask of those
    intervals, (xa, xb) endpoints of their preimage intervals)."""
    for br in m.branches:
        lo, hi = br.image
        a = np.maximum(lefts, lo)
        b = np.minimum(rights, hi)
        keep = b - a > 0
        if not keep.any():
            continue
        xa, xb = br.pullback(a[keep]), br.pullback(b[keep])
        yield keep, ((xa, xb) if br.increasing else (xb, xa))


def preimage_set(m: PiecewiseMap, s: IntervalSet) -> IntervalSet:
    """Union over branches of the branch-inverse images of s."""
    parts = [x for _, x in _pullbacks(m, s.lefts, s.rights)]
    if not parts:
        return IntervalSet.empty()
    xa, xb = zip(*parts)
    return IntervalSet(np.concatenate(xa), np.concatenate(xb))


@dataclass(eq=False)
class _Level:
    probs: np.ndarray        # 2^n word probabilities
    lefts: np.ndarray        # interval endpoints, in refinement order
    rights: np.ndarray
    words: np.ndarray        # word index of each interval


@dataclass(eq=False)
class SequenceTable:
    """Word -> (interval set, probability) for all word lengths up to ``depth``."""

    depth: int
    threshold: float
    map_label: str = "custom"
    levels: dict = field(default_factory=dict, repr=False)

    def probs(self, n: int) -> np.ndarray:
        """Probabilities of all 2^n words of length n, indexed with z_1 as MSB."""
        return self._level(n).probs

    def prob(self, word: str) -> float:
        n, idx = _parse_word(word)
        return float(self._level(n).probs[idx])

    def interval_set(self, word: str) -> IntervalSet:
        n, idx = _parse_word(word)
        lv = self._level(n)
        if lv.words.size == 0:
            raise ConfigError("this table does not carry interval sets")
        sel = lv.words == idx
        return IntervalSet(lv.lefts[sel], lv.rights[sel])

    def interval_count(self, n: int) -> int:
        return int(self._level(n).lefts.size)

    def partition_length(self, n: int) -> float:
        lv = self._level(n)
        return float((lv.rights - lv.lefts).sum())

    def bias(self) -> float:
        return float(abs(self.probs(1)[0] - 0.5))

    def kolmogorov_defect(self) -> float:
        """Largest |P[v] - P[v0] - P[v1]| over all words up to depth-1."""
        worst = 0.0
        for n in range(1, self.depth):
            p, q = self.probs(n), self.probs(n + 1)
            worst = max(worst, float(np.max(np.abs(p - q[0::2] - q[1::2]))))
        return worst

    def to_csv(self) -> str:
        lines = ["word,interval_count,probability"]
        for n in range(1, self.depth + 1):
            lv = self._level(n)
            counts = np.bincount(lv.words, minlength=2 ** n)
            for idx in range(2 ** n):
                lines.append(f"{_format_word(idx, n)},{int(counts[idx])},{lv.probs[idx]:.12g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_probs(cls, probs_by_level: dict[int, np.ndarray],
                   threshold: float = 0.5, map_label: str = "synthetic") -> "SequenceTable":
        """Build a table carrying probabilities only (no interval sets)."""
        depth = max(probs_by_level)
        table = cls(depth=depth, threshold=threshold, map_label=map_label)
        empty = np.empty(0)
        for n, p in probs_by_level.items():
            p = np.asarray(p, dtype=float)
            if p.size != 2 ** n:
                raise ConfigError(f"level {n} needs {2 ** n} probabilities")
            table.levels[n] = _Level(p, empty, empty, np.empty(0, dtype=np.int64))
        return table

    def _level(self, n: int) -> _Level:
        if n not in self.levels:
            raise ConfigError(f"table holds lengths 1..{self.depth}, asked for {n}")
        return self.levels[n]


def _parse_word(word: str) -> tuple[int, int]:
    if not word or any(c not in "01" for c in word):
        raise ConfigError(f"word must be a nonempty 0/1 string, got {word!r}")
    return len(word), int(word, 2)


def _format_word(idx: int, n: int) -> str:
    return format(idx, f"0{n}b")


def refine(m: PiecewiseMap, gen: BitGen, n: int,
           density: DensityGrid | None = None) -> SequenceTable:
    """Build the full word table up to length ``n``.

    Probabilities integrate ``density`` over each word's set; it defaults to
    ``invariant_density(m)``.
    """
    if not (1 <= n <= MAX_DEPTH):
        raise ResourceLimitError(f"depth {n} outside 1..{MAX_DEPTH}")
    if density is None:
        density = invariant_density(m)

    t = gen.threshold
    table = SequenceTable(depth=n, threshold=t, map_label=m.label)

    lefts = np.array([0.0, t])
    rights = np.array([t, 1.0])
    words = np.array([0, 1], dtype=np.int64)
    _store_level(table, 1, lefts, rights, words, density)

    for level in range(2, n + 1):
        acc_l, acc_r, acc_w = [], [], []
        for keep, (xa, xb) in _pullbacks(m, lefts, rights):
            w = words[keep]
            # split against S_1(0) = (0,t) and S_1(1) = (t,1); prefix bit is MSB
            for z1, (slo, shi) in enumerate(((0.0, t), (t, 1.0))):
                ca = np.maximum(xa, slo)
                cb = np.minimum(xb, shi)
                ok = cb - ca > MIN_INTERVAL
                if ok.any():
                    acc_l.append(ca[ok])
                    acc_r.append(cb[ok])
                    acc_w.append(w[ok] + (z1 << (level - 1)))
        if not acc_l:
            raise ConfigError(f"refinement emptied out at level {level} for {m.label!r}")
        lefts = np.concatenate(acc_l)
        rights = np.concatenate(acc_r)
        words = np.concatenate(acc_w)
        if lefts.size > MAX_INTERVALS:
            raise ResourceLimitError(
                f"level {level} produced {lefts.size} intervals (cap {MAX_INTERVALS})")
        logger.debug("refine(%s): level %d holds %d intervals", m.label, level, lefts.size)
        _store_level(table, level, lefts, rights, words, density)
    return table


def _store_level(table: SequenceTable, n: int, lefts, rights, words,
                 density: DensityGrid) -> None:
    probs = np.bincount(words, density.integrate_pairs(lefts, rights), minlength=2 ** n)
    table.levels[n] = _Level(probs, lefts, rights, words)


def bias(table: SequenceTable) -> float:
    """|P[0] - 1/2|, the first-order deviation from fair bits."""
    return table.bias()


def word_frequencies(m: PiecewiseMap, gen: BitGen, density: DensityGrid,
                     n: int, n_samples: int, seed: int = 0) -> np.ndarray:
    """Monte Carlo word frequencies from simulated trajectories.

    Independent oracle for the refinement pipeline: sample starting points
    from the density, emit n bits each, and tally the 2^n words.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(density.sample(rng, n_samples), dtype=float)
    idx = np.zeros(n_samples, dtype=np.int64)
    for step in range(n):
        idx = (idx << 1) | (x >= gen.threshold)
        if step < n - 1:
            x = m.evaluate_array(x)
    return np.bincount(idx, minlength=2 ** n) / n_samples
