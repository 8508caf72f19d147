"""Exact word probabilities of a map's threshold bit process.

For a map M and threshold bit function, the set of starting points that emit
a given word w = z_1..z_n is a finite union of open intervals. ``refine``
measures these sets for all 2^n words at once, level by level, on one of two
paths:

* backward: S_n(z_1..z_n) = S_1(z_1) intersected with M^{-1}(S_{n-1}(z_2..z_n)),
  refined on flat endpoint arrays and integrated against the density. One
  level is one step over (branch, interval) arrays: every interval meets
  every branch image, ``PiecewiseMap.pullback`` pulls the ends back through
  all branches at once, and the preimages split at the threshold, so the
  number of array passes does not depend on the branch count. Its interval
  count grows like branches^n on maps whose words fragment.
* forward, for maps whose branches are all affine under a flat density:
  states (word, image of a piece under M^{n-1}, rho) are pushed through the
  branches and merged on equal images, so the state count follows the number
  of possible words.

Each level keeps the word probabilities, the intervals or states per word,
and the measure its pieces cover.

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
#: hard cap on refinement depth; the tables alone hold 2^(n+1) probabilities
MAX_DEPTH = 20
#: hard cap on the number of intervals or forward states at one level
MAX_INTERVALS = 20_000_000


@dataclass(eq=False)
class _Level:
    probs: np.ndarray        # 2^n word probabilities
    counts: np.ndarray       # intervals (backward) or states (forward) per word
    mass: float              # total interval length, or sum of rho * length forward


@dataclass(eq=False)
class SequenceTable:
    """Word -> probability for all word lengths up to ``depth``, with the
    number of intervals or forward states behind each word."""

    depth: int
    threshold: float
    map_label: str = "custom"
    levels: dict = field(default_factory=dict, repr=False)

    def probs(self, n: int) -> np.ndarray:
        """Probabilities of all 2^n words of length n, indexed with z_1 as MSB."""
        return self._level(n).probs

    def interval_count(self, n: int) -> int:
        """Intervals (backward path) or merged states (forward path) at level n."""
        return int(self._level(n).counts.sum())

    def partition_length(self, n: int) -> float:
        """Measure the level-n pieces cover; 1 up to sliver loss and rounding."""
        return self._level(n).mass

    def bias(self) -> float:
        return float(abs(self.probs(1)[0] - 0.5))

    def to_csv(self) -> str:
        lines = ["word,interval_count,probability"]
        words = [""]
        for n in range(1, self.depth + 1):
            lv = self._level(n)
            words = [w + z for w in words for z in "01"]
            # impossible words fill most of a deep level, so format only the
            # rows whose count or probability is not zero (-0.0 prints "-0")
            rows = [w + ",0,0" for w in words]
            p = lv.probs
            nz = np.flatnonzero((lv.counts != 0) | (p != 0) | np.signbit(p))
            for i, c, q in zip(nz.tolist(), lv.counts[nz].tolist(), p[nz].tolist()):
                rows[i] = f"{words[i]},{c},{q:.12g}"
            lines += rows
        del words, rows  # peak memory: the join below copies the lines once more
        lines.append("")
        return "\n".join(lines)

    def _level(self, n: int) -> _Level:
        if n not in self.levels:
            raise ConfigError(f"table holds lengths 1..{self.depth}, asked for {n}")
        return self.levels[n]


def refine(m: PiecewiseMap, gen: BitGen, n: int,
           density: DensityGrid | None = None) -> SequenceTable:
    """Build the full word table up to length ``n``.

    Probabilities integrate ``density`` over each word's set; it defaults to
    ``invariant_density(m)``. Maps whose branches are all affine, under a
    flat density, take the forward path; every other case the backward one.
    """
    if not (1 <= n <= MAX_DEPTH):
        raise ResourceLimitError(f"depth {n} outside 1..{MAX_DEPTH}")
    if density is None:
        density = invariant_density(m)

    t = gen.threshold
    table = SequenceTable(depth=n, threshold=t, map_label=m.label)
    if all(br.kind == "affine" for br in m.branches) and bool((density.values == 1.0).all()):
        levels = _forward_levels(m, t, n)
    else:
        levels = _backward_levels(m, t, n, density)
    for level, (words, weights, mass) in enumerate(levels, start=1):
        logger.debug("refine(%s): level %d holds %d pieces", m.label, level, words.size)
        size = 2 ** level
        table.levels[level] = _Level(np.bincount(words, weights, minlength=size),
                                     np.bincount(words, minlength=size), mass)
    return table


def _check_size(m: PiecewiseMap, level: int, size: int) -> None:
    if size == 0:
        raise ConfigError(f"refinement emptied out at level {level} for {m.label!r}")
    if size > MAX_INTERVALS:
        raise ResourceLimitError(
            f"level {level} produced {size} intervals (cap {MAX_INTERVALS})")


def _backward_levels(m: PiecewiseMap, t: float, n: int, density: DensityGrid):
    """Per level: (word of each cylinder interval, its measure, total length).

    S_n(z_1..z_n) = S_1(z_1) intersected with M^{-1}(S_{n-1}(z_2..z_n)), for
    all words at once on flat endpoint arrays; slivers below MIN_INTERVAL drop.
    One level is a fixed number of passes over (branch, interval) arrays, and
    its pieces come out by branch, then z_1, then interval.
    """
    img_lo, img_hi = np.array([br.image for br in m.branches]).T[:, :, None]
    decreasing = np.flatnonzero([not br.increasing for br in m.branches])
    # S_1(0) = (0,t) and S_1(1) = (t,1), and the prefix bit z_1 as the MSB
    split_lo = np.array([[0.0], [t]])
    split_hi = np.array([[t], [1.0]])
    lefts = np.array([0.0, t])
    rights = np.array([t, 1.0])
    words = np.array([0, 1], dtype=np.int64)
    for level in range(1, n + 1):
        if level > 1:
            # (branch, end, interval): meet each interval with each branch
            # image and pull both ends back in one call; each temporary goes
            # before the next
            ends = np.empty((img_lo.size, 2, lefts.size))
            np.maximum(lefts, img_lo, out=ends[:, 0])
            np.minimum(rights, img_hi, out=ends[:, 1])
            del lefts, rights
            meets = ends[:, 1] - ends[:, 0] > 0
            ends = m.pullback(ends.reshape(img_lo.size, -1)).reshape(ends.shape)
            if decreasing.size:  # a decreasing branch reverses each interval
                ends[decreasing] = ends[decreasing, ::-1]
            # (branch, z_1, interval)
            lefts = np.maximum(ends[:, :1], split_lo)
            rights = np.minimum(ends[:, 1:], split_hi)
            del ends
            keep = rights - lefts > MIN_INTERVAL
            keep &= meets[:, None]
            del meets
            _check_size(m, level, int(np.count_nonzero(keep)))
            lefts = lefts[keep]
            rights = rights[keep]
            prefix = np.array([[0], [1 << (level - 1)]], dtype=np.int64)
            words = np.broadcast_to(words + prefix, keep.shape)[keep]
        yield words, density.integrate_pairs(lefts, rights), float((rights - lefts).sum())


def _forward_levels(m: PiecewiseMap, t: float, n: int):
    """Per level: (word of each forward state, its measure, total measure).

    For an affine map under Lebesgue measure. A state stands for the pieces
    of one word's cylinder on which M^{n-1} is affine and which share the
    image (lo, hi) under it; rho is their length per unit of image length,
    so the state's measure is rho * (hi - lo). One step intersects each
    image with each branch domain, pushes it through (rho / |slope|), splits
    it at the threshold, and merges states with equal (word, lo, hi) on
    exact keys by summing rho. Image endpoints lie on the forward orbits of
    the breakpoints and the threshold (Hofbauer 1979; Milnor-Thurston 1988),
    so the state count follows the word count, not branches^n.
    """
    dom_a = np.array([br.a for br in m.branches])[:, None]
    dom_b = np.array([br.b for br in m.branches])[:, None]
    slope = np.array([br.p0 for br in m.branches])
    icpt = np.array([br.p1 for br in m.branches])
    lo = np.array([0.0, t])
    hi = np.array([t, 1.0])
    rho = np.ones(2)
    words = np.array([0, 1], dtype=np.int64)
    for level in range(1, n + 1):
        if level > 1:
            a = np.maximum(lo, dom_a)
            b = np.minimum(hi, dom_b)
            br, i = np.nonzero(b > a)
            ya = slope[br] * a[br, i] + icpt[br]
            yb = slope[br] * b[br, i] + icpt[br]
            # saturate into [0,1] as forward evaluation does, so that images
            # ending an ulp past 0 or 1 share their key with the exact ones
            ylo = np.clip(np.minimum(ya, yb), 0.0, 1.0)
            yhi = np.clip(np.maximum(ya, yb), 0.0, 1.0)
            r = rho[i] / np.abs(slope[br])
            w = words[i] << 1
            # the next bit is 0 below the threshold and 1 above it
            lo = np.concatenate([ylo, np.maximum(ylo, t)])
            hi = np.concatenate([np.minimum(yhi, t), yhi])
            ok = hi > lo
            _check_size(m, level, int(np.count_nonzero(ok)))
            lo, hi = lo[ok], hi[ok]
            rho = np.concatenate([r, r])[ok]
            words = np.concatenate([w, w | 1])[ok]
            order = np.lexsort((hi, lo, words))
            lo, hi, rho, words = lo[order], hi[order], rho[order], words[order]
            first = np.ones(words.size, dtype=bool)
            first[1:] = (words[1:] != words[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            starts = np.flatnonzero(first)
            rho = np.add.reduceat(rho, starts)
            lo, hi, words = lo[starts], hi[starts], words[starts]
        weights = rho * (hi - lo)
        yield words, weights, float(weights.sum())
