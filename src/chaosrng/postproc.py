"""Bit-stream generation and post-processing.

Covers the Von Neumann pair debiaser, the typical-set block coder with its
rate bookkeeping, the rate-vs-entropy admissibility check, and the packed
stream file format used by the CLI (8-byte little-endian bit count header
followed by MSB-first packed bytes; ``.txt`` paths use ASCII 0/1 instead).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .density import DensityGrid
from .entropy import conditional_entropy, entropy_of
from .errors import ConfigError
from .maps import BitGen, PiecewiseMap
from .symbolic import SequenceTable

#: default trajectory dither amplitude (uniform on +-2^-40).
#: Iterating dyadic slope-2 maps in binary floating point shifts the mantissa
#: out and collapses trajectories onto degenerate orbits within ~50 steps;
#: a dither at the breakpoint-nudge scale models the physical noise the
#: generator amplifies and leaves block statistics unchanged at any
#: tolerance used here. Pass dither=0 for exact (short-horizon) iteration.
DEFAULT_DITHER = 2.0 ** -40
#: typical-set codebook: probabilities within this relative distance of the
#: first of their group count as tied and are labelled by word index
TIE_RTOL = 1e-9


@dataclass(eq=False)
class BitStream:
    """A 0/1 array plus provenance (map label, seed, length, settings)."""

    bits: np.ndarray
    origin: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ConfigError("bits must be a 1-d array")

    def __len__(self) -> int:
        return self.bits.size


def generate_bits(m: PiecewiseMap, gen: BitGen, density: DensityGrid,
                  count: int, seed: int, dither: float = DEFAULT_DITHER) -> BitStream:
    """Stream of ``count`` bits: x_0 is drawn from ``density``, z_n = gen(x_{n-1})."""
    if count < 0:
        raise ConfigError("count must be >= 0")
    if not dither >= 0:
        raise ConfigError(f"dither must be >= 0, got {dither}")
    origin = {"map": m.label, "params": dict(m.params), "seed": seed,
              "count": count, "threshold": gen.threshold, "dither": dither,
              "backend": kernels.BACKEND}
    if count == 0:
        return BitStream(np.empty(0, dtype=np.uint8), origin)
    rng = np.random.default_rng(seed)
    x0 = density.sample(rng)
    noise = rng.uniform(-dither, dither, count) if dither > 0 else np.zeros(count)
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    out = np.empty(count, dtype=np.uint8)
    kernels.bits_from_trajectory(kinds, bounds, p0, p1, p2,
                                 gen.threshold, x0, noise, out)
    return BitStream(out, origin)


# ---------------------------------------------------------------------------
# Von Neumann debiaser

def von_neumann(stream: BitStream) -> tuple[BitStream, float]:
    """Pair mapping 01 -> 0, 10 -> 1 (00/11 discarded); returns (output, rate)."""
    bits = stream.bits
    n = bits.size - (bits.size % 2)
    first = bits[0:n:2]
    second = bits[1:n:2]
    keep = first != second
    out = first[keep]
    rate = out.size / bits.size if bits.size else 0.0
    return BitStream(out, {"algo": "von-neumann", "source": stream.origin}), float(rate)


def vn_rate_exact(table: SequenceTable) -> float:
    """Exact Von Neumann rate (P[01] + P[10]) / 2 from pair probabilities."""
    if table.depth < 2:
        raise ConfigError("need a table of depth >= 2 for pair probabilities")
    p = table.probs(2)
    return float(0.5 * (p[0b01] + p[0b10]))


# ---------------------------------------------------------------------------
# typical-set block coder

@dataclass(eq=False)
class TypicalSetCoder:
    """Block coder labelling typical n-words with k-bit labels.

    ``labels[w]`` is the k-bit label of word index w; atypical words share
    the all-zero label. Typicality window: 2^{-n (h+eps)} <= P[w] <=
    2^{-n (h-eps)} with h the per-symbol block entropy H(Z^n)/n of the table
    the coder was built from.
    """

    n: int
    epsilon: float
    k: int
    h_per_symbol: float
    labels: np.ndarray
    typical: np.ndarray
    coverage: float
    n_typical: int

    @property
    def rate(self) -> float:
        return self.k / self.n


def build_typical_coder(table: SequenceTable, n: int, epsilon: float) -> TypicalSetCoder:
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    probs = table.probs(n)
    h = entropy_of(probs) / n
    lower = 2.0 ** (-n * (h + epsilon))
    upper = 2.0 ** (-n * (h - epsilon))
    typical = (probs >= lower) & (probs <= upper)
    n_typical = int(typical.sum())
    if n_typical == 0:
        raise ConfigError(
            f"typical set empty at n={n}, epsilon={epsilon}; increase epsilon")
    k = math.ceil(math.log2(n_typical)) if n_typical > 1 else 0
    # deterministic codebook: descending probability, ties by word index
    idx = np.nonzero(typical)[0]
    idx = idx[np.argsort(-probs[idx], kind="stable")]
    order = idx[np.lexsort((idx, _tie_groups(probs[idx])))]
    labels = np.zeros(probs.size, dtype=np.int64)
    labels[order] = np.arange(n_typical)
    coverage = float(probs[typical].sum())
    return TypicalSetCoder(n=n, epsilon=epsilon, k=k, h_per_symbol=h,
                           labels=labels, typical=typical,
                           coverage=coverage, n_typical=n_typical)


def _tie_groups(p: np.ndarray) -> np.ndarray:
    """Group number of each entry of the descending array ``p``.

    A group starts at an entry below (1 - TIE_RTOL) times the group's first
    entry, so probabilities that agree up to rounding share a group and the
    codebook orders them by word index, whatever their last bits.
    """
    start = np.ones(p.size, dtype=bool)
    start[1:] = p[1:] < (1.0 - TIE_RTOL) * p[:-1]
    # within a run of near-equal neighbours, the drift from the group's
    # first entry may still pass the tolerance: walk those runs group by group
    firsts = np.flatnonzero(start)
    ends = np.append(firsts[1:], p.size)
    runs = ends - firsts > 1
    for lo, hi in zip(firsts[runs].tolist(), ends[runs].tolist()):
        while hi - lo > 1:
            lo += int(np.searchsorted(-p[lo:hi], -(1.0 - TIE_RTOL) * p[lo], side="right"))
            if lo < hi:
                start[lo] = True
    return np.cumsum(start)


def encode(coder: TypicalSetCoder, stream: BitStream) -> BitStream:
    """Blockwise label lookup; atypical blocks emit the all-zero label.

    A trailing partial block is dropped; output length is k * floor(len/n).
    """
    nblocks = stream.bits.size // coder.n
    origin = {"algo": "typical-set", "n": coder.n, "epsilon": coder.epsilon,
              "k": coder.k, "source": stream.origin}
    if nblocks == 0 or coder.k == 0:
        return BitStream(np.empty(0, dtype=np.uint8), origin)
    blocks = stream.bits[:nblocks * coder.n].reshape(nblocks, coder.n)
    weights = (1 << np.arange(coder.n - 1, -1, -1)).astype(np.int64)
    words = blocks @ weights
    labels = coder.labels[words]
    shifts = np.arange(coder.k - 1, -1, -1)
    out = ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()
    return BitStream(out, origin)


def coder_output_entropy(coder: TypicalSetCoder, table: SequenceTable) -> float:
    """Exact H(T^k): push the full word distribution through the codebook."""
    probs = table.probs(coder.n)
    mass = np.zeros(max(2 ** coder.k, 1))
    effective = np.where(coder.typical, coder.labels, 0)
    np.add.at(mass, effective, probs)
    return entropy_of(mass)


@dataclass(frozen=True)
class RateBoundVerdict:
    """Outcome of the admissibility check R <= H (+ slack)."""

    passed: bool
    rate: float
    entropy_rate: float
    margin: float

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def check_rate_bound(table: SequenceTable, coder_rate: float,
                     slack: float = 0.02) -> RateBoundVerdict:
    """PASS when the post-processing rate does not exceed the entropy rate.

    A rate above H flags the post-processor as incapable of emitting truly
    random bits from this source, whatever its internals.
    """
    h = conditional_entropy(table, table.depth)
    return RateBoundVerdict(passed=bool(coder_rate <= h + slack),
                            rate=float(coder_rate), entropy_rate=h,
                            margin=float(h - coder_rate))


# ---------------------------------------------------------------------------
# stream files

_HEADER = struct.Struct("<Q")


def write_stream(path, stream: BitStream) -> None:
    """Write a stream file: ASCII 0/1 for a ``.txt`` path, packed binary otherwise."""
    path = Path(path)
    if path.suffix == ".txt":
        path.write_text("".join("1" if b else "0" for b in stream.bits) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(stream.bits.size))
        fh.write(np.packbits(stream.bits).tobytes())


def read_stream(path) -> BitStream:
    """Read a stream file written by ``write_stream``; the suffix decides the format."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if path.suffix == ".txt":
        text = raw.decode("ascii", errors="replace").strip()
        if text and set(text) - {"0", "1"}:
            raise ConfigError(f"{path} is not an ASCII 0/1 stream")
        bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
        return BitStream(bits.copy(), {"path": str(path)})
    if len(raw) < _HEADER.size:
        raise ConfigError(f"{path} is too short to be a stream file")
    (count,) = _HEADER.unpack_from(raw)
    payload = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    if payload.size * 8 < count:
        raise ConfigError(f"{path} header claims {count} bits, payload has "
                          f"{payload.size * 8}")
    return BitStream(np.unpackbits(payload)[:count], {"path": str(path)})
