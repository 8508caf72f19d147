"""Piecewise-monotone interval maps on (0,1) and their bit-generation functions.

A map is a finite ordered list of monotone branches, each with an analytic
forward formula, derivative, and closed-form inverse. Two branch kinds cover
everything shipped here:

    affine       y = slope * x + intercept
    log2-affine  y = log2(scale * x + shift) - offset

Maps are immutable after construction and safe to share across workers.
The interval pullback, the one inverse that backward refinement and the
Ulam build use, is ``PiecewiseMap.pullback``: it maps an array through every
branch at once, clipping to each raw image and domain and snapping values
beyond the clipped image to the domain end that maps there.
A map step itself lives in the stream kernels only (``_pykernels._advance``
and its C mirror): they nudge inputs that land within 1e-12 of a breakpoint
off it (a measure-zero fixup) and clip each value into (0,1).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MapValidationError

#: midpoints y at which uniform_certificate checks the transfer-operator sum
CERTIFICATE_SAMPLES = 1024
#: largest deviation of that sum from 1 that still certifies uniformity
CERTIFICATE_TOL = 1e-9

BUILTIN_NAMES = ("bernoulli", "tent", "example", "dec-bernoulli", "tailed-tent", "zigzag")

_KIND_CODES = {"affine": 0, "log2-affine": 1}
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Branch:
    """One monotone differentiable piece of a map.

    ``p0, p1, p2`` are (slope, intercept, unused) for affine branches and
    (scale, shift, offset) for log2-affine branches. The raw image may stick
    out of [0,1] for perturbed maps; forward evaluation saturates into (0,1)
    and interval pullbacks absorb the saturated slivers at the domain ends.
    """

    kind: str
    a: float
    b: float
    p0: float
    p1: float
    p2: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ConfigError(f"unknown branch kind {self.kind!r}")
        if not (self.b > self.a):
            raise MapValidationError(f"empty branch domain ({self.a}, {self.b})")
        # the endpoint values fix image and orientation; evaluate them once
        with np.errstate(invalid="ignore", divide="ignore"):
            lo, hi = float(self.forward(self.a)), float(self.forward(self.b))
        object.__setattr__(self, "_increasing", hi >= lo)
        object.__setattr__(self, "_image_raw", (lo, hi) if lo <= hi else (hi, lo))

    # -- forward / derivative / inverse ------------------------------------

    def forward(self, x):
        """Raw branch formula, no clipping. Accepts scalars or arrays."""
        if self.kind == "affine":
            return self.p0 * x + self.p1
        return np.log2(self.p0 * x + self.p1) - self.p2

    def derivative(self, x):
        if self.kind == "affine":
            return np.full_like(np.asarray(x, dtype=float), self.p0)
        return self.p0 / ((self.p0 * x + self.p1) * _LN2)

    def log_abs_derivative(self, x):
        if self.kind == "affine":
            return np.full_like(np.asarray(x, dtype=float), math.log(abs(self.p0)))
        return np.log(abs(self.p0)) - np.log((self.p0 * x + self.p1) * _LN2)

    def inverse(self, y):
        """Mathematical inverse on the raw image. Accepts scalars or arrays."""
        if self.kind == "affine":
            return (y - self.p1) / self.p0
        return (np.exp2(y + self.p2) - self.p1) / self.p0

    # -- geometry -----------------------------------------------------------

    @property
    def image_raw(self) -> tuple[float, float]:
        return self._image_raw

    @property
    def image(self) -> tuple[float, float]:
        """Raw image clipped to [0,1]; empty images collapse to a point."""
        lo, hi = self.image_raw
        return max(lo, 0.0), min(hi, 1.0)

    @property
    def increasing(self) -> bool:
        return self._increasing

    def to_json_dict(self) -> dict:
        if self.kind == "affine":
            return {"kind": "affine", "domain": [self.a, self.b],
                    "slope": self.p0, "intercept": self.p1}
        return {"kind": "log2-affine", "domain": [self.a, self.b],
                "scale": self.p0, "shift": self.p1, "offset": self.p2}


@dataclass(frozen=True)
class PiecewiseMap:
    branches: tuple[Branch, ...]
    label: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.branches:
            raise MapValidationError("map has no branches")
        breaks = np.array([br.a for br in self.branches] + [self.branches[-1].b])
        object.__setattr__(self, "_breaks", breaks)
        kinds = np.array([_KIND_CODES[br.kind] for br in self.branches], dtype=np.int8)
        p0 = np.array([br.p0 for br in self.branches])
        p1 = np.array([br.p1 for br in self.branches])
        p2 = np.array([br.p2 for br in self.branches])
        object.__setattr__(self, "_kernel_spec", (kinds, breaks.copy(), p0, p1, p2))
        # (branches, 1) columns read by ``pullback``: raw and clipped image,
        # domain, the domain ends the clipped image ends pull back to, and the
        # formula parameters
        cols = np.array([(*br.image_raw, *br.image, br.a, br.b,
                          *((br.a, br.b) if br.increasing else (br.b, br.a)),
                          br.p0, br.p1, br.p2) for br in self.branches])
        object.__setattr__(self, "_pull", tuple(c[:, None] for c in cols.T.copy()))
        object.__setattr__(self, "_log_rows", np.flatnonzero(kinds == 1))

    @property
    def breakpoints(self) -> np.ndarray:
        """All branch endpoints including 0 and 1, ascending."""
        return self._breaks

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def kernel_spec(self):
        """Parameter arrays consumed by the iteration kernels."""
        return self._kernel_spec

    def pullback(self, y) -> np.ndarray:
        """Preimages of ``y`` under every branch at once: row k is branch k's.

        ``y`` broadcasts against shape (branches, K). Each row clips ``y`` to
        the branch's raw image, inverts it and clips the result into the
        branch domain. Values at or beyond the clipped image snap to the
        domain end that maps there, so saturated regions (raw image outside
        [0,1]) are charged to the boundary rather than lost. On a decreasing
        branch an ascending ``y`` gives descending x-values.
        """
        lo_raw, hi_raw, lo, hi, a, b, at_lo, at_hi, p0, p1, p2 = self._pull
        # bound first: on ties np.maximum/np.minimum return their second
        # operand, so signed zeros come out as np.clip leaves them
        x = np.maximum(lo_raw, y)
        np.minimum(hi_raw, x, out=x)
        logs = self._log_rows
        if logs.size == self.n_branches:
            x += p2
            np.exp2(x, out=x)
        elif logs.size:
            x[logs] = np.exp2(x[logs] + p2[logs])
        x -= p1
        x /= p0
        np.maximum(a, x, out=x)
        np.minimum(b, x, out=x)
        np.copyto(x, at_lo, where=y <= lo)
        np.copyto(x, at_hi, where=y >= hi)
        return x

    def lyapunov(self, density) -> float:
        """Lyapunov exponent (nats) by midpoint quadrature against a density grid.

        Bins that straddle a breakpoint are split there and each sub-cell is
        weighted by its length, so every cell lies inside one branch. The
        rule is then exact for piecewise-affine maps with a piecewise-constant
        density.
        """
        values = density.values
        n = values.size
        if abs(values.sum() / n - 1.0) > 1e-6:
            raise ConfigError("density is not normalized")
        grid = np.arange(n + 1) / n
        edges = np.union1d(grid, self._breaks)
        # sub-cell midpoints lie strictly inside one branch, so no nudging
        mids = 0.5 * (edges[:-1] + edges[1:])
        cell = np.minimum(np.searchsorted(grid, mids, side="right") - 1, n - 1)
        # length * n is exactly 1 on unsplit bins when n is a power of two
        weights = values[cell] * (np.diff(edges) * n)
        idx = np.clip(np.searchsorted(self._breaks, mids, side="right") - 1,
                      0, self.n_branches - 1)
        ld = np.empty(mids.size)
        for j, br in enumerate(self.branches):
            m = idx == j
            if m.any():
                ld[m] = br.log_abs_derivative(mids[m])
        return float((ld * weights).sum() / n)

    def to_json(self) -> str:
        return json.dumps({"label": self.label,
                           "branches": [br.to_json_dict() for br in self.branches]},
                          indent=2)


@dataclass(frozen=True)
class BitGen:
    """Threshold bit-generation function: bit = 0 iff x < threshold."""

    threshold: float

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold {self.threshold!r} outside (0,1)")


# ---------------------------------------------------------------------------
# helpers

def validate_map(m: PiecewiseMap, samples_per_branch: int = 64) -> None:
    """Check structural invariants by direct geometry plus interior sampling.

    Raises MapValidationError on: domains not covering (0,1), overlapping or
    unordered branches, non-finite branch values, raw images leaving [0,1],
    non-monotone branches, inverse/forward mismatch, or a derivative
    inconsistent with a central finite difference.
    """
    brs = m.branches
    if abs(brs[0].a) > 1e-12 or abs(brs[-1].b - 1.0) > 1e-12:
        raise MapValidationError("branch domains do not cover [0,1]")
    for left, right in zip(brs[:-1], brs[1:]):
        if abs(left.b - right.a) > 1e-12:
            raise MapValidationError(
                f"gap or overlap between branches at {left.b!r} vs {right.a!r}")
    for k, br in enumerate(brs):
        h = (br.b - br.a) / (samples_per_branch + 1)
        xs = br.a + h * np.arange(1, samples_per_branch + 1)
        lo, hi = br.image_raw
        with np.errstate(invalid="ignore", divide="ignore"):
            ys = br.forward(xs)
        if not (np.isfinite([lo, hi]).all() and np.isfinite(ys).all()):
            raise MapValidationError(f"branch {k} has non-finite values on its domain")
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise MapValidationError(f"branch {k} image ({lo}, {hi}) leaves [0,1]")
        d = np.asarray(br.derivative(xs))
        if not ((d > 0).all() or (d < 0).all()):
            raise MapValidationError(f"branch {k} derivative changes sign")
        if np.min(np.abs(d)) <= 0.0:
            raise MapValidationError(f"branch {k} has a vanishing derivative")
        if np.max(np.abs(br.inverse(ys) - xs)) > 1e-12:
            raise MapValidationError(f"branch {k} inverse does not invert forward")
        delta = min(1e-6, h / 8)  # keeps central-difference truncation below 1e-6
        fd = (br.forward(xs + delta) - br.forward(xs - delta)) / (2 * delta)
        rel = np.max(np.abs(fd - d) / np.maximum(np.abs(d), 1e-30))
        if rel > 1e-6:
            raise MapValidationError(
                f"branch {k} derivative disagrees with finite difference (rel {rel:.2e})")


def uniform_certificate(m: PiecewiseMap) -> bool:
    """True when sum over preimages of 1/|M'(u)| equals 1 for all sampled y.

    This certifies that Lebesgue measure is invariant, in which case exact
    interval lengths can replace numeric densities everywhere.
    """
    y = (np.arange(CERTIFICATE_SAMPLES) + 0.5) / CERTIFICATE_SAMPLES
    total = np.zeros(CERTIFICATE_SAMPLES)
    for br in m.branches:
        lo, hi = br.image
        mask = (y > lo) & (y < hi)
        if not mask.any():
            continue
        u = np.clip(br.inverse(y[mask]), br.a, br.b)
        total[mask] += 1.0 / np.abs(br.derivative(u))
    return bool(np.max(np.abs(total - 1.0)) <= CERTIFICATE_TOL)


# ---------------------------------------------------------------------------
# builtin maps

def tailed_tent_parameter(lyapunov_nats: float = math.log(1.5)) -> float:
    """Tail parameter t solving (1-t)ln(2/(1-t)) + t ln(1/t) = target, by bisection.

    The profile rises from ln 2 at t=0 to ln 3 at t=1/3 and then falls to 0,
    so targets below ln 2 have a unique root in (1/3, 1).
    """
    if not (0.0 < lyapunov_nats < math.log(3.0)):
        raise ConfigError("target Lyapunov exponent must lie in (0, ln 3)")

    def lam(t: float) -> float:
        return (1.0 - t) * math.log(2.0 / (1.0 - t)) + t * math.log(1.0 / t)

    lo, hi = 1.0 / 3.0, 1.0 - 1e-12
    if lyapunov_nats >= lam(lo):
        raise ConfigError("target Lyapunov exponent unreachable on the tail side")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lam(mid) > lyapunov_nats:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def builtin(name: str, **params: float) -> PiecewiseMap:
    """Assemble one of the shipped maps by name.

    Names: bernoulli, tent, example, dec-bernoulli (slope, default 1.5),
    tailed-tent (tail; default solves for Lyapunov exponent ln 1.5), zigzag.
    """
    if name == "bernoulli":
        _reject_params(name, params)
        m = PiecewiseMap((Branch("affine", 0.0, 0.5, 2.0, 0.0),
                          Branch("affine", 0.5, 1.0, 2.0, -1.0)), label=name)
    elif name == "tent":
        _reject_params(name, params)
        m = PiecewiseMap((Branch("affine", 0.0, 0.5, 2.0, 0.0),
                          Branch("affine", 0.5, 1.0, -2.0, 2.0)), label=name)
    elif name == "example":
        _reject_params(name, params)
        third = 1.0 / 3.0
        m = PiecewiseMap((Branch("log2-affine", 0.0, third, 3.0, 1.0, 0.0),
                          Branch("log2-affine", third, 1.0, 3.0, 1.0, 1.0)), label=name)
    elif name == "dec-bernoulli":
        s = float(params.pop("slope", 1.5))
        _reject_params(name, params)
        if not (1.0 < s <= 2.0):
            raise ConfigError(f"dec-bernoulli slope must be in (1, 2], got {s}")
        c = (2.0 - s) / 4.0
        m = PiecewiseMap((Branch("affine", 0.0, 0.5, s, c),
                          Branch("affine", 0.5, 1.0, s, c - s / 2.0)),
                         label=name, params={"slope": s})
    elif name == "tailed-tent":
        t = params.pop("tail", None)
        _reject_params(name, params)
        t = tailed_tent_parameter() if t is None else float(t)
        if not (0.0 < t < 1.0):
            raise ConfigError(f"tailed-tent tail must be in (0,1), got {t}")
        c = 2.0 / (1.0 - t)
        m = PiecewiseMap((Branch("affine", 0.0, (1.0 - t) / 2.0, c, 0.0),
                          Branch("affine", (1.0 - t) / 2.0, 1.0 - t, -c, 2.0),
                          Branch("affine", 1.0 - t, 1.0, 1.0 / t, -(1.0 - t) / t)),
                         label=name, params={"tail": t})
    elif name == "zigzag":
        _reject_params(name, params)
        m = PiecewiseMap((Branch("affine", 0.0, 0.25, 2.0, 0.5),
                          Branch("affine", 0.25, 0.75, 2.0, -0.5),
                          Branch("affine", 0.75, 1.0, 2.0, -1.5)), label=name)
    else:
        raise ConfigError(f"unknown builtin map {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    validate_map(m)
    return m


def _reject_params(name: str, params: dict) -> None:
    if params:
        raise ConfigError(f"map {name!r} does not accept parameters {sorted(params)}")


#: default bit-generation threshold per builtin map
DEFAULT_THRESHOLDS = {
    "bernoulli": 0.5,
    "tent": 0.5,
    "example": 1.0 / 3.0,
    "dec-bernoulli": 0.5,
    "tailed-tent": 0.5,
    "zigzag": 0.5,
}


def default_bitgen(name: str) -> BitGen:
    try:
        return BitGen(DEFAULT_THRESHOLDS[name])
    except KeyError:
        raise ConfigError(f"no default bit generator for map {name!r}") from None


def builtin_pair(name: str, **params: float) -> tuple[PiecewiseMap, BitGen]:
    """Convenience: (map, default bit generator)."""
    return builtin(name, **params), default_bitgen(name)


# ---------------------------------------------------------------------------
# JSON map definitions

def from_json(text: str | dict) -> PiecewiseMap:
    """Load a custom map from the JSON schema used by the CLI.

    Schema: {"label": str, "branches": [{"kind": "affine", "domain": [a,b],
    "slope": s, "intercept": c} | {"kind": "log2-affine", "domain": [a,b],
    "scale": p, "shift": q, "offset": k}]}
    """
    try:
        obj = json.loads(text) if isinstance(text, str) else text
        branches = []
        for spec in obj["branches"]:
            a, b = (float(v) for v in spec["domain"])
            if spec["kind"] == "affine":
                branches.append(Branch("affine", a, b,
                                       float(spec["slope"]), float(spec["intercept"])))
            elif spec["kind"] == "log2-affine":
                branches.append(Branch("log2-affine", a, b, float(spec["scale"]),
                                       float(spec["shift"]), float(spec["offset"])))
            else:
                raise ConfigError(f"unknown branch kind {spec['kind']!r}")
        m = PiecewiseMap(tuple(sorted(branches, key=lambda br: br.a)),
                         label=str(obj.get("label", "custom")))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed map definition: {exc}") from exc
    validate_map(m)
    return m
