"""Transfer-operator discretization and steady-state densities.

The operator is discretized on a uniform bin grid (piecewise-constant
densities). Two constructions are available:

* ``method="exact"`` (default): each matrix entry is the exact Lebesgue
  measure of bin_j intersected with the preimage of bin_i, computed from the
  closed-form branch inverses. For maps where Lebesgue measure is invariant
  this makes the uniform vector a fixed point to machine precision, which the
  downstream certificates rely on.
* ``method="sample"``: stratified points per bin are pushed through the map
  and histogrammed. Kept as an independent cross-check of the exact build.

Column j holds the distribution of mass leaving bin j (columns sum to 1).

``invariant_density`` is the one place that decides which density the
analysis uses: the exact uniform density when ``uniform_certificate`` proves
Lebesgue measure invariant, else the fixed point of the operator above.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NonConvergenceError
from .maps import PiecewiseMap, uniform_certificate

logger = logging.getLogger(__name__)

DEFAULT_BINS = 4096
DEFAULT_SAMPLES_PER_BIN = 64


@dataclass(eq=False)
class DensityGrid:
    """Piecewise-constant probability density on a uniform partition of (0,1).

    ``values[i]`` is the density height on bin i, so sum(values)/n_bins == 1.
    The bin edges and the CDF are computed from ``values`` once, at
    construction, so the values must not change afterwards.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ConfigError("density values must be a 1-d array")
        if (v < -1e-12).any():
            raise ConfigError("density has negative entries")
        total = v.sum() / v.size
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"density integrates to {total!r}, not 1")
        self.values = np.maximum(v, 0.0)
        # built once per grid, not per call: refine integrates every level
        self._edges = np.linspace(0.0, 1.0, v.size + 1)
        self._cum = np.concatenate([[0.0], np.cumsum(self.values) / v.size])
        self._cum[-1] = 1.0
        # np.interp returns hi - lo bit for bit here, so skip its binary searches
        self._exact_length = ((v.size & (v.size - 1)) == 0
                              and bool((self.values == 1.0).all()))

    @property
    def n_bins(self) -> int:
        return self.values.size

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def cumulative(self) -> np.ndarray:
        """CDF values at the bin edges (length n_bins + 1, ends at 1)."""
        return self._cum

    def integrate_pairs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact integrals over intervals (lo_i, hi_i), partial bins prorated.

        On the uniform density with a power-of-two bin count this is the
        interval length, bit for bit.
        """
        if self._exact_length:
            return np.clip(hi, 0.0, 1.0) - np.clip(lo, 0.0, 1.0)
        return (np.interp(hi, self._edges, self._cum)
                - np.interp(lo, self._edges, self._cum))

    def integrate(self, intervals) -> float:
        """Integral over an interval set (anything exposing lefts/rights or pairs)."""
        lo, hi = _interval_arrays(intervals)
        return float(self.integrate_pairs(lo, hi).sum())

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF samples; scalar when size is None."""
        u = rng.random(size)
        x = np.interp(u, self.cumulative(), self.edges)
        return float(x) if size is None else x

    def l1_distance(self, other: "DensityGrid") -> float:
        if other.n_bins != self.n_bins:
            raise ConfigError("grid sizes differ")
        return float(np.abs(self.values - other.values).sum() / self.n_bins)

    def to_csv(self) -> str:
        edges = [f"{e:.12g}" for e in self.edges.tolist()]
        lines = ["bin_left,bin_right,density"]
        lines += map("{},{},{:.12g}".format, edges[:-1], edges[1:], self.values.tolist())
        del edges  # peak memory: the join below copies the lines once more
        lines.append("")
        return "\n".join(lines)


def uniform_density(n_bins: int = DEFAULT_BINS) -> DensityGrid:
    return DensityGrid(np.ones(n_bins))


def _interval_arrays(intervals) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(intervals, "lefts"):
        return np.asarray(intervals.lefts, float), np.asarray(intervals.rights, float)
    pairs = np.atleast_2d(np.asarray(intervals, dtype=float))
    return pairs[:, 0], pairs[:, 1]


@dataclass(eq=False)
class TransferOperator:
    """Column-stochastic sparse matrix acting on bin mass vectors."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        n, m = self.matrix.shape
        if n != m:
            raise ConfigError("operator matrix must be square")
        colsums = np.asarray(self.matrix.sum(axis=0)).ravel()
        if np.max(np.abs(colsums - 1.0)) > 1e-9:
            raise ConfigError("operator columns do not sum to 1")

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[0]


def ulam_matrix(m: PiecewiseMap, n_bins: int = DEFAULT_BINS,
                samples_per_bin: int = DEFAULT_SAMPLES_PER_BIN,
                method: str = "exact") -> TransferOperator:
    """Discretize the transfer operator of ``m`` on ``n_bins`` uniform bins."""
    if n_bins < 64:
        raise ConfigError("n_bins must be at least 64")
    if method == "exact":
        mat = _ulam_exact(m, n_bins)
    elif method == "sample":
        if samples_per_bin < 16:
            raise ConfigError("samples_per_bin must be at least 16")
        mat = _ulam_sampled(m, n_bins, samples_per_bin)
    else:
        raise ConfigError(f"unknown ulam method {method!r}")
    return TransferOperator(mat)


def _ulam_exact(m: PiecewiseMap, n: int) -> sp.csr_matrix:
    edges = np.linspace(0.0, 1.0, n + 1)
    rows_all, cols_all, vals_all = [], [], []
    for br in m.branches:
        u = br.pullback(edges)
        if not br.increasing:
            u = u[::-1]  # ascending x, one per bin edge
        lo, hi = u[0], u[-1]
        if hi - lo <= 0.0:
            continue
        interior_cols = np.arange(int(np.floor(lo * n)) + 1, int(np.ceil(hi * n)))
        merged = np.unique(np.concatenate([u, interior_cols / n]))
        merged = merged[(merged >= lo) & (merged <= hi)]
        if merged.size < 2:
            continue
        mids = 0.5 * (merged[:-1] + merged[1:])
        lens = np.diff(merged)
        rows = np.clip(np.searchsorted(u, mids) - 1, 0, n - 1)
        if not br.increasing:
            rows = n - 1 - rows
        cols = np.clip((mids * n).astype(np.int64), 0, n - 1)
        keep = lens > 0
        rows_all.append(rows[keep])
        cols_all.append(cols[keep])
        vals_all.append(lens[keep] * n)  # normalize by bin width 1/n
    mat = sp.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n, n)).tocsr()
    # mass conservation can be off by float rounding; renormalize columns
    colsums = np.asarray(mat.sum(axis=0)).ravel()
    scale = sp.diags(1.0 / np.where(colsums > 0, colsums, 1.0))
    return (mat @ scale).tocsr()


def _ulam_sampled(m: PiecewiseMap, n: int, spb: int) -> sp.csr_matrix:
    offsets = (np.arange(spb) + 0.5) / spb / n
    cols = np.repeat(np.arange(n), spb)
    x = cols / n + np.tile(offsets, n)
    y = m.evaluate_array(x)
    rows = np.clip((y * n).astype(np.int64), 0, n - 1)
    mat = sp.coo_matrix((np.full(x.size, 1.0 / spb), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def apply(op: TransferOperator, f: DensityGrid) -> DensityGrid:
    """One transfer-operator step, renormalized to suppress mass drift."""
    if op.n_bins != f.n_bins:
        raise ConfigError(f"operator has {op.n_bins} bins, density {f.n_bins}")
    mass = op.matrix @ (f.values / f.n_bins)
    mass /= mass.sum()
    return DensityGrid(mass * f.n_bins)


def steady_state(op: TransferOperator, tol: float = 1e-10,
                 max_iters: int = 100000) -> DensityGrid:
    """Power iteration from the uniform density until the L1 step is below tol."""
    if tol <= 0:
        raise ConfigError("tol must be positive")
    n = op.n_bins
    mat = op.matrix
    p = np.full(n, 1.0 / n)
    diff = np.inf
    for _ in range(max_iters):
        q = mat @ p
        q = np.maximum(q, 0.0)
        q /= q.sum()
        diff = float(np.abs(q - p).sum())
        p = q
        if diff < tol:
            residual = float(np.abs(mat @ p - p).sum())
            if residual >= 10.0 * tol:
                raise NonConvergenceError(
                    f"fixed-point residual {residual:.3e} exceeds {10 * tol:.1e}",
                    residual=residual)
            return DensityGrid(p * n)
    raise NonConvergenceError(
        f"power iteration did not converge in {max_iters} steps "
        f"(last L1 step {diff:.3e})", residual=diff)


def steady_state_for(m: PiecewiseMap, n_bins: int = DEFAULT_BINS) -> DensityGrid:
    """Build the exact-geometry operator for ``m`` and solve for its fixed point."""
    return steady_state(ulam_matrix(m, n_bins))


def invariant_density(m: PiecewiseMap, n_bins: int = DEFAULT_BINS) -> DensityGrid:
    """The invariant density of ``m``: exactly uniform when certified, else solved."""
    if uniform_certificate(m):
        return uniform_density(n_bins)
    return steady_state_for(m, n_bins)
