"""Transfer-operator discretization and steady-state densities.

The operator is discretized on a uniform bin grid (piecewise-constant
densities): entry (i, j) is the exact Lebesgue measure of bin_j intersected
with the preimage of bin_i, computed from the closed-form branch inverses and
divided by the bin width. For maps where Lebesgue measure is invariant this
makes the uniform vector a fixed point to machine precision, which the
downstream certificates rely on. Column j holds the distribution of mass
leaving bin j; columns are rescaled to sum to 1.

The matrix is kept in compressed-row (CSR) form as plain arrays: row i holds
the values ``data[indptr[i]:indptr[i+1]]`` in the columns
``indices[indptr[i]:indptr[i+1]]``, and ``kernels.csr_matvec`` sums each row
in that stored order. ``ulam_matrix`` stores one entry per column, each row
by descending column. That is the order in which earlier versions, built on
a sparse-matrix library, stored and summed each row, so the solved
densities, and every file built from them, keep their bits.

``steady_state`` runs power iteration from the uniform density. If the L1
step stops shrinking (a periodic chain, where P has an eigenvalue on or near
the unit circle besides 1), it continues with the lazy chain
p <- (Pp + p)/2, which has the same fixed points and maps every such
eigenvalue other than 1 inside the circle.

``invariant_density`` is the one place that decides which density the
analysis uses: the exact uniform density when ``uniform_certificate`` proves
Lebesgue measure invariant, else the fixed point of the operator above.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, NonConvergenceError
from .maps import PiecewiseMap, uniform_certificate

logger = logging.getLogger(__name__)

DEFAULT_BINS = 4096
#: steady_state looks for a stalled power iteration every STALL_CHECK steps; a
#: stalled L1 step is still above STALL_SHRINK times its value at the last look.
#: A chain that contracts that slowly (by 0.9998 a step) needs over 100,000
#: steps to gain nine digits, so the plain iteration would fail anyway; the
#: lazy chain also converges where the slow mode is periodic (eigenvalue near -1).
STALL_CHECK = 50
STALL_SHRINK = 0.99


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

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF samples; scalar when size is None."""
        u = rng.random(size)
        x = np.interp(u, self.cumulative(), self.edges)
        return float(x) if size is None else x

    def to_csv(self) -> str:
        edges = [f"{e:.12g}" for e in self.edges.tolist()]
        lines = ["bin_left,bin_right,density"]
        lines += map("{},{},{:.12g}".format, edges[:-1], edges[1:], self.values.tolist())
        del edges  # peak memory: the join below copies the lines once more
        lines.append("")
        return "\n".join(lines)


def uniform_density(n_bins: int = DEFAULT_BINS) -> DensityGrid:
    return DensityGrid(np.ones(n_bins))


class CsrMatrix(NamedTuple):
    """A square sparse matrix as compressed-row arrays (see the module docstring);
    ``indptr`` and ``indices`` are int32."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return self.data.size


@dataclass(eq=False)
class TransferOperator:
    """Column-stochastic sparse matrix acting on bin mass vectors; its entries
    are nonnegative, so it maps mass vectors to mass vectors."""

    matrix: CsrMatrix

    def __post_init__(self):
        indptr, indices, data = (np.asarray(a) for a in self.matrix)
        n = indptr.size - 1
        if (n < 1 or indptr[0] != 0 or indptr[-1] != data.size or indices.size != data.size
                or (np.diff(indptr) < 0).any()
                or (indices.size and not 0 <= indices.min() <= indices.max() < n)):
            raise ConfigError("operator matrix must be a square CSR matrix")
        if (data < 0).any():
            raise ConfigError("operator has negative entries")
        if max(n, data.size) > np.iinfo(np.int32).max:
            raise ConfigError(f"operator of size {n} with {data.size} entries "
                              "does not fit int32 indices")
        # int32 rather than int64 indices: fewer bytes read per product
        indptr, indices = (np.ascontiguousarray(a, dtype=np.int32) for a in (indptr, indices))
        data = np.ascontiguousarray(data, dtype=float)
        colsums = np.bincount(indices, data, minlength=n)
        if np.max(np.abs(colsums - 1.0)) > 1e-9:
            raise ConfigError("operator columns do not sum to 1")
        self.matrix = CsrMatrix(indptr, indices, data)

    @property
    def n_bins(self) -> int:
        return self.matrix.indptr.size - 1


def ulam_matrix(m: PiecewiseMap, n_bins: int = DEFAULT_BINS) -> TransferOperator:
    """Discretize the transfer operator of ``m`` on ``n_bins`` uniform bins."""
    if n_bins < 64:
        raise ConfigError("n_bins must be at least 64")
    return TransferOperator(_ulam_exact(m, n_bins))


def _ulam_entries(m: PiecewiseMap, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the unnormalized operator; a (row, col) pair
    may repeat where two branches share a bin."""
    edges = np.linspace(0.0, 1.0, n + 1)
    rows_all, cols_all, vals_all = [], [], []
    for br, u in zip(m.branches, m.pullback(edges)):
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
        rows = np.searchsorted(u, mids) - 1
        np.minimum(np.maximum(rows, 0, out=rows), n - 1, out=rows)
        if not br.increasing:
            rows = n - 1 - rows
        cols = (mids * n).astype(np.int64)
        np.minimum(np.maximum(cols, 0, out=cols), n - 1, out=cols)
        keep = lens > 0
        rows_all.append(rows[keep])
        cols_all.append(cols[keep])
        vals_all.append(lens[keep] * n)  # normalize by bin width 1/n
    return np.concatenate(rows_all), np.concatenate(cols_all), np.concatenate(vals_all)


def _ulam_exact(m: PiecewiseMap, n: int) -> CsrMatrix:
    rows, cols, vals = _ulam_entries(m, n)
    # row-major order, each row by descending column, duplicate pairs summed
    keys = rows * n + (n - 1 - cols)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    vals = np.add.reduceat(vals[order], first)
    kept = order[first]
    rows, cols = rows[kept], cols[kept]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    # mass conservation can be off by float rounding; renormalize columns
    colsums = np.bincount(cols, vals, minlength=n)
    scale = 1.0 / np.where(colsums > 0, colsums, 1.0)
    return CsrMatrix(indptr, cols, vals * scale[cols])


def steady_state(op: TransferOperator, tol: float = 1e-10,
                 max_iters: int = 100000) -> DensityGrid:
    """Power iteration from the uniform density until the L1 step is below tol.

    Every STALL_CHECK steps the iteration checks whether it has stalled: the
    L1 step is still above STALL_SHRINK times its value at the last check,
    and the newest step undoes most of the one before (|p_{k+1} - p_{k-1}|
    below |p_{k+1} - p_k|), so the slow mode oscillates. A slow monotone
    approach, which the lazy chain would only slow down further, never does
    that. Once stalled, it runs the lazy chain p <- (Pp + p)/2.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    n = op.n_bins
    indptr, indices, data = op.matrix
    p = np.full(n, 1.0 / n)
    # reused buffers: per-step temporaries of n floats cost about 5% at 65,536 bins
    q, prev, step = np.empty(n), np.empty(n), np.empty(n)  # prev: the iterate before p

    def l1(a, b):
        np.subtract(a, b, out=step)
        return float(np.abs(step, out=step).sum())

    diff = checked = np.inf
    lazy = False
    for it in range(max_iters):
        kernels.csr_matvec(indptr, indices, data, p, q)
        if lazy:
            q += p
            q *= 0.5
        q /= q.sum()
        diff = l1(q, p)
        if diff < tol:
            kernels.csr_matvec(indptr, indices, data, q, p)
            residual = l1(p, q)
            if residual >= 10.0 * tol:
                raise NonConvergenceError(
                    f"fixed-point residual {residual:.3e} exceeds {10 * tol:.1e}",
                    residual=residual)
            return DensityGrid(q * n)
        if not lazy and it % STALL_CHECK == 0:
            if diff > STALL_SHRINK * checked and l1(q, prev) < diff:
                logger.debug("L1 step stalled at %.3e after %d steps; "
                             "switching to the lazy chain", diff, it + 1)
                lazy = True
            checked = diff
        p, q, prev = q, prev, p
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
