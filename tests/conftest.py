import numpy as np
import pytest
import scipy.sparse as sp

from chaosrng import (PerturbationSpec, SequenceTable, TransferOperator, builtin,
                      builtin_pair, generate_bits, kernels, perturb, refine,
                      steady_state_for, ulam_matrix, uniform_certificate)
from chaosrng._pykernels import EDGE, NUDGE
from chaosrng.density import CsrMatrix
from chaosrng.errors import PerturbationError
from chaosrng.symbolic import _Level

BUILTINS = ("bernoulli", "tent", "example", "dec-bernoulli", "tailed-tent", "zigzag")

#: maps whose invariant density is certified uniform
CERTIFIED = ("bernoulli", "tent", "tailed-tent", "zigzag")

#: (0, 0.4) maps onto (0.4, 1) and (0.4, 1) folds back onto (0, 0.4): a
#: period-2 chain whose plain power iteration crawls for 100,000 steps
SWAP_MAP = {"branches": [
    {"kind": "affine", "domain": [0, 0.4], "slope": 1.5, "intercept": 0.4},
    {"kind": "affine", "domain": [0.4, 0.7], "slope": -4 / 3, "intercept": 0.4 + 0.4 * 4 / 3},
    {"kind": "affine", "domain": [0.7, 1.0], "slope": 4 / 3, "intercept": -0.7 * 4 / 3}]}

#: log2 of a negative argument on the whole left branch: every value is NaN
NANLOG = {"label": "nanlog", "branches": [
    {"kind": "log2-affine", "domain": [0, 0.5], "scale": 1, "shift": -2, "offset": 0},
    {"kind": "affine", "domain": [0.5, 1.0], "slope": 2, "intercept": -1}]}


def step(m, x) -> np.ndarray:
    """One noiseless map step in numpy, written apart from the stream kernels:
    values within NUDGE of a breakpoint move off it, each branch formula runs
    on its own points, and results are clipped into (EDGE, 1 - EDGE)."""
    breaks = m.breakpoints
    x = np.array(x, dtype=float)
    for bp in breaks:
        x[np.abs(x - bp) < NUDGE] = bp + NUDGE if bp + NUDGE < 1.0 else bp - NUDGE
    idx = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, m.n_branches - 1)
    y = np.empty_like(x)
    for j, br in enumerate(m.branches):
        y[idx == j] = br.forward(x[idx == j])
    return np.clip(y, EDGE, 1.0 - EDGE)


def iterate(m, x0: float, steps: int) -> list:
    """Trajectory x_1..x_steps of the stream kernel, without noise."""
    out = np.empty(steps)
    kernels.trajectory(*m.kernel_spec(), x0, np.zeros(steps), out)
    return out.tolist()


def kolmogorov_defect(table) -> float:
    """Largest |P[v] - P[v0] - P[v1]| over all words up to depth-1."""
    worst = 0.0
    for n in range(1, table.depth):
        p, q = table.probs(n), table.probs(n + 1)
        worst = max(worst, float(np.max(np.abs(p - q[0::2] - q[1::2]))))
    return worst


def table_from_probs(probs_by_level: dict, threshold: float = 0.5) -> SequenceTable:
    """A table carrying the given probabilities only (zero counts, zero mass)."""
    table = SequenceTable(depth=max(probs_by_level), threshold=threshold, map_label="synthetic")
    for n, p in probs_by_level.items():
        table.levels[n] = _Level(np.asarray(p, dtype=float), np.zeros(2 ** n, dtype=np.int64), 0.0)
    return table


def word_frequencies(m, gen, density, n: int, n_samples: int, seed: int = 0) -> np.ndarray:
    """Monte Carlo frequencies of the 2^n words, an oracle for ``refine``:
    starting points drawn from ``density`` emit n bits each through ``step``."""
    rng = np.random.default_rng(seed)
    x = density.sample(rng, n_samples)
    idx = np.zeros(n_samples, dtype=np.int64)
    for k in range(n):
        idx = (idx << 1) | (x >= gen.threshold)
        if k < n - 1:
            x = step(m, x)
    return np.bincount(idx, minlength=2 ** n) / n_samples


def l1(f, g) -> float:
    """L1 distance between two densities on the same grid."""
    return float(np.abs(f.values - g.values).mean())


def to_scipy(op) -> sp.csr_matrix:
    """An operator (or its CSR arrays) as a scipy matrix with the same layout,
    so that ``to_scipy(op) @ x`` adds in the order ``kernels.csr_matvec`` does."""
    indptr, indices, data = getattr(op, "matrix", op)
    n = len(indptr) - 1
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def from_scipy(mat) -> TransferOperator:
    """A TransferOperator holding the CSR arrays of a scipy matrix."""
    mat = sp.csr_matrix(mat)
    return TransferOperator(CsrMatrix(mat.indptr, mat.indices, mat.data))


def perturbed_maps(count: int, seed: int = 7) -> list:
    """``count`` jittered zigzag, tent, dec-bernoulli and bernoulli maps."""
    spec = PerturbationSpec(sigma_slope=0.02, sigma_break=0.02, sigma_offset=0.02, seed=seed)
    out, trial = [], 0
    while len(out) < count:
        try:
            out.append(perturb(builtin(("zigzag", "tent", "dec-bernoulli", "bernoulli")[trial % 4]),
                               spec, trial))
        except PerturbationError:
            pass
        trial += 1
    return out


@pytest.fixture(scope="session")
def operator_cases():
    """(map, operator): the builtins at 4096 and 65,536 bins, and 100 jittered
    maps at 4096 bins."""
    cases = [(builtin(name), n) for name in BUILTINS for n in (4096, 65536)]
    cases += [(m, 4096) for m in perturbed_maps(100)]
    return [(m, ulam_matrix(m, n)) for m, n in cases]


@pytest.fixture(scope="session")
def pairs():
    return {name: builtin_pair(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def densities(pairs):
    return {name: steady_state_for(m) for name, (m, _) in pairs.items()}


@pytest.fixture(scope="session")
def tables10(pairs, densities):
    out = {}
    for name, (m, gen) in pairs.items():
        dens = None if uniform_certificate(m) else densities[name]
        out[name] = refine(m, gen, 10, density=dens)
    return out


@pytest.fixture(scope="session")
def streams1m(pairs, densities):
    """One million seeded bits per builtin map."""
    return {name: generate_bits(m, gen, densities[name], 1_000_000, seed=2024)
            for name, (m, gen) in pairs.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
