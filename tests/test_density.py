import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from chaosrng import kernels
from chaosrng.density import (CsrMatrix, DensityGrid, TransferOperator,
                              invariant_density, steady_state,
                              steady_state_for, ulam_matrix, uniform_density,
                              _ulam_entries, _ulam_exact)
from chaosrng.errors import ConfigError, NonConvergenceError
from chaosrng.maps import builtin, builtin_pair, from_json
from chaosrng.montecarlo import PerturbationSpec, perturb

from conftest import BUILTINS, CERTIFIED, SWAP_MAP, from_scipy, l1, step, to_scipy


def mass(f: DensityGrid, pairs) -> float:
    """Integral of ``f`` over the intervals ``pairs``."""
    lo, hi = np.array(pairs, dtype=float).T
    return float(f.integrate_pairs(lo, hi).sum())


# ---------------------------------------------------------------------------
# oracles: scipy.sparse builds that the package itself no longer carries

def apply(op: TransferOperator, f: DensityGrid) -> DensityGrid:
    """One transfer-operator step through scipy, renormalized."""
    mass = to_scipy(op) @ (f.values / f.n_bins)
    mass /= mass.sum()
    return DensityGrid(mass * f.n_bins)


def ulam_sampled(m, n: int, spb: int) -> TransferOperator:
    """Stratified points per bin pushed through the map and histogrammed."""
    offsets = (np.arange(spb) + 0.5) / spb / n
    cols = np.repeat(np.arange(n), spb)
    x = cols / n + np.tile(offsets, n)
    y = step(m, x)
    rows = np.clip((y * n).astype(np.int64), 0, n - 1)
    return from_scipy(sp.coo_matrix((np.full(x.size, 1.0 / spb), (rows, cols)), shape=(n, n)))


def scipy_assembly(m, n: int) -> sp.csr_matrix:
    """The operator assembled from the same entries by scipy: duplicates summed
    by ``tocsr``, columns rescaled by a diagonal product."""
    rows, cols, vals = _ulam_entries(m, n)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    colsums = np.asarray(mat.sum(axis=0)).ravel()
    return (mat @ sp.diags(1.0 / np.where(colsums > 0, colsums, 1.0))).tocsr()


# ---------------------------------------------------------------------------
# operator construction

def test_ulam_bernoulli_four_bins_exact_columns():
    # oracle: bin (0, 1/4) maps onto (0, 1/2), i.e. half mass to each of bins 0,1
    m, _ = builtin_pair("bernoulli")
    mat = to_scipy(_ulam_exact(m, 4)).toarray()
    assert mat[:, 0] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert mat[:, 1] == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-15)
    assert mat[:, 2] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert mat[:, 3] == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-15)


def test_ulam_columns_stochastic_all_builtins():
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        for method, op in (("exact", ulam_matrix(m, 256)), ("sample", ulam_sampled(m, 256, 32))):
            colsums = np.asarray(to_scipy(op).sum(axis=0)).ravel()
            assert np.max(np.abs(colsums - 1.0)) < 1e-9, (name, method)


def test_ulam_sampled_matches_exact_when_aligned():
    # dyadic slopes and breakpoints: stratified sampling reproduces exact masses
    m, _ = builtin_pair("bernoulli")
    a = to_scipy(ulam_matrix(m, 64)).toarray()
    b = to_scipy(ulam_sampled(m, 64, 32)).toarray()
    assert np.max(np.abs(a - b)) < 1e-12


def test_ulam_sampled_close_to_exact_example_map():
    # stratified sampling quantizes column masses at 1/samples_per_bin, so the
    # sampled fixed point carries percent-level noise; it must shrink with spb
    m, _ = builtin_pair("example")
    fa = steady_state(ulam_matrix(m, 512))
    fb = steady_state(ulam_sampled(m, 512, 64))
    fc = steady_state(ulam_sampled(m, 512, 256))
    assert l1(fa, fb) < 0.02
    assert l1(fa, fc) < l1(fa, fb)


def test_ulam_parameter_validation():
    m, _ = builtin_pair("tent")
    with pytest.raises(ConfigError):
        ulam_matrix(m, 32)


def test_ulam_arrays_equal_scipy_assembly(operator_cases):
    # same layout and bits as scipy's build, so products add in the same order
    for m, op in operator_cases:
        old = scipy_assembly(m, op.n_bins)
        for ours, theirs in zip(op.matrix, (old.indptr, old.indices, old.data)):
            assert np.array_equal(ours, theirs), (m.label, op.n_bins)


def test_tent_uniform_is_fixed_point():
    m, _ = builtin_pair("tent")
    for n_bins in (64, 256, 1024):
        op = ulam_matrix(m, n_bins)
        u = np.full(n_bins, 1.0 / n_bins)
        assert np.abs(to_scipy(op) @ u - u).sum() < 1e-9


# ---------------------------------------------------------------------------
# apply / steady state

def test_apply_uniform_invariant_bernoulli():
    m, _ = builtin_pair("bernoulli")
    op = ulam_matrix(m, 128)
    f = uniform_density(128)
    g = apply(op, f)
    assert l1(f, g) < 1e-12


def test_apply_point_mass_splits_to_images():
    # mass in bin (0, 1/128) maps onto (0, 2/128): half into each image bin
    m, _ = builtin_pair("bernoulli")
    op = ulam_matrix(m, 128)
    vals = np.zeros(128)
    vals[0] = 128.0
    g = apply(op, DensityGrid(vals))
    expected = np.zeros(128)
    expected[0] = expected[1] = 64.0
    assert g.values == pytest.approx(expected, abs=1e-9)


def test_apply_preserves_l1_norm():
    m, _ = builtin_pair("example")
    op = ulam_matrix(m, 256)
    rng = np.random.default_rng(1)
    vals = rng.random(256) + 0.01
    vals *= 256 / vals.sum()
    g = apply(op, DensityGrid(vals))
    assert g.values.sum() / 256 == pytest.approx(1.0, abs=1e-12)


def test_apply_dimension_mismatch():
    # the kernel that applies the operator refuses a vector of the wrong length
    m, _ = builtin_pair("tent")
    op = ulam_matrix(m, 128)
    with pytest.raises(ValueError):
        kernels.csr_matvec(*op.matrix, np.full(256, 1.0 / 256), np.empty(128))
    with pytest.raises(ValueError):
        kernels.csr_matvec(*op.matrix, np.full(128, 1.0 / 128), np.empty(256))


def test_steady_state_uniform_for_certified_maps():
    for name in CERTIFIED:
        m, _ = builtin_pair(name)
        f = steady_state_for(m, 4096)
        assert l1(f, uniform_density(4096)) <= 1e-6, name


def test_steady_state_tailed_tent_uniform_for_any_tail():
    from chaosrng.maps import builtin
    for t in (0.1, 0.5, 0.85):
        m = builtin("tailed-tent", tail=t)
        f = steady_state_for(m, 2048)
        assert l1(f, uniform_density(2048)) <= 1e-8, t


def test_invariant_density_certified_maps_skip_the_solver(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called on a certified map")

    monkeypatch.setattr("chaosrng.density.steady_state_for", no_solve)
    for name in CERTIFIED:
        m, _ = builtin_pair(name)
        assert np.array_equal(invariant_density(m).values, np.ones(4096)), name
        assert np.array_equal(invariant_density(m, 1024).values, np.ones(1024)), name


def test_invariant_density_solves_uncertified_maps(densities):
    for name in ("example", "dec-bernoulli"):
        m, _ = builtin_pair(name)
        assert np.array_equal(invariant_density(m).values, densities[name].values), name


def test_steady_state_example_map_first_bit_mass(densities):
    p0 = mass(densities["example"], [(0.0, 1.0 / 3.0)])
    assert p0 == pytest.approx(0.14, abs=0.01)
    assert p0 == pytest.approx(0.1393, abs=2e-3)  # frozen regression value


def test_steady_state_fixed_point_residual(densities):
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        op = ulam_matrix(m, 4096)
        f = densities[name]
        g = apply(op, f)
        assert l1(f, g) <= 1e-8, name


def test_grid_refinement_stability():
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        coarse = steady_state_for(m, 2048)
        fine = steady_state_for(m, 4096)
        expanded = DensityGrid(np.repeat(coarse.values, 2))
        assert l1(expanded, fine) <= 5e-3, name


def test_steady_state_non_convergence_raises():
    n = 64
    # slow one-directional leak toward bin 0; uniform start converges slowly
    mat = sp.lil_matrix((n, n))
    for j in range(n):
        mat[j, j] = 0.999
        mat[0, j] = mat[0, j] + 0.001
    op = from_scipy(mat)
    with pytest.raises(NonConvergenceError) as info:
        steady_state(op, tol=1e-12, max_iters=3)
    assert info.value.residual is not None and info.value.residual > 0


def test_steady_state_swap_map_converges():
    # plain iteration: L1 step still 9e-7 after 100,000 steps (exit 3)
    m = from_json(json.dumps(SWAP_MAP))
    op = ulam_matrix(m, 4096)
    f = steady_state(op)
    assert l1(f, apply(op, f)) <= 1e-8
    # the two halves swap, so each carries half the mass
    assert mass(f, [(0.0, 0.4)]) == pytest.approx(0.5, abs=1e-4)


def test_steady_state_dec_bernoulli_slope_1_3_fine_grid_converges():
    # plain iteration: a period-2 cycle with L1 step 0.2609 for 100,000 steps
    op = ulam_matrix(builtin("dec-bernoulli", slope=1.3), 65536)
    f = steady_state(op)
    assert l1(f, apply(op, f)) <= 1e-8
    # the map commutes with x -> 1 - x
    assert mass(f, [(0.0, 0.5)]) == pytest.approx(0.5, abs=1e-9)


def test_lazy_chain_leaves_converging_cases_alone(operator_cases, monkeypatch):
    # slowly converging chains keep every bit of the plain iteration: oscillating
    # ones (dec-bernoulli 1.415) and a jittered tent whose mass drains toward 0,
    # whose step shrinks by under 1% per 50 steps and which the lazy chain
    # would not finish in 100,000 steps
    slow = [ulam_matrix(builtin("dec-bernoulli", slope=s), 4096) for s in (1.415, 1.42)]
    slow.append(ulam_matrix(perturb(builtin("tent"), PerturbationSpec(trials=100, seed=4), 8), 1024))
    # the builtins and the first 20 jittered maps
    ops = [op for _, op in operator_cases if op.n_bins == 4096][:26] + slow
    solved = [steady_state(op).values for op in ops]
    monkeypatch.setattr("chaosrng.density.STALL_SHRINK", math.inf)
    for op, values in zip(ops, solved):
        assert np.array_equal(steady_state(op).values, values)


def test_steady_state_tol_validation():
    m, _ = builtin_pair("tent")
    with pytest.raises(ConfigError):
        steady_state(ulam_matrix(m, 128), tol=0.0)


# ---------------------------------------------------------------------------
# integration and sampling

def test_integrate_trivial_cases():
    f = uniform_density(256)
    assert mass(f, [(0.0, 0.25)]) == pytest.approx(0.25, abs=1e-12)
    assert mass(f, [(0.0, 1.0)]) == pytest.approx(1.0, abs=1e-12)


def test_integrate_uniform_power_of_two_grid_is_exact_length():
    # refine relies on this to give certified maps exact interval lengths;
    # the grid skips np.interp here, so check that interp agrees bit for bit
    rng = np.random.default_rng(3)
    lo = rng.random(10_000)
    hi = np.minimum(lo + rng.random(10_000) * rng.choice([1e-9, 1e-3, 0.5], 10_000), 1.0)
    lo[:3], hi[:3] = 0.0, 1.0
    for n in (1024, 4096, 65536):
        f = uniform_density(n)
        by_interp = (np.interp(hi, f.edges, f.cumulative())
                     - np.interp(lo, f.edges, f.cumulative()))
        assert np.array_equal(by_interp, hi - lo), n
        assert np.array_equal(f.integrate_pairs(lo, hi), hi - lo), n
    outside = uniform_density(1024).integrate_pairs(np.array([-0.5, 0.5]), np.array([0.5, 1.5]))
    assert np.array_equal(outside, [0.5, 0.5])


def test_integrate_partial_bin_proration():
    vals = np.zeros(64)
    vals[0] = 64.0  # all mass in the first bin
    f = DensityGrid(vals)
    assert mass(f, [(0.0, 1.0 / 128.0)]) == pytest.approx(0.5, abs=1e-12)
    assert mass(f, [(1.0 / 256.0, 3.0 / 256.0)]) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=8))
def test_integrate_additive_and_monotone(pairs_list):
    ivals = sorted((min(a, b), max(a, b)) for a, b in pairs_list)
    # make them disjoint by clipping at the previous right endpoint
    disjoint = []
    prev = 0.0
    for a, b in ivals:
        a = max(a, prev)
        if b > a:
            disjoint.append((a, b))
            prev = b
    if not disjoint:
        return
    vals = np.abs(np.sin(np.arange(128) + 1.0)) + 0.05
    f = DensityGrid(vals * 128 / vals.sum())
    total = mass(f, disjoint)
    assert total == pytest.approx(sum(mass(f, [iv]) for iv in disjoint), abs=1e-9)
    sub = disjoint[: max(1, len(disjoint) // 2)]
    assert mass(f, sub) <= total + 1e-12
    assert -1e-12 <= total <= 1.0 + 1e-12


def test_sample_uniform_ks(densities):
    rng = np.random.default_rng(42)
    xs = densities["bernoulli"].sample(rng, 1_000_000)
    stat = kstest(xs, "uniform").statistic
    assert stat < 0.002


def test_sample_single_bin():
    vals = np.zeros(128)
    vals[17] = 128.0
    f = DensityGrid(vals)
    xs = f.sample(np.random.default_rng(0), 10_000)
    assert np.all((xs >= 17 / 128) & (xs <= 18 / 128))


def test_sample_example_matches_first_bit_mass(densities):
    f = densities["example"]
    p0 = mass(f, [(0.0, 1.0 / 3.0)])
    xs = f.sample(np.random.default_rng(9), 1_000_000)
    assert np.mean(xs < 1.0 / 3.0) == pytest.approx(p0, abs=0.002)


def test_sample_histogram_l1(densities):
    # compare on 64 aggregate bins so counting noise (~0.6%) stays below the bound
    f = densities["example"]
    xs = f.sample(np.random.default_rng(5), 1_000_000)
    counts, _ = np.histogram(xs, bins=64, range=(0.0, 1.0))
    emp = DensityGrid(counts / counts.sum() * 64)
    coarse = DensityGrid(f.values.reshape(64, -1).mean(axis=1))
    assert l1(emp, coarse) < 0.01


# ---------------------------------------------------------------------------
# type validation and export

def test_density_grid_validation():
    with pytest.raises(ConfigError):
        DensityGrid(np.full(64, 2.0))  # integrates to 2
    with pytest.raises(ConfigError):
        DensityGrid(-np.ones(64))
    with pytest.raises(ConfigError):
        DensityGrid(np.ones((8, 8)))


def test_transfer_operator_validation():
    with pytest.raises(ConfigError, match="columns"):
        from_scipy(sp.eye(8) * 0.5)
    with pytest.raises(ConfigError, match="negative"):
        from_scipy([[1.5, 0.0], [-0.5, 1.0]])  # columns sum to 1
    ok = from_scipy(sp.eye(8)).matrix
    malformed = [
        CsrMatrix(ok.indptr, ok.indices + 1, ok.data),          # column 8 of 8
        CsrMatrix(ok.indptr[::-1], ok.indices, ok.data),        # indptr runs backwards
        CsrMatrix(ok.indptr[:-1], ok.indices, ok.data),         # one row short
        CsrMatrix(ok.indptr, ok.indices[:-1], ok.data),         # indices short
    ]
    for mat in malformed:
        with pytest.raises(ConfigError, match="square CSR"):
            TransferOperator(mat)


def test_density_csv_layout(densities):
    text = densities["bernoulli"].to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 4097
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-9)


def test_density_csv_matches_row_by_row_formatting(densities):
    for name in ("example", "bernoulli"):
        f = densities[name]
        edges = f.edges
        lines = ["bin_left,bin_right,density"]
        lines += [f"{edges[i]:.12g},{edges[i + 1]:.12g},{v:.12g}"
                  for i, v in enumerate(f.values)]
        assert f.to_csv() == "\n".join(lines) + "\n", name
