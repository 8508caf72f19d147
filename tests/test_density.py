import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from chaosrng.density import (DensityGrid, TransferOperator, apply,
                              invariant_density, steady_state,
                              steady_state_for, ulam_matrix, uniform_density,
                              _ulam_exact)
from chaosrng.errors import ConfigError, NonConvergenceError
from chaosrng.maps import builtin_pair

from conftest import BUILTINS, CERTIFIED


# ---------------------------------------------------------------------------
# operator construction

def test_ulam_bernoulli_four_bins_exact_columns():
    # oracle: bin (0, 1/4) maps onto (0, 1/2), i.e. half mass to each of bins 0,1
    m, _ = builtin_pair("bernoulli")
    mat = _ulam_exact(m, 4).toarray()
    assert mat[:, 0] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert mat[:, 1] == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-15)
    assert mat[:, 2] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert mat[:, 3] == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-15)


def test_ulam_columns_stochastic_all_builtins():
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        for method in ("exact", "sample"):
            op = ulam_matrix(m, 256, samples_per_bin=32, method=method)
            colsums = np.asarray(op.matrix.sum(axis=0)).ravel()
            assert np.max(np.abs(colsums - 1.0)) < 1e-9, (name, method)


def test_ulam_sampled_matches_exact_when_aligned():
    # dyadic slopes and breakpoints: stratified sampling reproduces exact masses
    m, _ = builtin_pair("bernoulli")
    a = ulam_matrix(m, 64, samples_per_bin=32, method="exact").matrix.toarray()
    b = ulam_matrix(m, 64, samples_per_bin=32, method="sample").matrix.toarray()
    assert np.max(np.abs(a - b)) < 1e-12


def test_ulam_sampled_close_to_exact_example_map():
    # stratified sampling quantizes column masses at 1/samples_per_bin, so the
    # sampled fixed point carries percent-level noise; it must shrink with spb
    m, _ = builtin_pair("example")
    fa = steady_state(ulam_matrix(m, 512, method="exact"))
    fb = steady_state(ulam_matrix(m, 512, samples_per_bin=64, method="sample"))
    fc = steady_state(ulam_matrix(m, 512, samples_per_bin=256, method="sample"))
    assert fa.l1_distance(fb) < 0.02
    assert fa.l1_distance(fc) < fa.l1_distance(fb)


def test_ulam_parameter_validation():
    m, _ = builtin_pair("tent")
    with pytest.raises(ConfigError):
        ulam_matrix(m, 32)
    with pytest.raises(ConfigError):
        ulam_matrix(m, 128, samples_per_bin=8, method="sample")
    with pytest.raises(ConfigError):
        ulam_matrix(m, 128, method="quadrature")


def test_tent_uniform_is_fixed_point():
    m, _ = builtin_pair("tent")
    for n_bins in (64, 256, 1024):
        op = ulam_matrix(m, n_bins)
        u = np.full(n_bins, 1.0 / n_bins)
        assert np.abs(op.matrix @ u - u).sum() < 1e-9


# ---------------------------------------------------------------------------
# apply / steady state

def test_apply_uniform_invariant_bernoulli():
    m, _ = builtin_pair("bernoulli")
    op = ulam_matrix(m, 128)
    f = uniform_density(128)
    g = apply(op, f)
    assert f.l1_distance(g) < 1e-12


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
    m, _ = builtin_pair("tent")
    with pytest.raises(ConfigError):
        apply(ulam_matrix(m, 128), uniform_density(256))


def test_steady_state_uniform_for_certified_maps():
    for name in CERTIFIED:
        m, _ = builtin_pair(name)
        f = steady_state_for(m, 4096)
        assert f.l1_distance(uniform_density(4096)) <= 1e-6, name


def test_steady_state_tailed_tent_uniform_for_any_tail():
    from chaosrng.maps import builtin
    for t in (0.1, 0.5, 0.85):
        m = builtin("tailed-tent", tail=t)
        f = steady_state_for(m, 2048)
        assert f.l1_distance(uniform_density(2048)) <= 1e-8, t


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
    p0 = densities["example"].integrate([(0.0, 1.0 / 3.0)])
    assert p0 == pytest.approx(0.14, abs=0.01)
    assert p0 == pytest.approx(0.1393, abs=2e-3)  # frozen regression value


def test_steady_state_fixed_point_residual(densities):
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        op = ulam_matrix(m, 4096)
        f = densities[name]
        g = apply(op, f)
        assert f.l1_distance(g) <= 1e-8, name


def test_grid_refinement_stability():
    for name in BUILTINS:
        m, _ = builtin_pair(name)
        coarse = steady_state_for(m, 2048)
        fine = steady_state_for(m, 4096)
        expanded = DensityGrid(np.repeat(coarse.values, 2))
        assert expanded.l1_distance(fine) <= 5e-3, name


def test_steady_state_non_convergence_raises():
    n = 64
    # slow one-directional leak toward bin 0; uniform start converges slowly
    mat = sp.lil_matrix((n, n))
    for j in range(n):
        mat[j, j] = 0.999
        mat[0, j] = mat[0, j] + 0.001
    op = TransferOperator(mat.tocsr())
    with pytest.raises(NonConvergenceError) as info:
        steady_state(op, tol=1e-12, max_iters=3)
    assert info.value.residual is not None and info.value.residual > 0


def test_steady_state_tol_validation():
    m, _ = builtin_pair("tent")
    with pytest.raises(ConfigError):
        steady_state(ulam_matrix(m, 128), tol=0.0)


# ---------------------------------------------------------------------------
# integration and sampling

def test_integrate_trivial_cases():
    f = uniform_density(256)
    assert f.integrate([(0.0, 0.25)]) == pytest.approx(0.25, abs=1e-12)
    assert f.integrate([(0.0, 1.0)]) == pytest.approx(1.0, abs=1e-12)


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
    assert f.integrate([(0.0, 1.0 / 128.0)]) == pytest.approx(0.5, abs=1e-12)
    assert f.integrate([(1.0 / 256.0, 3.0 / 256.0)]) == pytest.approx(0.5, abs=1e-12)


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
    total = f.integrate(disjoint)
    assert total == pytest.approx(sum(f.integrate([iv]) for iv in disjoint), abs=1e-9)
    sub = disjoint[: max(1, len(disjoint) // 2)]
    assert f.integrate(sub) <= total + 1e-12
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
    p0 = f.integrate([(0.0, 1.0 / 3.0)])
    xs = f.sample(np.random.default_rng(9), 1_000_000)
    assert np.mean(xs < 1.0 / 3.0) == pytest.approx(p0, abs=0.002)


def test_sample_histogram_l1(densities):
    # compare on 64 aggregate bins so counting noise (~0.6%) stays below the bound
    f = densities["example"]
    xs = f.sample(np.random.default_rng(5), 1_000_000)
    counts, _ = np.histogram(xs, bins=64, range=(0.0, 1.0))
    emp = DensityGrid(counts / counts.sum() * 64)
    coarse = DensityGrid(f.values.reshape(64, -1).mean(axis=1))
    assert emp.l1_distance(coarse) < 0.01


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
    bad = sp.eye(8).tocsr() * 0.5
    with pytest.raises(ConfigError):
        TransferOperator(bad)


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
