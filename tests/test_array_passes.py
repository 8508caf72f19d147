"""The array passes of backward refinement and of the Ulam build against
branch-at-a-time oracles.

``PiecewiseMap.pullback`` maps values through every branch in one pass, and
``symbolic._backward_levels`` and ``density._ulam_entries`` are built on it.
The oracles below pull back one branch at a time with ``np.clip``; the array
passes must reproduce them bit for bit: the same words in the same order,
the same weight bytes and the same mass per level, and the same Ulam triples.
"""
import numpy as np
import pytest

from chaosrng.density import DensityGrid, _ulam_entries, invariant_density
from chaosrng.errors import PerturbationError
from chaosrng.maps import DEFAULT_THRESHOLDS, builtin, from_json
from chaosrng.montecarlo import PerturbationSpec, perturb
from chaosrng.symbolic import MIN_INTERVAL, _backward_levels

from conftest import BUILTINS

#: a log2-affine branch beside a decreasing affine one
MIXED_A = {"label": "mixed-a", "branches": [
    {"kind": "log2-affine", "domain": [0, 1 / 3], "scale": 3, "shift": 1, "offset": 0},
    {"kind": "affine", "domain": [1 / 3, 1], "slope": -1.5, "intercept": 1.5}]}

#: partial images, a decreasing log2-affine branch, and a raw image that ends
#: an ulp below 0 (3 * 0.7 - 2.1)
MIXED_B = {"label": "mixed-b", "branches": [
    {"kind": "affine", "domain": [0, 0.4], "slope": 2, "intercept": 0.1},
    {"kind": "log2-affine", "domain": [0.4, 0.7], "scale": -2, "shift": 2.8, "offset": 0},
    {"kind": "affine", "domain": [0.7, 1], "slope": 3, "intercept": -2.1}]}


def branch_pullback(br, y):
    """Preimages of ``y`` in one branch's domain, clipped and snapped."""
    lo_raw, hi_raw = br.image_raw
    x = np.clip(br.inverse(np.clip(y, lo_raw, hi_raw)), br.a, br.b)
    lo, hi = br.image
    at_lo, at_hi = (br.a, br.b) if br.increasing else (br.b, br.a)
    x[y <= lo] = at_lo
    x[y >= hi] = at_hi
    return x


def backward_levels_by_branch(m, t, n, density):
    """``_backward_levels`` one branch and one prefix bit at a time."""
    lefts = np.array([0.0, t])
    rights = np.array([t, 1.0])
    words = np.array([0, 1], dtype=np.int64)
    for level in range(1, n + 1):
        if level > 1:
            acc_l, acc_r, acc_w = [], [], []
            for br in m.branches:
                lo, hi = br.image
                a = np.maximum(lefts, lo)
                b = np.minimum(rights, hi)
                keep = b - a > 0
                if not keep.any():
                    continue
                xa, xb = branch_pullback(br, a[keep]), branch_pullback(br, b[keep])
                if not br.increasing:
                    xa, xb = xb, xa
                w = words[keep]
                for z1, (slo, shi) in enumerate(((0.0, t), (t, 1.0))):
                    ca = np.maximum(xa, slo)
                    cb = np.minimum(xb, shi)
                    ok = cb - ca > MIN_INTERVAL
                    acc_l.append(ca[ok])
                    acc_r.append(cb[ok])
                    acc_w.append(w[ok] + (z1 << (level - 1)))
            lefts = np.concatenate(acc_l)
            rights = np.concatenate(acc_r)
            words = np.concatenate(acc_w)
        yield words, density.integrate_pairs(lefts, rights), float((rights - lefts).sum())


def ulam_entries_by_branch(m, n):
    """``_ulam_entries`` with each branch's edge preimages pulled back alone."""
    edges = np.linspace(0.0, 1.0, n + 1)
    rows_all, cols_all, vals_all = [], [], []
    for br in m.branches:
        u = branch_pullback(br, edges)
        if not br.increasing:
            u = u[::-1]
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
        vals_all.append(lens[keep] * n)
    return np.concatenate(rows_all), np.concatenate(cols_all), np.concatenate(vals_all)


def assert_same_levels(m, t, n, density):
    new = list(_backward_levels(m, t, n, density))
    old = list(backward_levels_by_branch(m, t, n, density))
    assert len(new) == len(old) == n
    for level, ((w, p, mass), (w0, p0, mass0)) in enumerate(zip(new, old), start=1):
        assert w.dtype == w0.dtype and np.array_equal(w, w0), (m.label, level)
        assert p.tobytes() == p0.tobytes(), (m.label, level)
        assert mass == mass0, (m.label, level)


def assert_same_entries(m, n):
    for a, b in zip(_ulam_entries(m, n), ulam_entries_by_branch(m, n)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (m.label, n)


def jittered(name, count, seed=11):
    """``count`` jittered copies of a builtin under the CLI's default jitter."""
    spec = PerturbationSpec(seed=seed)
    out, trial = [], 0
    while len(out) < count:
        try:
            out.append(perturb(builtin(name), spec, trial))
        except PerturbationError:
            pass
        trial += 1
    return out


def tilted_density(n_bins=4096):
    """A fixed non-flat density, so integrals go through interpolation."""
    mids = (np.arange(n_bins) + 0.5) / n_bins
    v = 1.0 + 0.5 * np.cos(2 * np.pi * mids)
    return DensityGrid(v * (n_bins / v.sum()))


def test_pullback_rows_match_branch_oracle():
    maps = [builtin(name) for name in BUILTINS]
    maps += [from_json(MIXED_A), from_json(MIXED_B)]
    maps += jittered("zigzag", 10) + jittered("tent", 10)
    maps += [builtin("dec-bernoulli", slope=s) for s in (1.3, 1.9)]
    rng = np.random.default_rng(5)
    for m in maps:
        ends = [v for br in m.branches for v in (*br.image, *br.image_raw)]
        y = np.concatenate([[-0.25, -0.0, 0.0, 0.5, 1.0, 1.25], ends,
                            np.nextafter(ends, 2.0), np.nextafter(ends, -1.0),
                            np.linspace(0.0, 1.0, 257), rng.random(200)])
        rows = m.pullback(y)
        assert rows.shape == (m.n_branches, y.size)
        for br, row in zip(m.branches, rows):
            assert row.tobytes() == branch_pullback(br, y).tobytes(), m.label
        # a (branches, K) argument gives row k the pullback of its own row
        y2 = np.stack([rng.random(50) for _ in m.branches])
        for k, (br, row) in enumerate(zip(m.branches, m.pullback(y2))):
            assert row.tobytes() == branch_pullback(br, y2[k]).tobytes(), m.label


@pytest.mark.parametrize("n_bins", [4096, 65536])
def test_builtins_match_branch_oracles(n_bins):
    # certified maps take the forward path in refine, so call the backward one
    for name in BUILTINS:
        m = builtin(name)
        assert_same_levels(m, DEFAULT_THRESHOLDS[name], 12, invariant_density(m, n_bins))
        assert_same_entries(m, n_bins)


@pytest.mark.parametrize("name", ["zigzag", "tent"])
def test_jittered_maps_match_branch_oracles(name):
    maps = jittered(name, 100)
    # the jitter folds branches, and folds make decreasing ones
    assert max(m.n_branches for m in maps) > builtin(name).n_branches
    assert any(not br.increasing for m in maps for br in m.branches)
    density = tilted_density()
    for m in maps:
        assert_same_levels(m, 0.5, 10, density)
        assert_same_entries(m, 4096)


@pytest.mark.parametrize("slope", [1.3, 1.5, 1.9])
def test_dec_bernoulli_slopes_match_branch_oracles(slope):
    m = builtin("dec-bernoulli", slope=slope)
    assert_same_levels(m, 0.5, 12, invariant_density(m))
    assert_same_entries(m, 4096)


@pytest.mark.parametrize("spec", [MIXED_A, MIXED_B], ids=["mixed-a", "mixed-b"])
def test_mixed_json_maps_match_branch_oracles(spec):
    m = from_json(spec)
    assert_same_levels(m, 0.5, 12, invariant_density(m))
    assert_same_entries(m, 4096)
