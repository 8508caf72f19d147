import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrng.density import uniform_density
from chaosrng.errors import ConfigError, MapValidationError
from chaosrng.maps import (BitGen, Branch, PiecewiseMap, builtin, builtin_pair,
                           default_bitgen, from_json, tailed_tent_parameter,
                           uniform_certificate, validate_map)

from conftest import NANLOG, iterate, step


# ---------------------------------------------------------------------------
# structure of the shipped maps

def test_builtin_structure(pairs):
    assert pairs["bernoulli"][0].n_branches == 2
    assert pairs["bernoulli"][0].breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert pairs["tent"][0].n_branches == 2
    assert pairs["example"][0].n_branches == 2
    assert pairs["dec-bernoulli"][0].n_branches == 2
    assert pairs["tailed-tent"][0].n_branches == 3
    assert pairs["zigzag"][0].n_branches == 3
    assert pairs["zigzag"][0].breakpoints.tolist() == [0.0, 0.25, 0.75, 1.0]


def test_every_builtin_validates(pairs):
    for m, _ in pairs.values():
        validate_map(m)  # raises on violation


def test_dec_bernoulli_symmetry():
    m = builtin("dec-bernoulli", slope=1.5)
    xs = np.linspace(0.01, 0.99, 199)
    xs = xs[np.abs(xs - 0.5) > 1e-6]
    lhs = step(m, 1.0 - xs)
    rhs = 1.0 - step(m, xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_tailed_tent_parameter_solves_target():
    t = tailed_tent_parameter(math.log(1.5))
    lam = (1 - t) * math.log(2 / (1 - t)) + t * math.log(1 / t)
    assert lam == pytest.approx(math.log(1.5), abs=1e-12)
    assert t == pytest.approx(0.8961426582862146, abs=1e-9)
    with pytest.raises(ConfigError):
        tailed_tent_parameter(math.log(3.0) + 0.1)


# ---------------------------------------------------------------------------
# evaluation: the numpy oracle ``step`` against closed forms, then the kernel

def test_evaluate_bernoulli_points(pairs):
    m = pairs["bernoulli"][0]
    assert step(m, [0.3, 0.75]) == pytest.approx([0.6, 0.5], abs=1e-15)


def test_evaluate_example_closed_form(pairs):
    m = pairs["example"][0]
    assert step(m, [0.5, 0.2]) == pytest.approx(
        [math.log2(2.5) - 1.0, math.log2(1.6)], abs=1e-14)


def test_iterate_bernoulli(pairs):
    m = pairs["bernoulli"][0]
    assert iterate(m, 0.3, 3) == pytest.approx([0.6, 0.2, 0.4], abs=1e-12)
    traj = iterate(m, 1.0 / 7.0, 3)
    assert traj == pytest.approx([2.0 / 7.0, 4.0 / 7.0, 1.0 / 7.0], rel=1e-9)


def test_iterate_example_closed_form(pairs):
    # frozen from repeated closed-form evaluation of log2(1+3x) mod 1
    m = pairs["example"][0]
    traj = iterate(m, 0.5, 2)
    assert traj == pytest.approx([0.3219280948873624, 0.9751050162242616], abs=1e-12)


def test_iterate_survives_breakpoint_hit(pairs):
    m = pairs["bernoulli"][0]
    traj = iterate(m, 0.25, 5)  # second iterate lands exactly on 0.5
    assert len(traj) == 5
    assert all(0.0 < x < 1.0 for x in traj)


# ---------------------------------------------------------------------------
# preimages, by branch inverse and derivative

def preimages(m, y: float) -> list:
    """(u, |M'(u)|) for every branch whose image contains y."""
    out = []
    for br in m.branches:
        lo, hi = br.image
        if lo <= y <= hi and hi > lo:
            u = float(np.clip(br.inverse(y), br.a, br.b))
            out.append((u, abs(float(br.derivative(u)))))
    return out


def test_preimages_bernoulli_half(pairs):
    assert preimages(pairs["bernoulli"][0], 0.5) == [(0.25, 2.0), (0.75, 2.0)]


def test_preimages_example_closed_form(pairs):
    # u = (2^(y+k) - 1)/3 for k in {0,1}
    pre = preimages(pairs["example"][0], 0.4)
    u0 = (2.0 ** 0.4 - 1.0) / 3.0
    u1 = (2.0 ** 1.4 - 1.0) / 3.0
    assert [u for u, _ in pre] == pytest.approx([u0, u1], abs=1e-12)
    ln2 = math.log(2.0)
    assert [d for _, d in pre] == pytest.approx(
        [3.0 / ((1.0 + 3.0 * u0) * ln2), 3.0 / ((1.0 + 3.0 * u1) * ln2)], rel=1e-12)


def test_preimages_zigzag(pairs):
    pre = preimages(pairs["zigzag"][0], 0.3)
    assert [u for u, _ in pre] == pytest.approx([0.4, 0.9], abs=1e-12)
    assert all(d == 2.0 for _, d in pre)


def test_preimage_identity_property(pairs, rng):
    for name, (m, _) in pairs.items():
        ys = rng.random(10_000) * 0.998 + 0.001
        for y in ys[:200]:
            for u, _ in preimages(m, float(y)):
                assert abs(step(m, [u])[0] - y) <= 1e-10, name
        # vectorized check of the full batch through branch arithmetic
        for br in m.branches:
            lo, hi = br.image
            sel = ys[(ys > lo) & (ys < hi)]
            u = br.inverse(sel)
            assert np.max(np.abs(br.forward(u) - sel)) <= 1e-10


def test_branch_cover_property(pairs, rng):
    for name, (m, _) in pairs.items():
        xs = rng.random(10_000) * 0.998 + 0.001
        breaks = m.breakpoints
        xs = xs[np.min(np.abs(xs[:, None] - breaks[None, :]), axis=1) > 1e-9]
        for x in xs[::50]:
            hits = [br for br in m.branches if br.a < x < br.b]
            assert len(hits) == 1, name


def test_preimage_counts_and_certificate(pairs, rng):
    ys = rng.random(2000) * 0.998 + 0.001
    for name, expected in (("bernoulli", {2}), ("tent", {2}),
                           ("zigzag", {2}), ("tailed-tent", {3})):
        m = pairs[name][0]
        counts = {len(preimages(m, float(y))) for y in ys[::10]}
        assert counts == expected, name
    # certificate sum for the measure-preserving maps
    for name in ("bernoulli", "tent", "zigzag", "tailed-tent"):
        m = pairs[name][0]
        for y in ys[::100]:
            s = sum(1.0 / d for _, d in preimages(m, float(y)))
            assert s == pytest.approx(1.0, abs=1e-12), name


def test_preimages_flag_image_boundaries(pairs):
    # zigzag outer-branch images end exactly at 1/2, where the pullback snaps
    # to the domain end that maps there; the middle branch crosses 1/2 at 1/2
    rows = pairs["zigzag"][0].pullback(np.array([0.5]))
    assert rows[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)


def test_uniform_certificate_flags(pairs):
    expected = {"bernoulli": True, "tent": True, "zigzag": True,
                "tailed-tent": True, "example": False, "dec-bernoulli": False}
    for name, flag in expected.items():
        assert uniform_certificate(pairs[name][0]) is flag, name


# ---------------------------------------------------------------------------
# Lyapunov exponents

def test_lyapunov_quadrature_exact_cases(pairs):
    u = uniform_density(4096)
    assert pairs["bernoulli"][0].lyapunov(u) == pytest.approx(math.log(2), abs=1e-12)
    assert pairs["tent"][0].lyapunov(u) == pytest.approx(math.log(2), abs=1e-12)
    assert pairs["zigzag"][0].lyapunov(u) == pytest.approx(math.log(2), abs=1e-12)
    # |M'| = slope everywhere, so the value is density-independent
    assert pairs["dec-bernoulli"][0].lyapunov(u) == pytest.approx(math.log(1.5), abs=1e-12)
    # bins straddling the breakpoints are split, so piecewise-affine maps are exact
    assert pairs["tailed-tent"][0].lyapunov(u) == pytest.approx(math.log(1.5), abs=1e-12)
    t = 0.73
    closed_form = (1 - t) * math.log(2 / (1 - t)) + t * math.log(1 / t)
    assert builtin("tailed-tent", tail=t).lyapunov(uniform_density(1000)) == \
        pytest.approx(closed_form, abs=1e-12)


def test_lyapunov_rejects_unnormalized(pairs):
    from chaosrng.density import DensityGrid
    bad = DensityGrid(np.ones(128))
    bad.values = bad.values * 2.0  # corrupt after validation
    with pytest.raises(ConfigError):
        pairs["bernoulli"][0].lyapunov(bad)


def _log_slope(m, x):
    idx = np.clip(np.searchsorted(m.breakpoints, x, side="right") - 1,
                  0, m.n_branches - 1)
    out = np.empty_like(x)
    for j, br in enumerate(m.branches):
        sel = idx == j
        if sel.any():
            out[sel] = br.log_abs_derivative(x[sel])
    return out


def test_lyapunov_matches_birkhoff_ensemble(pairs, densities):
    # independent oracle: ensemble average of ln|M'| over short exact orbits
    rng = np.random.default_rng(7)
    for name, (m, _) in pairs.items():
        x = rng.random(40_000) * 0.998 + 0.001
        for _ in range(60):  # burn-in toward the invariant density
            x = step(m, x)
        acc = 0.0
        for _ in range(30):
            acc += _log_slope(m, x).mean()
            x = step(m, x)
        birkhoff = acc / 30
        quad = m.lyapunov(densities[name])
        assert quad == pytest.approx(birkhoff, abs=1e-3), name
        assert quad > 0.0


# ---------------------------------------------------------------------------
# builders and JSON

def test_builtin_errors():
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin("logistic")
    with pytest.raises(ConfigError):
        builtin("dec-bernoulli", slope=1.0)
    with pytest.raises(ConfigError):
        builtin("dec-bernoulli", slope=2.5)
    with pytest.raises(ConfigError):
        builtin("tailed-tent", tail=1.0)
    with pytest.raises(ConfigError):
        builtin("bernoulli", slope=2.0)


def test_default_bitgens():
    assert default_bitgen("bernoulli").threshold == 0.5
    assert default_bitgen("example").threshold == pytest.approx(1.0 / 3.0)
    with pytest.raises(ConfigError):
        default_bitgen("nope")
    with pytest.raises(ConfigError):
        BitGen(0.0)
    assert BitGen(0.25).threshold == 0.25


def test_json_roundtrip(pairs):
    for name, (m, _) in pairs.items():
        again = from_json(m.to_json())
        assert again.branches == m.branches, name


def test_json_schema_fields():
    m = builtin_pair("example")[0]
    obj = json.loads(m.to_json())
    assert obj["branches"][0] == {"kind": "log2-affine", "domain": [0.0, 1.0 / 3.0],
                                  "scale": 3.0, "shift": 1.0, "offset": 0.0}
    obj2 = json.loads(builtin_pair("bernoulli")[0].to_json())
    assert obj2["branches"][1] == {"kind": "affine", "domain": [0.5, 1.0],
                                   "slope": 2.0, "intercept": -1.0}


def test_from_json_rejects_malformed():
    with pytest.raises(ConfigError):
        from_json({"branches": [{"kind": "cubic", "domain": [0, 1]}]})
    with pytest.raises(ConfigError):
        from_json({"branches": [{"kind": "affine", "domain": [0, 1]}]})  # no slope
    with pytest.raises(MapValidationError):
        from_json({"branches": [
            {"kind": "affine", "domain": [0.0, 0.7], "slope": 1.4, "intercept": 0.0},
            {"kind": "affine", "domain": [0.5, 1.0], "slope": 2.0, "intercept": -1.0},
        ]})  # overlapping domains
    with pytest.raises(MapValidationError):
        from_json({"branches": [
            {"kind": "affine", "domain": [0.0, 1.0], "slope": 1.5, "intercept": 0.0},
        ]})  # image leaves [0,1]


def test_from_json_rejects_non_finite_branch():
    with pytest.raises(MapValidationError, match="non-finite"):
        from_json(NANLOG)


def test_branch_pullback_snaps_saturated_values():
    m = PiecewiseMap((Branch("affine", 0.0, 0.5, 2.4, -0.1),   # raw image (-0.1, 1.1)
                      Branch("affine", 0.5, 1.0, -2.4, 2.5)))  # raw image (0.1, 1.3)
    inc, dec = m.pullback(np.array([0.0, 0.1, 0.5, 1.0]))
    assert inc == pytest.approx([0.0, 0.2 / 2.4, 0.25, 0.5])
    assert dec == pytest.approx([1.0, 1.0, 2.0 / 2.4, 0.5])


def test_validate_map_catches_bad_derivative():
    class LyingBranch(Branch):
        def derivative(self, x):
            return np.full_like(np.asarray(x, dtype=float), 1.23)

    bad = PiecewiseMap((LyingBranch("affine", 0.0, 0.5, 2.0, 0.0),
                        Branch("affine", 0.5, 1.0, 2.0, -1.0)))
    with pytest.raises(MapValidationError, match="finite difference"):
        validate_map(bad)


@settings(max_examples=50, deadline=None)
@given(slope=st.floats(1.1, 4.0), a=st.floats(0.0, 0.4), width=st.floats(0.1, 0.5))
def test_affine_branch_inverse_roundtrip(slope, a, width):
    b = min(a + width, 1.0)
    intercept = -slope * a  # image starts at 0
    if slope * (b - a) > 1.0:
        return  # image would leave [0,1]
    br = Branch("affine", a, b, slope, intercept)
    xs = np.linspace(a + 1e-9, b - 1e-9, 37)
    assert np.max(np.abs(br.inverse(br.forward(xs)) - xs)) < 1e-12
