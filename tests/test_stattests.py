import math

import numpy as np
import pytest
from scipy.special import erfc, gammaincc

from chaosrng.errors import ConfigError, InsufficientDataError
from chaosrng.postproc import von_neumann
from chaosrng.stattests import (ALL_TESTS, approx_entropy_test, battery,
                                gamma_q, monobit, runs, serial)


@pytest.fixture(scope="module")
def fair_bits():
    return np.random.default_rng(101).integers(0, 2, 1_000_000).astype(np.uint8)


def test_fair_coin_passes_battery(fair_bits):
    for r in battery(fair_bits):
        assert r.passed, r
        assert 0.0 <= r.p_value <= 1.0


def test_result_pass_iff_p_at_least_alpha(fair_bits):
    r = monobit(fair_bits, alpha=0.01)
    assert r.passed == (r.p_value >= 0.01)
    strict = monobit(fair_bits, alpha=max(r.p_value * 1.01, 1e-12))
    assert strict.passed == (strict.p_value >= strict.alpha)


def test_example_map_raw_fails_monobit(streams1m):
    # first-bit mass 0.86 makes the z-statistic astronomical at 20,000 bits
    r = monobit(streams1m["example"].bits[:20_000])
    assert not r.passed
    assert r.p_value < 1e-6


def test_example_map_raw_fails_serial(streams1m):
    r = serial(streams1m["example"].bits[:20_000])
    assert not r.passed and r.p_value < 1e-6


def test_example_map_von_neumann_output_passes_monobit(streams1m):
    out, _ = von_neumann(streams1m["example"])
    r = monobit(out.bits)
    assert r.passed, r


def test_all_zeros_fails_hard():
    zeros = np.zeros(20_000, dtype=np.uint8)
    assert monobit(zeros).p_value == pytest.approx(0.0, abs=1e-12)
    r = runs(zeros)
    assert r.p_value == 0.0 and not r.passed  # frequency precondition branch


def test_alternating_stream_fails_runs_and_serial():
    bits = np.tile(np.array([0, 1], dtype=np.uint8), 10_000)
    assert monobit(bits).passed  # perfectly balanced
    assert not runs(bits).passed
    assert not serial(bits).passed
    assert not approx_entropy_test(bits).passed


def test_determinism(fair_bits):
    a = battery(fair_bits[:50_000])
    b = battery(fair_bits[:50_000])
    assert a == b


def test_insufficient_data():
    with pytest.raises(InsufficientDataError) as info:
        monobit(np.zeros(19_999, dtype=np.uint8))
    assert info.value.required == 20_000


def test_parameter_validation(fair_bits):
    with pytest.raises(ConfigError):
        serial(fair_bits, m=1)
    with pytest.raises(ConfigError):
        approx_entropy_test(fair_bits, m=0)
    with pytest.raises(ConfigError):
        battery(fair_bits, tests=("monobit", "poker"))


def test_battery_subset_order(fair_bits):
    results = battery(fair_bits[:30_000], tests=("serial", "monobit"))
    assert [r.test_name for r in results] == ["serial", "monobit"]


def test_results_serialize(fair_bits):
    d = monobit(fair_bits[:20_000]).to_dict()
    assert set(d) == {"test", "statistic", "p_value", "pass", "alpha"}


def test_calibration_smoke():
    # acceptance runs the full 500-stream calibration; 100 streams here
    rng = np.random.default_rng(77)
    rejections = np.zeros(len(ALL_TESTS))
    n_streams = 100
    for _ in range(n_streams):
        bits = rng.integers(0, 2, 20_000).astype(np.uint8)
        rejections += [not r.passed for r in battery(bits)]
    assert np.all(rejections / n_streams <= 0.05)


def test_erfc_matches_scipy():
    worst = 0.0
    for x in np.linspace(0.0, 26.5, 20_001):
        ref = erfc(x)
        if ref >= 1e-300:
            worst = max(worst, abs(math.erfc(x) - ref) / ref)
    assert worst <= 1e-12


def test_gamma_q_matches_scipy():
    # shapes of the serial (2^(m-2)) and approximate-entropy (2^(m-1)) tests, m = 2..10
    shapes = sorted({2 ** (m - 2) for m in range(2, 11)} | {2 ** (m - 1) for m in range(2, 11)})
    worst = 0.0
    for a in shapes:
        xs = np.concatenate([np.geomspace(1e-8, 5000.0, 600), np.linspace(0.0, 3 * a + 100, 600)])
        for x in xs:
            ref = gammaincc(a, x)
            if ref >= 1e-300:
                worst = max(worst, abs(gamma_q(a, float(x)) - ref) / ref)
    assert worst <= 1e-12


def test_gamma_q_edge_values():
    assert gamma_q(1, 0.0) == 1.0 and gamma_q(8, 0.0) == 1.0
    assert gamma_q(1, 2.0) == math.exp(-2.0)
    assert math.isnan(gamma_q(4, -1e-12)) and math.isnan(gamma_q(4, math.nan))
    assert gamma_q(2, 1e6) == 0.0
