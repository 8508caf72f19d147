import math

import numpy as np
import pytest

from chaosrng.density import steady_state_for
from chaosrng.entropy import (EntropyReport, block_entropy, conditional_entropy,
                              empirical_entropy, entropy_rate, word_counts)
from chaosrng.errors import InsufficientDataError
from chaosrng.maps import builtin_pair
from chaosrng.postproc import generate_bits
from chaosrng.symbolic import refine

from conftest import BUILTINS

LOG2_E = 1.0 / math.log(2.0)


def binary_entropy(p: float) -> float:
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


# ---------------------------------------------------------------------------
# block and conditional entropies

def test_block_entropy_bernoulli_is_n(tables10):
    t = tables10["bernoulli"]
    assert block_entropy(t, 5) == pytest.approx(5.0, abs=1e-12)
    assert block_entropy(t, 10) == pytest.approx(10.0, abs=1e-12)


def test_block_entropy_example_first_bit(tables10):
    t = tables10["example"]
    p0 = float(t.probs(1)[0])
    assert block_entropy(t, 1) == pytest.approx(binary_entropy(p0), abs=1e-12)
    # binary entropy of the reported first-bit mass 0.14, within its tolerance
    assert block_entropy(t, 1) == pytest.approx(binary_entropy(0.14), abs=0.03)


def test_block_entropy_bounded_by_n(tables10):
    for name in BUILTINS:
        t = tables10[name]
        for n in range(1, 11):
            assert block_entropy(t, n) <= n + 1e-12, name


def test_conditional_entropy_bernoulli_flat(tables10):
    t = tables10["bernoulli"]
    for n in range(1, 11):
        assert conditional_entropy(t, n) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_example_at_ten(tables10):
    assert conditional_entropy(tables10["example"], 10) == pytest.approx(0.57, abs=0.02)


def test_conditional_entropy_monotone_non_increasing(tables10):
    for name in BUILTINS:
        t = tables10[name]
        conds = [conditional_entropy(t, n) for n in range(1, 11)]
        for a, b in zip(conds[:-1], conds[1:]):
            assert b <= a + 1e-9, name


def test_chain_rule(tables10):
    for name in BUILTINS:
        t = tables10[name]
        for n in range(1, 11):
            total = sum(conditional_entropy(t, k) for k in range(1, n + 1))
            assert total == pytest.approx(block_entropy(t, n), abs=1e-9), name


# ---------------------------------------------------------------------------
# entropy-rate reports

def test_entropy_rate_bernoulli(pairs, densities):
    m, gen = pairs["bernoulli"]
    rep = entropy_rate(m, gen, density=densities["bernoulli"])
    assert rep.entropy_rate == pytest.approx(1.0, abs=1e-6)
    assert rep.bias == pytest.approx(0.0, abs=1e-9)
    assert rep.lyapunov == pytest.approx(math.log(2), abs=1e-6)
    assert rep.convergence_exponent is None  # flat sequence, nothing to fit
    assert rep.per_n[2] == (3, pytest.approx(3.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_entropy_rate_example(pairs, densities, tables10):
    m, gen = pairs["example"]
    rep = entropy_rate(m, gen, density=densities["example"], table=tables10["example"])
    assert rep.entropy_rate == pytest.approx(0.57, abs=0.02)
    assert rep.bias == pytest.approx(0.36, abs=0.01)
    assert 0.0 < rep.convergence_exponent < 1.0


def test_entropy_rate_pesin_bound(pairs, densities, tables10):
    # bit-process entropy rate cannot exceed the Lyapunov exponent in bits
    for name in BUILTINS:
        m, gen = pairs[name]
        rep = entropy_rate(m, gen, density=densities[name], table=tables10[name])
        assert rep.entropy_rate <= rep.lyapunov * LOG2_E + 0.02, name
    rep = entropy_rate(*pairs["bernoulli"], density=densities["bernoulli"])
    assert abs(rep.entropy_rate - rep.lyapunov * LOG2_E) <= 0.01


def test_entropy_rate_saturates_log2_slope_for_generating_partition():
    # two full-range parallel branches make the threshold partition generating,
    # so H converges to log2(slope); slope 2^0.84 reproduces a 0.84 rate
    m, gen = builtin_pair("dec-bernoulli", slope=2.0 ** 0.84)
    rep = entropy_rate(m, gen)
    assert rep.entropy_rate == pytest.approx(0.8411170590486368, abs=1e-9)
    assert rep.entropy_rate == pytest.approx(0.84, abs=0.01)
    assert rep.bias == pytest.approx(0.0, abs=1e-9)


def test_entropy_rate_regressions_for_reconstructed_maps():
    # frozen values documenting actual behavior of the shipped reconstructions
    m, gen = builtin_pair("dec-bernoulli")
    assert entropy_rate(m, gen).entropy_rate == pytest.approx(0.59217, abs=5e-4)
    m, gen = builtin_pair("tailed-tent")
    assert entropy_rate(m, gen).entropy_rate == pytest.approx(0.40762, abs=5e-4)


def test_entropy_report_serialization(pairs, densities):
    rep = entropy_rate(*pairs["example"], density=densities["example"], n_max=4)
    txt = rep.to_json()
    assert '"entropy_rate"' in txt and '"lyapunov"' in txt
    assert txt.count('"block_entropy"') == 4


# ---------------------------------------------------------------------------
# empirical estimator

def test_word_counts_oracle():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    counts = word_counts(bits, 2)  # words 01,11,10,01
    assert counts.tolist() == [0, 2, 1, 1]
    assert word_counts(bits, 1).tolist() == [2, 3]


def test_empirical_entropy_fair_coin():
    bits = np.random.default_rng(11).integers(0, 2, 1_000_000).astype(np.uint8)
    assert empirical_entropy(bits, 10) == pytest.approx(1.0, abs=0.01)


def test_empirical_entropy_all_zeros():
    assert empirical_entropy(np.zeros(200_000, dtype=np.uint8), 10) == 0.0


def test_empirical_entropy_requires_length():
    with pytest.raises(InsufficientDataError) as info:
        empirical_entropy(np.zeros(1000, dtype=np.uint8), 10)
    assert info.value.required == 100 * 2 ** 10
    assert str(100 * 2 ** 10) in str(info.value)


def test_empirical_matches_exact_smoke(pairs, densities):
    # acceptance runs all six maps at 10^6 bits; here two maps, smaller scale
    for name in ("example", "zigzag"):
        m, gen = pairs[name]
        exact = entropy_rate(m, gen, density=densities[name], n_max=8).entropy_rate
        stream = generate_bits(m, gen, densities[name], 300_000, seed=5)
        assert empirical_entropy(stream.bits, 8) == pytest.approx(exact, abs=0.02), name
