import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrng.density import uniform_density
from chaosrng.errors import ConfigError, ResourceLimitError
from chaosrng.maps import BitGen, builtin_pair
from chaosrng.symbolic import (IntervalSet, SequenceTable, bias, preimage_set,
                               refine, s1, word_frequencies)

from conftest import BUILTINS, CERTIFIED


# ---------------------------------------------------------------------------
# IntervalSet basics

def test_interval_set_sorts_and_drops_slivers():
    s = IntervalSet(np.array([0.5, 0.1, 0.3]), np.array([0.6, 0.2, 0.3 + 1e-16]))
    assert list(s) == pytest.approx([(0.1, 0.2), (0.5, 0.6)])
    assert s.length == pytest.approx(0.2)


def test_interval_set_rejects_overlap_and_outside():
    with pytest.raises(ConfigError):
        IntervalSet(np.array([0.1, 0.15]), np.array([0.2, 0.3]))
    with pytest.raises(ConfigError):
        IntervalSet(np.array([-0.5]), np.array([0.5]))


def test_interval_set_touching_endpoints_allowed():
    s = IntervalSet(np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    assert len(s) == 2 and s.length == pytest.approx(1.0)


def test_interval_set_queries():
    s = IntervalSet.from_pairs([(0.1, 0.2), (0.4, 0.7)])
    assert s.contains(0.15) and s.contains(0.5)
    assert not s.contains(0.3) and not s.contains(0.2)
    clipped = s.intersect_interval(0.15, 0.5)
    assert list(clipped) == pytest.approx([(0.15, 0.2), (0.4, 0.5)])
    assert len(IntervalSet.empty()) == 0


# ---------------------------------------------------------------------------
# s1 and preimages

def test_s1_example_thresholds():
    z0, z1 = s1(BitGen(1.0 / 3.0))
    assert list(z0) == pytest.approx([(0.0, 1.0 / 3.0)])
    assert list(z1) == pytest.approx([(1.0 / 3.0, 1.0)])
    b0, b1 = s1(BitGen(0.5))
    assert b0.length == b1.length == pytest.approx(0.5)


def test_preimage_set_bernoulli_lower_half(pairs):
    m = pairs["bernoulli"][0]
    pre = preimage_set(m, IntervalSet.from_pairs([(0.0, 0.5)]))
    assert list(pre) == pytest.approx([(0.0, 0.25), (0.5, 0.75)])


def test_preimage_set_tent_lower_half(pairs):
    m = pairs["tent"][0]
    pre = preimage_set(m, IntervalSet.from_pairs([(0.0, 0.5)]))
    assert list(pre) == pytest.approx([(0.0, 0.25), (0.75, 1.0)])


def test_preimage_set_full_interval(pairs):
    for name in BUILTINS:
        m = pairs[name][0]
        pre = preimage_set(m, IntervalSet.from_pairs([(0.0, 1.0)]))
        assert pre.length == pytest.approx(1.0, abs=1e-12), name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
                min_size=1, max_size=5))
def test_preimage_preserves_measure_for_certified_maps(raw):
    ivals, prev = [], 0.0
    for a, b in sorted((min(p), max(p)) for p in raw):
        a = max(a, prev)
        if b - a > 1e-9:
            ivals.append((a, b))
            prev = b
    if not ivals:
        return
    s = IntervalSet.from_pairs(ivals)
    for name in CERTIFIED:
        m, _ = builtin_pair(name)
        assert preimage_set(m, s).length == pytest.approx(s.length, abs=1e-12), name


# ---------------------------------------------------------------------------
# refinement

def test_refine_bernoulli_depth2_exact(tables10):
    t = tables10["bernoulli"]
    assert list(t.interval_set("00")) == pytest.approx([(0.0, 0.25)])
    assert list(t.interval_set("01")) == pytest.approx([(0.25, 0.5)])
    assert list(t.interval_set("10")) == pytest.approx([(0.5, 0.75)])
    assert list(t.interval_set("11")) == pytest.approx([(0.75, 1.0)])
    assert t.probs(2) == pytest.approx([0.25] * 4, abs=1e-15)


def test_refine_example_first_bit(tables10):
    t = tables10["example"]
    p = t.probs(1)
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-9)
    assert p[0] == pytest.approx(0.14, abs=0.01)
    assert t.bias() == pytest.approx(0.36, abs=0.01)
    assert bias(t) == t.bias()


def test_refine_base_case_matches_s1(pairs, densities):
    for name in BUILTINS:
        m, gen = pairs[name]
        t = refine(m, gen, 1, density=densities[name])
        z0, _ = s1(gen)
        assert t.probs(1)[0] == pytest.approx(densities[name].integrate(z0), abs=1e-12)


def test_refine_certified_default_matches_uniform_grids(pairs):
    # the default measure of a certified map is its exact uniform density,
    # which integrates to interval lengths at any power-of-two bin count
    for name in CERTIFIED:
        m, gen = pairs[name]
        t = refine(m, gen, 10)
        for n_bins in (1024, 4096, 65536):
            u = refine(m, gen, 10, density=uniform_density(n_bins))
            for n in range(1, 11):
                assert np.array_equal(t.probs(n), u.probs(n)), (name, n_bins, n)


def test_partition_and_consistency_properties(pairs, densities):
    # depth 12: word sets tile (0,1) and probabilities are a consistent family
    for name in BUILTINS:
        m, gen = pairs[name]
        dens = None if name in CERTIFIED else densities[name]
        t = refine(m, gen, 12, density=dens)
        for n in range(1, 13):
            assert abs(t.partition_length(n) - 1.0) <= 1e-9, (name, n)
            assert abs(t.probs(n).sum() - 1.0) <= 1e-6, (name, n)
            assert t.interval_count(n) <= m.n_branches ** n + 2 ** n, (name, n)
        assert t.kolmogorov_defect() <= 1e-9, name


def test_word_table_contract_on_fragmenting_map(pairs):
    # tailed-tent splits words into many intervals; certified uniform, so each
    # probability is the total length of the word's interval set
    m, gen = pairs["tailed-tent"]
    t = refine(m, gen, 8)
    rows = [line.split(",") for line in t.to_csv().splitlines()[1:]]
    counts = {word: int(count) for word, count, _ in rows}
    for n in range(1, 9):
        total = 0
        for idx in range(2 ** n):
            word = format(idx, f"0{n}b")
            s = t.interval_set(word)
            assert np.all(s.lefts[1:] >= s.lefts[:-1]), word
            assert np.all(s.rights[:-1] <= s.lefts[1:]), word
            assert abs(s.length - t.prob(word)) <= 1e-15, word
            assert len(s) == counts[word], word
            total += counts[word]
        assert total == t.interval_count(n), n
    assert max(counts.values()) > 1


def test_bernoulli_all_words_equiprobable(tables10):
    t = tables10["bernoulli"]
    for n in (4, 8, 10):
        assert t.probs(n) == pytest.approx([2.0 ** -n] * 2 ** n, abs=1e-12)


def test_monte_carlo_word_frequencies_smoke(pairs, densities):
    # cross-validates the full chain on a small scale; the acceptance suite
    # runs the full 10^6-trajectory version at depth 6
    m, gen = pairs["bernoulli"]
    freq = word_frequencies(m, gen, densities["bernoulli"], 4, 200_000, seed=3)
    exact = np.full(16, 1.0 / 16.0)
    se = np.sqrt(exact * (1 - exact) / 200_000)
    assert np.all(np.abs(freq - exact) <= 3 * se + 1e-9)


def test_refine_depth_limits(pairs):
    m, gen = pairs["bernoulli"]
    with pytest.raises(ResourceLimitError):
        refine(m, gen, 21)
    with pytest.raises(ResourceLimitError):
        refine(m, gen, 0)


def test_table_lookup_and_errors(tables10):
    t = tables10["example"]
    assert t.prob("0") == pytest.approx(t.probs(1)[0])
    assert t.prob("01") == pytest.approx(t.probs(2)[1])
    with pytest.raises(ConfigError):
        t.prob("")
    with pytest.raises(ConfigError):
        t.prob("012")
    with pytest.raises(ConfigError):
        t.prob("0" * 11)  # deeper than the table


def test_table_from_probs():
    t = SequenceTable.from_probs({1: np.array([1.0, 0.0]),
                                  2: np.array([1.0, 0.0, 0.0, 0.0])})
    assert t.prob("0") == 1.0 and t.prob("11") == 0.0
    assert t.bias() == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        t.interval_set("0")
    counts = [line.split(",")[1] for line in t.to_csv().splitlines()[1:]]
    assert counts == ["0"] * 6
    with pytest.raises(ConfigError):
        SequenceTable.from_probs({2: np.array([1.0, 0.0])})


def test_table_csv_layout(tables10):
    text = tables10["bernoulli"].to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "word,interval_count,probability"
    assert len(lines) == 1 + sum(2 ** n for n in range(1, 11))
    word, count, prob = lines[1].split(",")
    assert word == "0" and int(count) >= 1
    assert float(prob) == pytest.approx(0.5, abs=1e-12)
