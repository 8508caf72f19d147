from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrng.density import uniform_density
from chaosrng.errors import ConfigError, ResourceLimitError
from chaosrng.maps import BitGen, builtin_pair
from chaosrng.symbolic import MIN_INTERVAL, refine

from conftest import (BUILTINS, CERTIFIED, kolmogorov_defect, table_from_probs,
                      word_frequencies)


def preimage(m, lefts, rights):
    """(lefts, rights) of the preimage of the intervals (lefts_i, rights_i),
    sorted by left endpoint."""
    lefts, rights = np.asarray(lefts, float), np.asarray(rights, float)
    xa, xb = [], []
    for br, row_a, row_b in zip(m.branches, m.pullback(lefts), m.pullback(rights)):
        lo, hi = br.image
        # the pieces of each interval that the branch's image meets
        keep = np.minimum(rights, hi) - np.maximum(lefts, lo) > 0
        if not keep.any():
            continue
        # clipping to the image first changes nothing: the pullback snaps
        # values beyond it to the domain end
        a, b = row_a[keep], row_b[keep]
        xa.append(a if br.increasing else b)
        xb.append(b if br.increasing else a)
    xa = np.concatenate(xa + [np.empty(0)])
    xb = np.concatenate(xb + [np.empty(0)])
    order = np.argsort(xa, kind="stable")
    return xa[order], xb[order]


def length(s) -> float:
    lefts, rights = s
    return float((rights - lefts).sum())


def cylinder_levels(m, gen, n):
    """Backward oracle: per level, the (lefts, rights) intervals of every
    word, by index, sorted by left endpoint.

    S(z_1..z_n) = S_1(z_1) intersected with M^{-1}(S(z_2..z_n)), one word at a
    time; slivers below MIN_INTERVAL drop.
    """
    t = gen.threshold
    z = ((0.0, t), (t, 1.0))
    sets = [(np.array([lo]), np.array([hi])) for lo, hi in z]
    yield sets
    for level in range(2, n + 1):
        nxt = [None] * 2 ** level
        for v, s in enumerate(sets):
            xa, xb = preimage(m, *s)
            for z1, (lo, hi) in enumerate(z):
                a, b = np.maximum(xa, lo), np.minimum(xb, hi)
                keep = b - a > MIN_INTERVAL
                nxt[(z1 << (level - 1)) + v] = (a[keep], b[keep])
        sets = nxt
        yield sets


def exact_forward_probs(m, gen, n):
    """Exact rational word probabilities under Lebesgue measure, per level.

    Forward states (word, image, rho) of a piecewise-affine map, in Fractions
    of the float parameters, so the only rounding is the final float().
    """
    t = Fraction(gen.threshold)
    brs = [(Fraction(br.a), Fraction(br.b), Fraction(br.p0), Fraction(br.p1))
           for br in m.branches]
    states = {(0, Fraction(0), t): Fraction(1), (1, t, Fraction(1)): Fraction(1)}
    for level in range(1, n + 1):
        if level > 1:
            nxt = {}
            for (w, lo, hi), rho in states.items():
                for a, b, slope, icpt in brs:
                    xa, xb = max(lo, a), min(hi, b)
                    if xb <= xa:
                        continue
                    ya, yb = sorted((slope * xa + icpt, slope * xb + icpt))
                    ya, yb = max(ya, Fraction(0)), min(yb, Fraction(1))
                    for bit, (l, h) in enumerate(((ya, min(yb, t)), (max(ya, t), yb))):
                        if h > l:
                            key = (2 * w + bit, l, h)
                            nxt[key] = nxt.get(key, 0) + rho / abs(slope)
            states = nxt
        p = [Fraction(0)] * 2 ** level
        for (w, lo, hi), rho in states.items():
            p[w] += rho * (hi - lo)
        yield np.array([float(x) for x in p])


# ---------------------------------------------------------------------------
# level 1 and preimages

def test_s1_example_thresholds(pairs):
    # the level-1 sets are (0, t) and (t, 1), so a certified map gives their lengths
    m = pairs["bernoulli"][0]
    for t in (1.0 / 3.0, 0.5):
        table = refine(m, BitGen(t), 1)
        assert table.probs(1).tolist() == [t, 1.0 - t]
        assert table.interval_count(1) == 2


def test_preimage_set_bernoulli_lower_half(pairs):
    xa, xb = preimage(pairs["bernoulli"][0], [0.0], [0.5])
    assert list(zip(xa, xb)) == pytest.approx([(0.0, 0.25), (0.5, 0.75)])


def test_preimage_set_tent_lower_half(pairs):
    xa, xb = preimage(pairs["tent"][0], [0.0], [0.5])
    assert list(zip(xa, xb)) == pytest.approx([(0.0, 0.25), (0.75, 1.0)])


def test_preimage_set_full_interval(pairs):
    for name in BUILTINS:
        pre = preimage(pairs[name][0], [0.0], [1.0])
        assert length(pre) == pytest.approx(1.0, abs=1e-12), name


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
    s = tuple(np.array(side) for side in zip(*ivals))
    for name in CERTIFIED:
        m, _ = builtin_pair(name)
        assert length(preimage(m, *s)) == pytest.approx(length(s), abs=1e-12), name


# ---------------------------------------------------------------------------
# refinement

def test_refine_bernoulli_depth2_exact(pairs, tables10):
    m, gen = pairs["bernoulli"]
    sets = list(cylinder_levels(m, gen, 2))[1]
    for c, expected in zip(sets, ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))):
        assert list(zip(*c)) == pytest.approx([expected])
    t = tables10["bernoulli"]
    assert t.probs(2) == pytest.approx([0.25] * 4, abs=1e-15)
    assert list(t.probs(2)) == [length(c) for c in sets]


def test_refine_example_first_bit(tables10):
    t = tables10["example"]
    p = t.probs(1)
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-9)
    assert p[0] == pytest.approx(0.14, abs=0.01)
    assert t.bias() == pytest.approx(0.36, abs=0.01)


def test_refine_base_case_matches_s1(pairs, densities):
    for name in BUILTINS:
        m, gen = pairs[name]
        t = refine(m, gen, 1, density=densities[name])
        p0 = densities[name].integrate_pairs(np.array([0.0]), np.array([gen.threshold]))
        assert t.probs(1)[0] == pytest.approx(p0.sum(), abs=1e-12)


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
        assert kolmogorov_defect(t) <= 1e-9, name


def _csv_counts(table):
    rows = [line.split(",") for line in table.to_csv().splitlines()[1:]]
    return {word: int(count) for word, count, _ in rows}


def test_word_table_contract_on_fragmenting_map(pairs):
    # tailed-tent splits words into many intervals; certified uniform, so each
    # probability is the total length of the word's oracle interval set
    m, gen = pairs["tailed-tent"]
    t = refine(m, gen, 8)
    counts = _csv_counts(t)
    for n, sets in enumerate(cylinder_levels(m, gen, 8), start=1):
        total = 0
        for idx, (lefts, rights) in enumerate(sets):
            word = format(idx, f"0{n}b")
            assert np.all(lefts[1:] >= lefts[:-1]), word
            assert np.all(rights[:-1] <= lefts[1:]), word
            p = t.probs(n)[idx]
            assert abs(length((lefts, rights)) - p) <= 1e-15, word
            assert (counts[word] > 0) == (p > 0) == (lefts.size > 0), word
            total += counts[word]
        assert total == t.interval_count(n), n
    assert max(counts.values()) > 1


def test_backward_counts_are_oracle_intervals(pairs, densities):
    # a solved (not exactly flat) density keeps the backward path, whose
    # per-word count is the size of the word's cylinder interval set
    m, gen = pairs["tailed-tent"]
    assert not (densities["tailed-tent"].values == 1.0).all()
    t = refine(m, gen, 8, density=densities["tailed-tent"])
    counts = _csv_counts(t)
    for n, sets in enumerate(cylinder_levels(m, gen, 8), start=1):
        for idx, (lefts, _) in enumerate(sets):
            assert lefts.size == counts[format(idx, f"0{n}b")]
        assert sum(lefts.size for lefts, _ in sets) == t.interval_count(n)
        assert t.partition_length(n) == pytest.approx(sum(map(length, sets)), abs=1e-15)


def test_forward_refine_matches_backward_oracle(pairs):
    # the oracle drops slivers; at depth 12 it loses 2.3e-11 of mass
    m, gen = pairs["tailed-tent"]
    t = refine(m, gen, 12)
    levels = list(cylinder_levels(m, gen, 12))
    loss = 1.0 - sum(map(length, levels[-1]))
    assert 0.0 < loss < 1e-10
    for n, sets in enumerate(levels, start=1):
        lengths = np.array([length(s) for s in sets])
        assert np.max(np.abs(t.probs(n) - lengths)) <= loss + 1e-15, n
        assert np.array_equal(t.probs(n) > 0, lengths > 0), n


def test_forward_refine_matches_exact_rationals(pairs):
    for m, gen in (pairs["tailed-tent"], builtin_pair("tailed-tent", tail=0.95)):
        t = refine(m, gen, 14)
        for n, exact in enumerate(exact_forward_probs(m, gen, 14), start=1):
            assert np.max(np.abs(t.probs(n) - exact)) <= 1e-15, (m.params, n)


def test_forward_refine_tailed_tent_depth20(pairs):
    m, gen = pairs["tailed-tent"]
    t = refine(m, gen, 20)
    assert kolmogorov_defect(t) <= 1e-12
    for n in range(1, 21):
        assert abs(t.partition_length(n) - 1.0) <= 1e-12, n
        assert abs(t.probs(n).sum() - 1.0) <= 1e-12, n
    # states follow the positive-probability words, not 3^n
    assert t.interval_count(20) <= 2 * np.count_nonzero(t.probs(20))


def test_forward_refine_slope2_maps_exact():
    for name in ("bernoulli", "tent", "zigzag"):
        m, gen = builtin_pair(name)
        t = refine(m, gen, 14)
        for n in range(1, 15):
            assert np.all(t.probs(n) == 2.0 ** -n), (name, n)
            assert t.interval_count(n) == 2 ** n, (name, n)
            assert t.partition_length(n) == 1.0, (name, n)


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
    # each level is indexed with z_1 as the most significant bit
    assert t.probs(2)[0b01] == pytest.approx(t.probs(3)[0b010] + t.probs(3)[0b011])
    for n in (0, 11):  # outside the table's lengths 1..10
        for lookup in (t.probs, t.interval_count, t.partition_length):
            with pytest.raises(ConfigError):
                lookup(n)


def test_table_from_probs():
    t = table_from_probs({1: np.array([1.0, 0.0]),
                          2: np.array([1.0, 0.0, 0.0, 0.0])})
    assert t.bias() == pytest.approx(0.5)
    assert t.interval_count(2) == 0 and t.partition_length(2) == 0.0
    counts = [line.split(",")[1] for line in t.to_csv().splitlines()[1:]]
    assert counts == ["0"] * 6


def test_table_csv_matches_row_by_row_formatting(pairs, densities):
    tables = [refine(*pairs["tailed-tent"], 12),
              refine(*pairs["dec-bernoulli"], 8, density=densities["dec-bernoulli"]),
              table_from_probs({1: np.array([1.0, -0.0]),
                                2: np.array([0.5, 0.0, 0.5, 0.0])})]
    for t in tables:
        lines = ["word,interval_count,probability"]
        for n in range(1, t.depth + 1):
            lv = t.levels[n]
            lines += [f"{idx:0{n}b},{lv.counts[idx]},{lv.probs[idx]:.12g}"
                      for idx in range(2 ** n)]
        assert t.to_csv() == "\n".join(lines) + "\n", t.map_label


def test_table_csv_layout(tables10):
    text = tables10["bernoulli"].to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "word,interval_count,probability"
    assert len(lines) == 1 + sum(2 ** n for n in range(1, 11))
    word, count, prob = lines[1].split(",")
    assert word == "0" and int(count) >= 1
    assert float(prob) == pytest.approx(0.5, abs=1e-12)
