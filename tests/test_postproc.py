import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrng.entropy import block_entropy, empirical_entropy, entropy_of
from chaosrng.errors import ConfigError
from chaosrng.maps import builtin_pair
from chaosrng.postproc import (BitStream, build_typical_coder, check_rate_bound,
                               coder_output_entropy, encode, generate_bits,
                               read_stream, von_neumann, vn_rate_exact,
                               write_stream)

from conftest import BUILTINS, step, table_from_probs


# ---------------------------------------------------------------------------
# stream generation

def test_generate_zero_bits(pairs, densities):
    s = generate_bits(*pairs["bernoulli"], densities["bernoulli"], 0, seed=0)
    assert len(s) == 0
    assert s.origin["map"] == "bernoulli"


def test_generate_records_provenance(streams1m):
    origin = streams1m["example"].origin
    assert origin["count"] == 1_000_000
    assert origin["seed"] == 2024
    assert origin["threshold"] == pytest.approx(1.0 / 3.0)
    assert origin["dither"] > 0


def test_generate_deterministic(pairs, densities):
    a = generate_bits(*pairs["zigzag"], densities["zigzag"], 5000, seed=77)
    b = generate_bits(*pairs["zigzag"], densities["zigzag"], 5000, seed=77)
    assert np.array_equal(a.bits, b.bits)


def test_generate_ones_fractions(streams1m):
    # stationary marginals: 1/2 for the unbiased maps, 0.86 for the example map
    assert streams1m["bernoulli"].bits.mean() == pytest.approx(0.5, abs=0.002)
    assert streams1m["example"].bits.mean() == pytest.approx(0.86, abs=0.002)


def test_generate_without_dither_follows_map_exactly(pairs, densities):
    m, gen = pairs["example"]
    s = generate_bits(m, gen, densities["example"], 12, seed=9, dither=0.0)
    rng = np.random.default_rng(9)
    x = densities["example"].sample(rng)
    expect = []
    for _ in range(12):
        expect.append(int(x >= gen.threshold))
        x = step(m, [x])[0]
    # kernels use libm log2, the numpy oracle numpy's; 12 steps stay in lockstep
    assert s.bits.tolist() == expect


# ---------------------------------------------------------------------------
# Von Neumann

def test_von_neumann_definitional_case():
    out, rate = von_neumann(BitStream(np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)))
    assert out.bits.tolist() == [0, 1]
    assert rate == 0.25


def test_von_neumann_odd_tail_ignored():
    out, rate = von_neumann(BitStream(np.array([0, 1, 1], dtype=np.uint8)))
    assert out.bits.tolist() == [0]
    assert rate == pytest.approx(1.0 / 3.0)


def test_von_neumann_empty():
    out, rate = von_neumann(BitStream(np.empty(0, dtype=np.uint8)))
    assert len(out) == 0 and rate == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
def test_von_neumann_matches_pair_loop(bits):
    out, rate = von_neumann(BitStream(np.array(bits, dtype=np.uint8)))
    expect = []
    for i in range(0, len(bits) - 1, 2):
        a, b = bits[i], bits[i + 1]
        if a != b:
            expect.append(0 if (a, b) == (0, 1) else 1)
    assert out.bits.tolist() == expect
    assert rate == (len(expect) / len(bits) if bits else 0.0)


def test_von_neumann_rate_fair_coin():
    bits = np.random.default_rng(3).integers(0, 2, 1_000_000).astype(np.uint8)
    _, rate = von_neumann(BitStream(bits))
    assert rate == pytest.approx(0.25, abs=0.002)


def test_von_neumann_example_stream(streams1m, tables10):
    out, rate = von_neumann(streams1m["example"])
    assert rate == pytest.approx(0.11, abs=0.01)
    assert rate == pytest.approx(vn_rate_exact(tables10["example"]), abs=0.005)


def test_von_neumann_output_unbiased_on_iid():
    rng = np.random.default_rng(8)
    for p in (0.5, 0.86):
        bits = (rng.random(1_000_000) < p).astype(np.uint8)
        out, _ = von_neumann(BitStream(bits))
        assert abs(out.bits.mean() - 0.5) <= 0.005, p


def test_vn_rate_exact_values(tables10):
    assert vn_rate_exact(tables10["bernoulli"]) == pytest.approx(0.25, abs=1e-12)
    p = tables10["example"].probs(2)
    assert p[0b01] == pytest.approx(0.11, abs=0.01)
    assert p[0b10] == pytest.approx(0.11, abs=0.01)
    assert vn_rate_exact(tables10["example"]) == pytest.approx(0.11, abs=0.01)


def test_vn_rate_exact_degenerate_source():
    t = table_from_probs({1: np.array([0.0, 1.0]),
                                  2: np.array([0.0, 0.0, 0.0, 1.0])})
    assert vn_rate_exact(t) == 0.0
    with pytest.raises(ConfigError):
        vn_rate_exact(table_from_probs({1: np.array([0.5, 0.5])}))


# ---------------------------------------------------------------------------
# typical-set coder

def test_typical_coder_bernoulli_all_words(tables10):
    c = build_typical_coder(tables10["bernoulli"], 8, 0.05)
    assert c.n_typical == 256 and c.k == 8 and c.rate == 1.0
    assert c.coverage == pytest.approx(1.0, abs=1e-12)
    # relabelling is a bijection on 8-bit words
    assert sorted(c.labels.tolist()) == list(range(256))


def test_typical_coder_example_frozen_shape(tables10):
    c = build_typical_coder(tables10["example"], 10, 0.1)
    assert c.n_typical == 10 and c.k == 4
    assert c.rate == pytest.approx(0.4)
    assert c.coverage == pytest.approx(0.2778, abs=0.01)
    assert c.h_per_symbol == pytest.approx(0.5738, abs=0.002)


def test_typical_coder_window_is_exact(tables10):
    # oracle: recompute the typicality window from the word probabilities
    t = tables10["example"]
    c = build_typical_coder(t, 10, 0.1)
    p = t.probs(10)
    lo = 2.0 ** (-10 * (c.h_per_symbol + 0.1))
    hi = 2.0 ** (-10 * (c.h_per_symbol - 0.1))
    assert np.array_equal(c.typical, (p >= lo) & (p <= hi))
    labels = c.labels[c.typical]
    assert sorted(labels.tolist()) == list(range(c.n_typical))


@pytest.mark.parametrize("name,n", [("tailed-tent", 8), ("dec-bernoulli", 10), ("example", 10)])
def test_typical_coder_labels_ignore_ulps(tables10, name, n):
    # words whose probabilities agree up to rounding keep their labels when
    # every probability moves by up to 4 ulps
    p = tables10[name].probs(n)
    ref = build_typical_coder(table_from_probs({n: p}), n, 0.1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = p + rng.integers(-4, 5, p.size) * np.spacing(p)
        c = build_typical_coder(table_from_probs({n: q}), n, 0.1)
        assert np.array_equal(c.typical, ref.typical), name
        assert np.array_equal(c.labels, ref.labels), name


def test_typical_coder_tie_groups_start_at_their_first_word():
    # a group runs while a probability stays within 1e-9 of the group's
    # first, not of its neighbour: 0.25(1 - 6e-10) joins 0.25;
    # 0.25(1 - 1.2e-9), within 1e-9 of that neighbour, starts a new group,
    # which 0.25(1 - 1.3e-9) joins
    p = np.array([0.25 * (1 - 1.2e-9), 0.25 * (1 - 6e-10), 0.25, 0.25 * (1 - 1.3e-9)])
    c = build_typical_coder(table_from_probs({2: p}), 2, 1.0)
    assert c.n_typical == 4
    assert c.labels.tolist() == [2, 0, 1, 3]


def test_typical_coder_rate_window(tables10):
    # k/n lies within [H - eps - 1/n, H + eps + 1/n] around the entropy rate
    from chaosrng.entropy import conditional_entropy
    t = tables10["example"]
    c = build_typical_coder(t, 10, 0.1)
    h = conditional_entropy(t, 10)
    assert h - 0.1 - 0.1 <= c.rate <= h + 0.1 + 0.1


def test_typical_coder_empty_raises(tables10):
    with pytest.raises(ConfigError, match="epsilon"):
        build_typical_coder(tables10["example"], 10, 1e-9)
    with pytest.raises(ConfigError):
        build_typical_coder(tables10["example"], 10, -0.1)


def test_typical_coder_degenerate_source():
    t = table_from_probs({1: np.array([1.0, 0.0]),
                                  2: np.array([1.0, 0.0, 0.0, 0.0])})
    c = build_typical_coder(t, 2, 0.2)
    assert c.n_typical == 1 and c.k == 0 and c.rate == 0.0
    out = encode(c, BitStream(np.zeros(20, dtype=np.uint8)))
    assert len(out) == 0


def test_typical_coder_coverage_by_map(tables10):
    # finite-n coverage: near-uniform word distributions reach the asymptotic
    # 1 - eps level at n = 10, strongly biased ones fall far short; the
    # measured values are frozen as regressions
    c = build_typical_coder(tables10["dec-bernoulli"], 10, 0.1)
    assert c.coverage >= 1.0 - 0.1
    assert build_typical_coder(tables10["example"], 10, 0.1).coverage == \
        pytest.approx(0.278, abs=0.02)
    assert build_typical_coder(tables10["tailed-tent"], 10, 0.1).coverage == \
        pytest.approx(0.535, abs=0.02)


def test_encode_blockwise_oracle(tables10):
    c = build_typical_coder(tables10["example"], 10, 0.1)
    bits = np.random.default_rng(2).integers(0, 2, 237).astype(np.uint8)
    out = encode(c, BitStream(bits))
    expect = []
    for i in range(0, 230, 10):
        word = int("".join(map(str, bits[i:i + 10])), 2)
        label = int(c.labels[word]) if c.typical[word] else 0
        expect.extend(int(ch) for ch in format(label, f"0{c.k}b"))
    assert out.bits.tolist() == expect


def test_encode_short_stream_empty(tables10):
    c = build_typical_coder(tables10["example"], 10, 0.1)
    assert len(encode(c, BitStream(np.ones(9, dtype=np.uint8)))) == 0


def test_data_processing_inequality(tables10):
    for name in BUILTINS:
        t = tables10[name]
        for n, eps in ((8, 0.05), (10, 0.1), (10, 0.2)):
            c = build_typical_coder(t, n, eps)
            assert coder_output_entropy(c, t) <= block_entropy(t, n) + 1e-9, name


def test_bernoulli_coder_output_entropy_exact(tables10):
    t = tables10["bernoulli"]
    c = build_typical_coder(t, 8, 0.05)
    assert coder_output_entropy(c, t) == pytest.approx(8.0, abs=1e-9)


def test_coder_output_entropy_matches_empirical_labels(streams1m, tables10):
    # end-to-end: label frequencies from an encoded stream reproduce H(T^k)
    t = tables10["example"]
    c = build_typical_coder(t, 10, 0.1)
    out = encode(c, streams1m["example"])
    labels = out.bits.reshape(-1, c.k) @ (1 << np.arange(c.k - 1, -1, -1))
    freq = np.bincount(labels, minlength=2 ** c.k) / labels.size
    assert entropy_of(freq) == pytest.approx(coder_output_entropy(c, t), abs=0.02)


def test_bernoulli_encode_preserves_statistics(streams1m, tables10):
    c = build_typical_coder(tables10["bernoulli"], 8, 0.05)
    out = encode(c, streams1m["bernoulli"])
    assert len(out) == (len(streams1m["bernoulli"]) // 8) * 8
    assert out.bits.mean() == pytest.approx(0.5, abs=0.002)
    assert empirical_entropy(out.bits, 8) == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# rate bound

def test_rate_bound_verdicts(tables10):
    t = tables10["example"]
    vn = check_rate_bound(t, 0.11)
    assert vn.passed and vn.verdict == "PASS"
    assert vn.entropy_rate == pytest.approx(0.57, abs=0.02)
    rate1 = check_rate_bound(t, 1.0)
    assert not rate1.passed and rate1.verdict == "FAIL"
    assert rate1.margin < 0
    bern = check_rate_bound(tables10["bernoulli"], 1.0)
    assert bern.passed and abs(bern.margin) <= 1e-6


# ---------------------------------------------------------------------------
# stream files

def test_stream_roundtrip_binary(tmp_path):
    bits = np.random.default_rng(0).integers(0, 2, 1003).astype(np.uint8)
    path = tmp_path / "s.bin"
    write_stream(path, BitStream(bits))
    again = read_stream(path)
    assert np.array_equal(again.bits, bits)
    raw = path.read_bytes()
    assert int.from_bytes(raw[:8], "little") == 1003
    assert len(raw) == 8 + (1003 + 7) // 8


def test_stream_roundtrip_text(tmp_path):
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    path = tmp_path / "s.txt"
    write_stream(path, BitStream(bits))
    assert path.read_text() == "10110\n"
    assert np.array_equal(read_stream(path).bits, bits)


def test_stream_read_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("01x01")
    with pytest.raises(ConfigError):
        read_stream(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x02")
    with pytest.raises(ConfigError):
        read_stream(short)
    lying = tmp_path / "lying.bin"
    lying.write_bytes((1000).to_bytes(8, "little") + b"\xff")
    with pytest.raises(ConfigError):
        read_stream(lying)
