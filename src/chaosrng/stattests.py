"""Lightweight randomness test battery: frequency, runs, serial, approximate entropy.

Standard frequency/runs/serial/ApEn statistics with erfc or upper-incomplete
gamma p-values, alpha defaulting to 0.01. The gamma shape is always an
integer, so Q(a, x) is a finite sum (see ``gamma_q``). The four tests
separate bias (monobit) from short-range correlation (runs, serial, ApEn);
they are a deliberately small battery, not a full certification suite.
Streams must carry at least 20,000 bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .entropy import word_counts

MIN_BITS = 20_000
DEFAULT_ALPHA = 0.01


@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    p_value: float
    passed: bool
    alpha: float = DEFAULT_ALPHA

    def to_dict(self) -> dict:
        return {"test": self.test_name, "statistic": self.statistic,
                "p_value": self.p_value, "pass": self.passed, "alpha": self.alpha}


def gamma_q(a: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a positive integer a.

    Q(a, x) = e^-x * sum_{k<a} x^k / k!; the terms are formed and summed in
    log space, so neither e^-x nor x^k over- or underflows on its own.
    """
    if not x > 0.0:
        return 1.0 if x == 0.0 else math.nan
    logs = [k * math.log(x) - math.lgamma(k + 1.0) - x for k in range(a)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(t - top) for t in logs)


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(getattr(bits, "bits", bits), dtype=np.uint8)
    if arr.size < MIN_BITS:
        raise InsufficientDataError(
            f"tests need at least {MIN_BITS} bits, got {arr.size}", required=MIN_BITS)
    return arr


def _result(name: str, statistic: float, p: float, alpha: float) -> TestResult:
    p = float(min(max(p, 0.0), 1.0))
    return TestResult(name, float(statistic), p, bool(p >= alpha), alpha)


def monobit(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Frequency test: partial sum of +-1 against the normal null."""
    b = _as_bits(bits)
    s = float(np.abs(2.0 * b.sum() - b.size)) / math.sqrt(b.size)
    return _result("monobit", s, math.erfc(s / math.sqrt(2.0)), alpha)


def runs(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Runs test; degenerates to p = 0 when the frequency precondition fails."""
    b = _as_bits(bits)
    n = b.size
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return _result("runs", math.nan, 0.0, alpha)
    v = 1 + int(np.count_nonzero(np.diff(b)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return _result("runs", float(v), math.erfc(num / den), alpha)


def _psi_sq(b: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    ext = np.concatenate([b, b[:m - 1]]) if m > 1 else b
    counts = word_counts(ext, m)[:2 ** m] if m > 1 else np.bincount(b, minlength=2)
    counts = counts.astype(float)
    return float((2.0 ** m) / b.size * (counts @ counts) - b.size)


def serial(bits, m: int = 2, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Serial test on overlapping circular m-grams (first difference statistic)."""
    b = _as_bits(bits)
    if m < 2:
        raise ConfigError("serial test needs block length m >= 2")
    if 2 ** (m + 1) > b.size:
        raise InsufficientDataError(f"serial m={m} too large for {b.size} bits",
                                    required=2 ** (m + 1))
    delta = _psi_sq(b, m) - _psi_sq(b, m - 1)
    return _result("serial", delta, gamma_q(2 ** (m - 2), delta / 2.0), alpha)


def approx_entropy_test(bits, m: int = 2, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Approximate-entropy test comparing circular m- and (m+1)-gram statistics."""
    b = _as_bits(bits)
    if m < 1:
        raise ConfigError("approximate entropy needs m >= 1")
    if 2 ** (m + 2) > b.size:
        raise InsufficientDataError(f"approx entropy m={m} too large for {b.size} bits",
                                    required=2 ** (m + 2))

    def phi(mm: int) -> float:
        ext = np.concatenate([b, b[:mm - 1]]) if mm > 1 else b
        counts = word_counts(ext, mm)[:2 ** mm] if mm > 1 else np.bincount(b, minlength=2)
        c = counts[counts > 0] / b.size
        return float((c * np.log(c)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * b.size * (math.log(2.0) - apen)
    return _result("approx-entropy", chi2, gamma_q(2 ** (m - 1), chi2 / 2.0), alpha)


ALL_TESTS = ("monobit", "runs", "serial", "approx-entropy")


def battery(bits, tests=ALL_TESTS, alpha: float = DEFAULT_ALPHA, m: int = 2):
    """Run the named tests and return their TestResults in order."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    out = []
    for name in tests:
        if name == "monobit":
            out.append(monobit(bits, alpha))
        elif name == "runs":
            out.append(runs(bits, alpha))
        elif name == "serial":
            out.append(serial(bits, m, alpha))
        elif name == "approx-entropy":
            out.append(approx_entropy_test(bits, m, alpha))
        else:
            raise ConfigError(f"unknown test {name!r}; known: {', '.join(ALL_TESTS)}")
    return out
