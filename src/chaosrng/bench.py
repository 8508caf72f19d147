"""Benchmark: compiled C kernel vs pure-Python fallback.

Run with ``python -m chaosrng.bench [--count N]``. Reports throughput of the
bit-generation hot loop for a few representative maps on both backends and
checks that they emit identical streams.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from . import _pykernels
from .maps import builtin_pair

try:
    from . import _fastkernels
except ImportError:
    _fastkernels = None


def _run(impl, m, gen, count: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    x0 = rng.random() * 0.8 + 0.1
    noise = rng.uniform(-2.0 ** -40, 2.0 ** -40, count)
    out = np.empty(count, dtype=np.uint8)
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    start = time.perf_counter()
    impl.bits_from_trajectory(kinds, bounds, p0, p1, p2,
                              gen.threshold, x0, noise, out)
    return time.perf_counter() - start, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1_000_000,
                        help="bits per run (default 1e6)")
    args = parser.parse_args(argv)

    if _fastkernels is None:
        print("compiled kernel not available; showing pure-Python timings only")
    status = 0
    print(f"{'map':14s} {'python (Mbit/s)':>16s} {'compiled (Mbit/s)':>18s} {'speedup':>8s}")
    for name in ("bernoulli", "example", "zigzag"):
        m, gen = builtin_pair(name)
        t_py, bits_py = _run(_pykernels, m, gen, args.count)
        row = f"{name:14s} {args.count / t_py / 1e6:16.2f}"
        if _fastkernels is not None:
            t_c, bits_c = _run(_fastkernels, m, gen, args.count)
            match = ""
            if not np.array_equal(bits_py, bits_c):
                match, status = "  [MISMATCH]", 1
            row += f" {args.count / t_c / 1e6:18.2f} {t_py / t_c:8.1f}x{match}"
        print(row)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
