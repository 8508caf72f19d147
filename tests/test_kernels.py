"""Backend equivalence: the compiled kernels and the pure-Python fallback
must emit bit-identical streams, since both defer to libm for the math.

Tests that compare the two backends take the ``fastkernels`` fixture and skip
when the C extension is not built; the rest run on whichever backend is active."""
import os
import subprocess
import sys

import numpy as np
import pytest

from chaosrng import _pykernels
from chaosrng import kernels
from chaosrng.maps import builtin_pair

from conftest import BUILTINS, step, to_scipy


@pytest.fixture
def fastkernels():
    return pytest.importorskip("chaosrng._fastkernels",
                               reason="compiled extension not built")


def _run(impl, name, count, dither, seed=3):
    m, gen = builtin_pair(name)
    rng = np.random.default_rng(seed)
    x0 = rng.random() * 0.98 + 0.01
    noise = rng.uniform(-dither, dither, count) if dither else np.zeros(count)
    out = np.empty(count, dtype=np.uint8)
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    final = impl.bits_from_trajectory(kinds, bounds, p0, p1, p2,
                                      gen.threshold, x0, noise, out)
    return out, final


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("dither", [0.0, 2.0 ** -40])
def test_backends_bit_identical(name, dither, fastkernels):
    bits_py, final_py = _run(_pykernels, name, 100_000, dither)
    bits_c, final_c = _run(fastkernels, name, 100_000, dither)
    assert np.array_equal(bits_py, bits_c)
    assert final_py == final_c


@pytest.mark.parametrize("name", BUILTINS)
def test_trajectory_backends_identical(name, fastkernels):
    m, _ = builtin_pair(name)
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    noise = np.zeros(5000)
    out_py = np.empty(5000)
    out_c = np.empty(5000)
    _pykernels.trajectory(kinds, bounds, p0, p1, p2, 0.37, noise, out_py)
    fastkernels.trajectory(kinds, bounds, p0, p1, p2, 0.37, noise, out_c)
    assert np.array_equal(out_py, out_c)


def _kernel_and_oracle(name, steps):
    """Noiseless orbits of the active kernel and of the numpy oracle ``step``,
    (starting points, steps), from starting points that include values within
    1e-12 of every breakpoint and, on bernoulli, 0.25, whose orbit hits 0.5."""
    m, _ = builtin_pair(name)
    x0 = np.concatenate([[0.371, 0.25, 0.125], m.breakpoints[1:-1], [5e-13, 1.0 - 5e-13],
                         m.breakpoints[1:-1] - 5e-13, m.breakpoints[1:-1] + 5e-13])
    ours = np.empty((x0.size, steps))
    for row, x in zip(ours, x0):
        kernels.trajectory(*m.kernel_spec(), x, np.zeros(steps), row)
    theirs = np.empty_like(ours)
    x = x0
    for k in range(steps):
        x = theirs[:, k] = step(m, x)
    return ours, theirs


def test_trajectory_matches_numpy_oracle_affine():
    # affine steps are the same IEEE operations in C, Python and numpy
    for name in ("bernoulli", "tent", "dec-bernoulli", "tailed-tent", "zigzag"):
        ours, theirs = _kernel_and_oracle(name, 40)
        assert np.array_equal(ours, theirs), name
        if name == "bernoulli":
            assert ours[1, 0] == 0.5  # the orbit of 0.25 lands on the breakpoint


def test_trajectory_matches_numpy_oracle_log_short():
    # libm log2 against numpy's: they may differ in the last bit, which the
    # map stretches, so compare the 12 steps generate_bits is checked over
    ours, theirs = _kernel_and_oracle("example", 12)
    assert np.max(np.abs(ours - theirs)) <= 1e-9


def _bad_arguments(case):
    m, gen = builtin_pair("zigzag")
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    noise = np.zeros(100)
    out = np.empty(100, dtype=np.uint8)
    if case == "short-noise":
        noise = noise[:99]
    elif case == "int64-kinds":
        kinds = kinds.astype(np.int64)
    elif case == "strided-out":
        out = np.empty(200, dtype=np.uint8)[::2]
    elif case == "short-bounds":
        bounds = bounds[:-1]
    return kinds, bounds, p0, p1, p2, gen.threshold, 0.3, noise, out


@pytest.mark.parametrize("case", ["short-noise", "int64-kinds", "strided-out",
                                  "short-bounds"])
def test_compiled_kernel_rejects_bad_arguments(case, fastkernels):
    # the extension reads raw buffers, so it must refuse what it cannot index
    with pytest.raises((TypeError, ValueError)):
        fastkernels.bits_from_trajectory(*_bad_arguments(case))


def test_pure_python_kernel_rejects_short_noise():
    kinds, bounds, p0, p1, p2, threshold, x0, noise, out = _bad_arguments("short-noise")
    with pytest.raises(ValueError, match="noise is shorter than out"):
        _pykernels.bits_from_trajectory(kinds, bounds, p0, p1, p2, threshold, x0,
                                        noise, out)
    with pytest.raises(ValueError, match="noise is shorter than out"):
        _pykernels.trajectory(kinds, bounds, p0, p1, p2, x0, noise, np.empty(100))


def _matvec(impl, op, x):
    out = np.empty(op.n_bins)
    impl.csr_matvec(*op.matrix, x, out)
    return out


def test_csr_matvec_matches_scipy(operator_cases):
    # scipy adds each row in stored order; to_scipy stores it by descending column
    for m, op in operator_cases:
        x = np.random.default_rng(op.n_bins).random(op.n_bins)
        expected = to_scipy(op) @ x
        assert np.array_equal(_matvec(kernels, op, x), expected), m.label
        assert np.array_equal(_matvec(_pykernels, op, x), expected), m.label


def test_csr_matvec_backends_identical(operator_cases, fastkernels):
    for m, op in operator_cases:
        x = np.random.default_rng(op.n_bins + 1).random(op.n_bins)
        assert np.array_equal(_matvec(fastkernels, op, x), _matvec(_pykernels, op, x)), m.label


def _bad_matvec_arguments(case):
    # 3x3: row 0 = (0, 1), row 1 = (2,), row 2 = ()
    indptr = np.array([0, 2, 3, 3], dtype=np.int32)
    indices = np.array([0, 1, 2], dtype=np.int32)
    data = np.array([0.5, 0.25, 1.0])
    x = np.ones(3)
    out = np.empty(3)
    if case == "index-out-of-range":
        indices[2] = 3
    elif case == "negative-index":
        indices[1] = -1
    elif case == "short-x":
        x = np.ones(2)
    elif case == "int64-indices":
        indices = indices.astype(np.int64)
    elif case == "float32-data":
        data = data.astype(np.float32)
    elif case == "decreasing-indptr":
        indptr[2] = 1
    elif case == "indptr-past-data":
        indptr[2:] = 4
    elif case == "short-indptr":
        indptr = indptr[:-1]
    return indptr, indices, data, x, out


@pytest.mark.parametrize("case", ["index-out-of-range", "negative-index", "short-x",
                                  "int64-indices", "float32-data", "decreasing-indptr",
                                  "indptr-past-data", "short-indptr"])
def test_compiled_csr_matvec_rejects_bad_arguments(case, fastkernels):
    with pytest.raises((TypeError, ValueError)):
        fastkernels.csr_matvec(*_bad_matvec_arguments(case))


def test_csr_matvec_small_matrix():
    indptr, indices, data, x, out = _bad_matvec_arguments(None)
    kernels.csr_matvec(indptr, indices, data, x, out)
    assert out.tolist() == [0.75, 1.0, 0.0]


@pytest.mark.parametrize("case", ["index-out-of-range", "short-x", "decreasing-indptr",
                                  "indptr-past-data", "short-indptr"])
def test_pure_python_csr_matvec_rejects_bad_arguments(case):
    with pytest.raises((IndexError, ValueError)):
        _pykernels.csr_matvec(*_bad_matvec_arguments(case))


def test_final_state_chains_runs():
    m, gen = builtin_pair("zigzag")
    kinds, bounds, p0, p1, p2 = m.kernel_spec()
    noise = np.random.default_rng(0).uniform(-1e-12, 1e-12, 2000)
    whole = np.empty(2000, dtype=np.uint8)
    kernels.bits_from_trajectory(kinds, bounds, p0, p1, p2, 0.5, 0.3, noise, whole)
    first = np.empty(1000, dtype=np.uint8)
    second = np.empty(1000, dtype=np.uint8)
    mid = kernels.bits_from_trajectory(kinds, bounds, p0, p1, p2, 0.5, 0.3,
                                       noise[:1000], first)
    kernels.bits_from_trajectory(kinds, bounds, p0, p1, p2, 0.5, mid,
                                 noise[1000:], second)
    assert np.array_equal(whole, np.concatenate([first, second]))


def test_pure_python_env_forces_fallback():
    code = ("import chaosrng.kernels as k; print(k.BACKEND)")
    env = dict(os.environ, CHAOSRNG_PURE_PYTHON="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "python"
