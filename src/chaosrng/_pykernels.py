"""Pure-Python kernels: the fallback backend.

This is the reference spec: the C extension _fastkernels.c mirrors it
statement for statement so that both backends produce bit-identical streams
and matrix-vector products for the same inputs. Keep the arithmetic in sync
when editing either file.
"""
import math

import numpy as np

NUDGE = 1e-12
EDGE = 1e-15


def _advance(x, kinds, bounds, p0, p1, p2, nb, eta):
    # nudge off breakpoints, locate branch, apply formula, add noise, clip
    for k in range(nb + 1):
        d = x - bounds[k]
        if -NUDGE < d < NUDGE:
            x = bounds[k] + NUDGE if bounds[k] + NUDGE < 1.0 else bounds[k] - NUDGE
            break
    j = nb - 1
    for k in range(nb - 1):
        if x < bounds[k + 1]:
            j = k
            break
    if kinds[j] == 0:
        y = p0[j] * x + p1[j]
    else:
        y = math.log2(p0[j] * x + p1[j]) - p2[j]
    y = y + eta
    if y < EDGE:
        y = EDGE
    elif y > 1.0 - EDGE:
        y = 1.0 - EDGE
    return y


def bits_from_trajectory(kinds, bounds, p0, p1, p2, threshold, x0, noise, out):
    """Fill ``out`` with threshold bits along the trajectory; return final state.

    out[i] = (x_i >= threshold) with x_0 = x0 and x_{i+1} = clip(M(x_i) + noise[i]).
    """
    if len(noise) < len(out):
        raise ValueError("noise is shorter than out")
    kinds = kinds.tolist()
    bounds = bounds.tolist()
    p0 = p0.tolist()
    p1 = p1.tolist()
    p2 = p2.tolist()
    nb = len(kinds)
    x = x0
    n = len(out)
    for i in range(n):
        out[i] = 1 if x >= threshold else 0
        x = _advance(x, kinds, bounds, p0, p1, p2, nb, noise[i])
    return x


def trajectory(kinds, bounds, p0, p1, p2, x0, noise, out):
    """Fill ``out`` with x_1..x_n; return the final state (== out[-1])."""
    if len(noise) < len(out):
        raise ValueError("noise is shorter than out")
    kinds = kinds.tolist()
    bounds = bounds.tolist()
    p0 = p0.tolist()
    p1 = p1.tolist()
    p2 = p2.tolist()
    nb = len(kinds)
    x = x0
    n = len(out)
    for i in range(n):
        x = _advance(x, kinds, bounds, p0, p1, p2, nb, noise[i])
        out[i] = x
    return x


def csr_matvec(indptr, indices, data, x, out):
    """Fill ``out`` with A @ x for the square CSR matrix A, each row summed in
    stored order."""
    n = len(out)
    if len(indptr) != n + 1 or len(x) != n:
        raise ValueError("indptr, x and out must have n + 1, n and n entries")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # bincount adds its weights in input order, starting from 0.0 as the C loop does
    out[:] = np.bincount(rows, data * x[indices], minlength=n)
