import numpy as np
import pytest

from chaosrng import (builtin_pair, generate_bits, refine, steady_state_for,
                      uniform_certificate)

BUILTINS = ("bernoulli", "tent", "example", "dec-bernoulli", "tailed-tent", "zigzag")

#: maps whose invariant density is certified uniform
CERTIFIED = ("bernoulli", "tent", "tailed-tent", "zigzag")

#: log2 of a negative argument on the whole left branch: every value is NaN
NANLOG = {"label": "nanlog", "branches": [
    {"kind": "log2-affine", "domain": [0, 0.5], "scale": 1, "shift": -2, "offset": 0},
    {"kind": "affine", "domain": [0.5, 1.0], "slope": 2, "intercept": -1}]}


@pytest.fixture(scope="session")
def pairs():
    return {name: builtin_pair(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def densities(pairs):
    return {name: steady_state_for(m) for name, (m, _) in pairs.items()}


@pytest.fixture(scope="session")
def tables10(pairs, densities):
    out = {}
    for name, (m, gen) in pairs.items():
        dens = None if uniform_certificate(m) else densities[name]
        out[name] = refine(m, gen, 10, density=dens)
    return out


@pytest.fixture(scope="session")
def streams1m(pairs, densities):
    """One million seeded bits per builtin map."""
    return {name: generate_bits(m, gen, densities[name], 1_000_000, seed=2024)
            for name, (m, gen) in pairs.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
