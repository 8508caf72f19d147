"""Build script: compiles the optional C trajectory kernel.

The package works without the extension: a pure-Python fallback with
bit-identical output is selected at import time, and ``optional=True`` lets
the build go on without it when no C compiler is available.
"""
from setuptools import Extension, setup

setup(ext_modules=[
    Extension(
        "chaosrng._fastkernels",
        ["src/chaosrng/_fastkernels.c"],
        # no FMA contraction: p0 * x + p1 must round as in the Python reference
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )
])
