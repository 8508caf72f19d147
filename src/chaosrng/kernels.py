"""Kernel backend selection: the C extension if built, else pure Python.

``_fastkernels.c`` is built by ``python setup.py build_ext --inplace`` (or
``pip install``); ``_pykernels.py`` is the reference it mirrors bit for bit.

Set CHAOSRNG_PURE_PYTHON=1 to force the fallback (used by
``tests/test_kernels.py`` and by the pure-Python CI leg).
``BACKEND`` names the active implementation.
"""
import os

if os.environ.get("CHAOSRNG_PURE_PYTHON") == "1":
    from . import _pykernels as _impl

    BACKEND = "python"
else:
    try:
        from . import _fastkernels as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _pykernels as _impl

        BACKEND = "python"

bits_from_trajectory = _impl.bits_from_trajectory
trajectory = _impl.trajectory
csr_matvec = _impl.csr_matvec
