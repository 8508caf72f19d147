"""chaosrng: analysis toolkit for chaotic-map random bit generators.

Submodules follow the pipeline: ``maps`` (piecewise interval maps),
``density`` (transfer operator and invariant densities), ``symbolic`` (exact word
probabilities), ``entropy`` (entropy rates), ``postproc`` (bit streams and
extractors), ``montecarlo`` (robustness profiles), ``stattests`` (randomness
battery), ``cli`` (command line). ``kernels.BACKEND`` reports whether the
compiled extension or the pure-Python fallback is active.
"""

__version__ = "0.1.0"

from .density import (DensityGrid, TransferOperator, invariant_density,
                      steady_state, steady_state_for, ulam_matrix,
                      uniform_density)
from .entropy import (EntropyReport, block_entropy, conditional_entropy,
                      empirical_entropy, entropy_rate)
from .maps import (BitGen, Branch, PiecewiseMap, builtin, builtin_pair,
                   default_bitgen, from_json, tailed_tent_parameter,
                   uniform_certificate, validate_map)
from .montecarlo import MCProfile, PerturbationSpec, mc_profile, perturb
from .postproc import (BitStream, TypicalSetCoder, build_typical_coder,
                       check_rate_bound, coder_output_entropy, encode,
                       generate_bits, read_stream, von_neumann, vn_rate_exact,
                       write_stream)
from .stattests import (TestResult, approx_entropy_test, battery, monobit,
                        runs, serial)
from .symbolic import SequenceTable, refine

__all__ = [
    "__version__",
    "BitGen", "Branch", "PiecewiseMap", "builtin", "builtin_pair",
    "default_bitgen", "from_json", "tailed_tent_parameter",
    "uniform_certificate", "validate_map",
    "DensityGrid", "TransferOperator", "invariant_density",
    "steady_state", "steady_state_for", "ulam_matrix", "uniform_density",
    "SequenceTable", "refine",
    "EntropyReport", "block_entropy", "conditional_entropy",
    "empirical_entropy", "entropy_rate",
    "BitStream", "TypicalSetCoder", "build_typical_coder", "check_rate_bound",
    "coder_output_entropy", "encode", "generate_bits", "read_stream",
    "von_neumann", "vn_rate_exact", "write_stream",
    "MCProfile", "PerturbationSpec", "mc_profile", "perturb",
    "TestResult", "approx_entropy_test", "battery", "monobit", "runs", "serial",
]
