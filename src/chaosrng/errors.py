"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (see cli.py): configuration
problems exit 2, numerical failures exit 3, insufficient data exits 4.
"""


class ChaosRngError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ChaosRngError, ValueError):
    """Input outside a map's domain, or exactly on a breakpoint."""


class ConfigError(ChaosRngError, ValueError):
    """Invalid configuration: unknown map name, parameter out of range, bad file."""


class MapValidationError(ConfigError):
    """A map definition violates structural invariants (cover, monotonicity)."""


class ResourceLimitError(ChaosRngError, RuntimeError):
    """A request would exceed a configured resource cap (depth, interval count)."""


class NonConvergenceError(ChaosRngError, RuntimeError):
    """Iterative solver failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InsufficientDataError(ChaosRngError, ValueError):
    """A statistic was requested on a stream shorter than required."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class PerturbationError(ConfigError):
    """Invalid jitter spec, or a perturbed map that failed re-validation
    (mc_profile marks such a trial failed, not fatal)."""


class MonteCarloError(ChaosRngError, RuntimeError):
    """Too many Monte Carlo trials failed; the profile would be biased."""
