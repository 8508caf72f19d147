"""Monte Carlo robustness analysis: parametric map jitter and entropy profiles.

Each trial draws Gaussian jitter on branch slopes (multiplicative), branch
intercepts (additive), and interior breakpoints (additive, with branch
domains re-derived), then recomputes the steady state and the entropy rate.
Trials are deterministic given (seed, trial index) and independent, so the
loop parallelizes trivially if ever needed.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .density import invariant_density
from .entropy import entropy_rate
from .errors import (MapValidationError, MonteCarloError, NonConvergenceError,
                     PerturbationError)
from .maps import BitGen, Branch, PiecewiseMap, validate_map

logger = logging.getLogger(__name__)

_MIN_BREAK_GAP = 1e-6
#: mc_profile raises MonteCarloError when more than this share of trials fails
MAX_FAILURE_FRACTION = 0.10


@dataclass(frozen=True)
class PerturbationSpec:
    """Jitter magnitudes and trial bookkeeping for one Monte Carlo run."""

    sigma_slope: float = 0.01
    sigma_break: float = 0.01
    sigma_offset: float = 0.01
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.sigma_slope, self.sigma_break, self.sigma_offset) < 0:
            raise PerturbationError("sigmas must be non-negative")
        if self.trials < 1:
            raise PerturbationError("trials must be >= 1")


def _fold_affine(a: float, b: float, s: float, c: float, trial: int) -> list[Branch]:
    """Affine piece(s) realizing x -> s x + c reflected back into [0,1].

    Overflow past the rails is folded (y -> 2-y above 1, y -> -y below 0),
    which keeps |M'| = |s| everywhere. Saturating instead would create flat
    spots with superstable periodic orbits and collapse the entropy profile.
    """
    lo, hi = sorted((s * a + c, s * b + c))
    if hi > 2.0 - _MIN_BREAK_GAP or lo < -1.0 + _MIN_BREAK_GAP:
        raise PerturbationError(f"trial {trial}: branch overflows a full fold")
    crossings = [x for rail in (0.0, 1.0)
                 for x in [(rail - c) / s] if a + 1e-12 < x < b - 1e-12]
    cuts = [a] + sorted(crossings) + [b]
    pieces = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        v = s * 0.5 * (left + right) + c
        if v > 1.0:
            pieces.append(Branch("affine", left, right, -s, 2.0 - c))
        elif v < 0.0:
            pieces.append(Branch("affine", left, right, -s, -c))
        else:
            pieces.append(Branch("affine", left, right, s, c))
    if len(pieces) > 1:
        logger.debug("trial %d: folded image overflow (%.4g, %.4g) back into [0,1]",
                     trial, lo, hi)
    return pieces


def perturb(m: PiecewiseMap, spec: PerturbationSpec, trial_index: int) -> PiecewiseMap:
    """One jittered copy of ``m``; deterministic given (spec.seed, trial_index).

    Raises PerturbationError when the jitter destroys validity (reordered
    breakpoints, non-monotone branch). Affine image overflow past [0,1] is
    folded back at the rails (see _fold_affine); log2-affine branches are
    translated back instead, since their fold is outside the branch algebra.
    """
    rng = np.random.default_rng([spec.seed, trial_index])
    interior = np.array([br.a for br in m.branches[1:]])
    new_interior = interior + rng.normal(0.0, spec.sigma_break, interior.size)
    bounds = np.concatenate([[0.0], new_interior, [1.0]])
    if (np.diff(bounds) <= _MIN_BREAK_GAP).any():
        raise PerturbationError(f"trial {trial_index}: breakpoints collapsed or reordered")
    branches: list[Branch] = []
    for i, br in enumerate(m.branches):
        slope_jitter = 1.0 + rng.normal(0.0, spec.sigma_slope)
        offset_jitter = rng.normal(0.0, spec.sigma_offset)
        if slope_jitter <= 0:
            raise PerturbationError(f"trial {trial_index}: slope sign flipped")
        a, b = bounds[i], bounds[i + 1]
        if br.kind == "affine":
            branches.extend(_fold_affine(a, b, br.p0 * slope_jitter,
                                         br.p1 + offset_jitter, trial_index))
        else:
            cand = Branch("log2-affine", a, b, br.p0 * slope_jitter, br.p1,
                          br.p2 + offset_jitter)
            lo, hi = cand.image_raw
            if hi - lo > 1.0:
                raise PerturbationError(
                    f"trial {trial_index}: log branch image longer than 1")
            shift = max(hi - 1.0, 0.0) + min(lo, 0.0)
            if shift:
                logger.debug("trial %d: log branch translated by %.4g to fit [0,1]",
                             trial_index, shift)
                cand = Branch("log2-affine", a, b, cand.p0, cand.p1, cand.p2 + shift)
            branches.append(cand)
    pm = PiecewiseMap(tuple(branches), label=f"{m.label}~mc{trial_index}",
                      params=dict(m.params))
    try:
        validate_map(pm, samples_per_branch=16)
    except MapValidationError as exc:
        raise PerturbationError(f"trial {trial_index}: {exc}") from exc
    return pm


@dataclass(eq=False)
class MCProfile:
    """Entropy-rate profile over the completed Monte Carlo trials."""

    rates_by_trial: np.ndarray  # NaN marks a failed trial
    hist_edges: np.ndarray
    hist_counts: np.ndarray

    @property
    def entropy_rates(self) -> np.ndarray:
        return self.rates_by_trial[~np.isnan(self.rates_by_trial)]

    @property
    def trials(self) -> int:
        return self.rates_by_trial.size

    @property
    def failures(self) -> int:
        return int(np.isnan(self.rates_by_trial).sum())

    @property
    def mean(self) -> float:
        return float(self.entropy_rates.mean())

    @property
    def std(self) -> float:
        return float(self.entropy_rates.std())

    @property
    def min_rate(self) -> float:
        return float(self.entropy_rates.min())

    def to_csv(self) -> str:
        lines = ["trial,entropy_rate,status"]
        for i, r in enumerate(self.rates_by_trial):
            if np.isnan(r):
                lines.append(f"{i},,failed")
            else:
                lines.append(f"{i},{r:.12g},ok")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "edges": [float(e) for e in self.hist_edges],
            "counts": [int(c) for c in self.hist_counts],
            "mean": self.mean,
            "std": self.std,
            "min": self.min_rate,
            "trials": self.trials,
            "failures": self.failures,
        }, indent=2, sort_keys=True)


def mc_profile(m: PiecewiseMap, gen: BitGen, spec: PerturbationSpec,
               n_entropy: int = 10, n_bins: int = 4096) -> MCProfile:
    """Entropy-rate profile over ``spec.trials`` jittered copies of ``m``."""
    rates = np.full(spec.trials, np.nan)
    for trial in range(spec.trials):
        try:
            pm = perturb(m, spec, trial)
            report = entropy_rate(pm, gen, density=invariant_density(pm, n_bins),
                                  n_max=n_entropy)
            rates[trial] = report.entropy_rate
        except (PerturbationError, NonConvergenceError) as exc:
            logger.info("monte carlo trial %d failed: %s", trial, exc)
    failures = int(np.isnan(rates).sum())
    if failures > MAX_FAILURE_FRACTION * spec.trials:
        raise MonteCarloError(
            f"{failures}/{spec.trials} trials failed "
            f"(> {MAX_FAILURE_FRACTION:.0%}); check the perturbation spec")
    completed = rates[~np.isnan(rates)]
    counts, edges = np.histogram(completed, bins=20)
    return MCProfile(rates_by_trial=rates, hist_edges=edges, hist_counts=counts)
