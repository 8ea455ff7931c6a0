"""Concave penalties on mixing proportions and their local linear approximation."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PenaltySpec",
    "penalty_value",
    "penalty_derivative",
    "log_scale_term",
    "lla_coefficient",
    "DEFAULT_SCAD_SHAPE",
    "DEFAULT_MCP_SHAPE",
    "DEFAULT_EPSILON",
    "DEFAULT_PRUNE_THRESHOLD",
]

KINDS = ("ls", "scad", "mcp")

DEFAULT_SCAD_SHAPE = 3.7
DEFAULT_MCP_SHAPE = 3.0
DEFAULT_EPSILON = 1e-4
DEFAULT_PRUNE_THRESHOLD = 1e-5


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty applied to mixing proportions during the M-step.

    Parameters
    ----------
    kind : str
        One of "ls" (log-scale shift), "scad", or "mcp".
    level : float
        Penalty level (rho for LS, kappa for SCAD, alpha for MCP). Zero
        disables shrinkage.
    shape : float, optional
        Concavity shape: a > 2 for SCAD (default 3.7), b > 1 for MCP
        (default 3). Ignored for LS.
    epsilon : float
        Offset keeping the log-scale terms finite at zero.
    prune_threshold : float
        Components whose proportion falls below this are removed.
    """

    kind: str
    level: float
    shape: float | None = None
    epsilon: float = DEFAULT_EPSILON
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        if not (self.level >= 0.0 and math.isfinite(self.level)):
            raise ValueError("penalty level must be finite and nonnegative")
        # each concave kind's default shape and the bound its shape must exceed
        shapes = {"scad": (DEFAULT_SCAD_SHAPE, 2.0), "mcp": (DEFAULT_MCP_SHAPE, 1.0)}
        shape = None
        if self.kind in shapes:
            default, bound = shapes[self.kind]
            shape = default if self.shape is None else float(self.shape)
            if not shape > bound:
                raise ValueError(f"{self.kind.upper()} shape parameter must exceed {bound:g}")
        object.__setattr__(self, "shape", shape)
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and positive")
        if not (0.0 < self.prune_threshold < 1.0):
            raise ValueError("prune threshold must lie in (0, 1)")


def _check_pi(pi: float) -> float:
    if not (-1e-9 <= pi <= 1.0 + 1e-9):
        raise ValueError(f"proportion {pi!r} outside [0, 1]")
    return min(max(float(pi), 0.0), 1.0)


def penalty_value(spec: PenaltySpec, pi: float) -> float:
    """Penalty p(pi), the exact integral of `penalty_derivative` from 0 with
    p(0) = 0. For LS, p(pi) = pi at every level: the level scales the
    log-scale term outside p."""
    pi = _check_pi(pi)
    if spec.kind == "ls":
        return pi
    level = spec.level
    shape = spec.shape
    if spec.kind == "scad":
        knee = shape * level
        if pi <= level:
            return pi
        if pi <= knee:
            return (2.0 * knee * pi - pi * pi - level * level) / (2.0 * (shape - 1.0) * level)
        return level * (shape + 1.0) / 2.0
    # mcp
    knee = shape * level
    if pi <= knee:
        return level * pi - pi * pi / (2.0 * shape)
    return shape * level * level / 2.0


def penalty_derivative(spec: PenaltySpec, pi: float) -> float:
    """Derivative p'(pi); 1 for LS."""
    pi = _check_pi(pi)
    if spec.kind == "ls":
        return 1.0
    level = spec.level
    if level == 0.0:
        return 0.0
    shape = spec.shape
    if spec.kind == "scad":
        if pi <= level:
            return 1.0
        return max(shape * level - pi, 0.0) / ((shape - 1.0) * level)
    # mcp
    if pi <= shape * level:
        return level - pi / shape
    return 0.0


def log_scale_term(spec: PenaltySpec, pi: float) -> float:
    """Per-component penalty contribution log(eps + p(pi)) - log(eps)."""
    return math.log1p(penalty_value(spec, pi) / spec.epsilon)


def lla_coefficient(spec: PenaltySpec, pi_prev: float) -> float:
    """Slope p'(pi)/(eps + p(pi)) of the local linear approximation of the
    log-scale term at pi_prev; for LS, 1/(eps + pi) is its exact derivative.
    """
    return penalty_derivative(spec, pi_prev) / (spec.epsilon + penalty_value(spec, pi_prev))
