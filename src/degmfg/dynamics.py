"""Coefficient functions of the controlled dynamics.

sigma = diag(sigma1, sigma2) is the diffusion matrix, h weights the x2
direction of the degenerate gradient and may vanish to infinite order.
epsilon >= 0 is the artificial viscosity; the regularized diffusion used by
the SDE module is sqrt(2*epsilon + sigma_i^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import Grid2D


@dataclass(frozen=True)
class DynamicsSpec:
    sigma1: Callable  # (x1, x2) -> array
    sigma2: Callable  # (x1, x2) -> array
    h: Callable       # (x1,) -> array
    epsilon: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN fails every comparison
            raise ConfigurationError("epsilon must be >= 0")

    def with_epsilon(self, epsilon: float) -> "DynamicsSpec":
        return replace(self, epsilon=epsilon)

    def sigma1_sq(self, x1g, x2g):
        return np.broadcast_to(np.asarray(self.sigma1(x1g, x2g), dtype=float) ** 2,
                               x1g.shape).copy()

    def sigma2_sq(self, x1g, x2g):
        return np.broadcast_to(np.asarray(self.sigma2(x1g, x2g), dtype=float) ** 2,
                               x1g.shape).copy()

    def h_values(self, x1):
        return np.broadcast_to(np.asarray(self.h(x1), dtype=float),
                               np.shape(x1)).copy()

    def h_grid(self, grid: Grid2D):
        """h(x1) broadcast over the full grid, shape (n1, n2)."""
        return np.repeat(self.h_values(grid.x1)[:, None], grid.n2, axis=1)


def grushin_h(x1):
    """h(x) = exp(-1/x^2) for x != 0, h(0) = 0; vanishes to any order at 0."""
    # -1/x^2 is -inf where x^2 is 0 (divide) or subnormal (overflow), and
    # exp(-inf) = 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(-1.0 / np.asarray(x1, dtype=float) ** 2)


def _const(c):
    def f(*args):
        return np.full(np.shape(args[0]), float(c))
    return f


_PRESETS = {
    # infinitely degenerate drift direction, mild nondegenerate diffusion
    "grushin_exp": dict(
        sigma1=_const(0.5), sigma2=_const(0.5), h=grushin_h),
    # diffusion degenerates on the lines x1 = k*pi (Example-style sin field)
    "sin_sigma": dict(
        sigma1=lambda x1, x2: np.sin(x1), sigma2=_const(1.0), h=_const(1.0)),
    "nondegenerate": dict(
        sigma1=_const(1.0), sigma2=_const(1.0), h=_const(1.0)),
    # x2 direction fully dead: no drift (h=0) and no diffusion there
    "fully_degenerate_x2": dict(
        sigma1=_const(0.5), sigma2=_const(0.0), h=_const(0.0)),
    "zero": dict(
        sigma1=_const(0.0), sigma2=_const(0.0), h=_const(1.0)),
}


def dynamics_preset(name: str, epsilon: float = 0.0) -> DynamicsSpec:
    problems = []
    if name not in _PRESETS:
        problems.append("unknown dynamics preset %r (known: %s)"
                        % (name, sorted(_PRESETS)))
    try:  # an unknown name must not hide DynamicsSpec's own problems
        spec = DynamicsSpec(epsilon=epsilon, name=name,
                            **_PRESETS.get(name, _PRESETS["zero"]))
    except ConfigurationError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigurationError(problems)
    return spec

