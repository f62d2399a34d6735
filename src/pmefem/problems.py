"""Closed-form solutions and the initial-data catalog used by the harness.

The Barenblatt profile doubles as the convergence oracle; the remaining
entries (waiting-time profile, merging Gaussians, horseshoe support) drive
the qualitative experiments and have no closed-form evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def barenblatt(x, t, m, s0=1.0, d=1):
    """Self-similar compactly supported solution

        rho(x, t) = (t+1)^{-k} (s0 - k(m-1)|x|^2 / (2 d m (t+1)^{2k/d}))_+^{1/(m-1)}

    with k = d / (d(m-1) + 2); time is shifted by one so t = 0 is regular.
    For d >= 2, x must have the coordinates along its last axis.
    """
    if m <= 1:
        raise ValueError("Barenblatt profile requires m > 1")
    x = np.asarray(x, dtype=float)
    if d == 1:
        r2 = x**2
    else:
        if x.shape[-1] != d:
            raise ValueError(f"points must have {d} coordinates along the last axis")
        r2 = np.sum(x**2, axis=-1)
    k = d / (d * (m - 1.0) + 2.0)
    tau = t + 1.0
    core = s0 - k * (m - 1.0) / (2.0 * d * m) * r2 / tau ** (2.0 * k / d)
    out = tau ** (-k) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))
    return float(out) if out.ndim == 0 else out


def front_position(t, m):
    """Right interface of the unit-scale 1D profile:
    sqrt(2m / (k(m-1))) (t+1)^k with k = 1/(m+1)."""
    k = 1.0 / (m + 1.0)
    return math.sqrt(2.0 * m / (k * (m - 1.0))) * (t + 1.0) ** k


def waiting_time_profile(x, m, theta):
    """Initial density whose interface stays put for a finite time:

        ((m-1)/m ((1-theta) cos^2 x + theta cos^4 x))^{1/(m-1)}  on [-pi/2, pi/2]

    and zero outside."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    c2 = np.cos(x) ** 2
    core = (m - 1.0) / m * ((1.0 - theta) * c2 + theta * c2**2)
    # strict comparison so the representable interface point is exactly zero
    out = np.where(np.abs(x) < np.pi / 2, np.maximum(core, 0.0) ** (1.0 / (m - 1.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def waiting_time(m, theta):
    """Interface waiting time 1/(2(m+1)(1-theta)), valid for theta <= 1/4."""
    if theta > 0.25:
        raise ValueError("waiting time formula requires theta <= 1/4")
    return 1.0 / (2.0 * (m + 1.0) * (1.0 - theta))


def merging_gaussians(x, y):
    """Two Gaussian humps that spread and merge under the flow."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.exp(-20.0 * ((x - 0.3) ** 2 + (y - 0.3) ** 2)) + np.exp(
        -20.0 * ((x + 0.3) ** 2 + (y + 0.3) ** 2)
    )
    return float(out) if out.ndim == 0 else out


def complex_support(x, y, m):
    """Horseshoe-shaped initial density: three-quarters of an annulus capped
    by two half-disks, zero elsewhere."""
    if m <= 1:
        raise ValueError("complex support profile requires m > 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = 3.0 / (2.0 * (m - 1.0))
    r = np.sqrt(x**2 + y**2)
    out = np.zeros(np.broadcast(x, y).shape)

    ring = (r >= 0.5) & (r <= 1.0) & ((x < 0) | (y < 0))
    out = np.where(ring, 25.0 * np.maximum(0.25**2 - (r - 0.75) ** 2, 0.0) ** p, out)

    cap1 = (x**2 + (y - 0.75) ** 2 <= 0.25**2) & (x >= 0) & ~ring
    out = np.where(cap1, 25.0 * np.maximum(0.25**2 - x**2 - (y - 0.75) ** 2, 0.0) ** p, out)

    cap2 = ((x - 0.75) ** 2 + y**2 <= 0.25**2) & (y >= 0) & ~ring & ~cap1
    out = np.where(cap2, 25.0 * np.maximum(0.25**2 - (x - 0.75) ** 2 - y**2, 0.0) ** p, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProblemSpec:
    """One catalog entry: initial data plus whatever oracles exist for it."""

    dim: int
    domain: tuple
    rho0: Callable[[np.ndarray], np.ndarray]         # (n, dim) points -> densities
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    front: Optional[Callable[[float], float]] = None  # right interface position
    waiting: Optional[float] = None
    inner_region: Optional[tuple] = None              # smooth subregion for errors
    default_mesh: str = "interval"
    default_counts: tuple = (100,)


PROBLEM_NAMES = ("barenblatt1d", "barenblatt2d", "waiting", "gaussians", "horseshoe")

#: problems whose initial density vanishes outside a compact support
COMPACTLY_SUPPORTED = ("barenblatt1d", "barenblatt2d", "waiting", "horseshoe")


def get_problem(name, m, s0=None, theta=0.0) -> ProblemSpec:
    """Look up a catalog entry by name, binding m and the data parameters."""
    if m <= 1:
        raise ValueError("the schemes require m > 1")
    if name == "barenblatt1d":
        s0 = 3.0 if s0 is None else float(s0)
        return ProblemSpec(
            dim=1, domain=(-10.0, 10.0),
            rho0=lambda pts: barenblatt(pts[:, 0], 0.0, m, s0, 1),
            exact=lambda pts, t: barenblatt(pts[:, 0], t, m, s0, 1),
            inner_region=(-5.0, 5.0),
            default_mesh="interval", default_counts=(100,),
        )
    if name == "barenblatt2d":
        s0 = 1.0 if s0 is None else float(s0)
        return ProblemSpec(
            dim=2, domain=((-6.0, 6.0), (-6.0, 6.0)),
            rho0=lambda pts: barenblatt(pts, 0.0, m, s0, 2),
            exact=lambda pts, t: barenblatt(pts, t, m, s0, 2),
            inner_region=((-3.0, 3.0), (-3.0, 3.0)),
            default_mesh="quad", default_counts=(32, 32),
        )
    if name == "waiting":
        # domain chosen so +-pi/2 are grid vertices for counts divisible by 4
        wt = waiting_time(m, theta) if theta <= 0.25 else None
        return ProblemSpec(
            dim=1, domain=(-math.pi, math.pi),
            rho0=lambda pts: waiting_time_profile(pts[:, 0], m, theta),
            front=lambda t: math.pi / 2,
            waiting=wt,
            default_mesh="interval", default_counts=(200,),
        )
    if name == "gaussians":
        return ProblemSpec(
            dim=2, domain=((-1.0, 1.0), (-1.0, 1.0)),
            rho0=lambda pts: merging_gaussians(pts[:, 0], pts[:, 1]),
            default_mesh="acute_triangle", default_counts=(40, 40),
        )
    if name == "horseshoe":
        return ProblemSpec(
            dim=2, domain=((-2.0, 2.0), (-2.0, 2.0)),
            rho0=lambda pts: complex_support(pts[:, 0], pts[:, 1], m),
            default_mesh="acute_triangle", default_counts=(40, 40),
        )
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
