"""Constant calibration: put numbers on the paper's O(.)s.

The theorems bound slowdown up to unspecified constants; for a
downstream user sizing a deployment, the *measured* constants of this
implementation matter.  Each calibrator sweeps the relevant parameter,
fits the claimed functional form by least squares, and reports the
leading constant plus the goodness of fit:

* Theorem 4:  ``slowdown ~ c1 * sqrt(d) + c0``          (paper: c1 <= 5)
* Theorem 2:  ``slowdown ~ c1 * d_ave + c0``            (fixed n, blocked)
* Theorem 7:  ``slowdown ~ c1 * m * g + c0`` (case 2)   (paper: c1 ~ 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """``y ~ c1 * f(x) + c0`` with R^2."""

    c1: float
    c0: float
    r_squared: float

    def predict(self, fx: float) -> float:
        """Model value at feature value ``fx``."""
        return self.c1 * fx + self.c0


def fit_linear(features: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line through ``(feature, y)`` points."""
    if len(features) != len(ys) or len(features) < 2:
        raise ValueError("need >= 2 matched points")
    x = np.asarray(features, dtype=float)
    y = np.asarray(ys, dtype=float)
    c1, c0 = np.polyfit(x, y, 1)
    pred = c1 * x + c0
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(float(c1), float(c0), r2)


def calibrate_theorem4(
    d_values: Sequence[int] | None = None, n: int = 6
) -> LinearFit:
    """Fit ``slowdown = c1 sqrt(d) + c0`` for the Theorem-4 scheme.

    The paper's explicit accounting gives c1 <= 5; the greedy executor
    realises a smaller constant.
    """
    from repro.core.uniform import block_width, simulate_uniform

    d_values = list(d_values or (16, 64, 256, 1024))
    feats, slows = [], []
    for d in d_values:
        res = simulate_uniform(n, d, steps=2 * block_width(d), verify=False)
        feats.append(math.sqrt(d))
        slows.append(res.slowdown)
    return fit_linear(feats, slows)


def calibrate_theorem2(
    d_values: Sequence[int] | None = None,
    n: int = 96,
    block: int = 4,
    steps: int = 16,
) -> LinearFit:
    """Fit ``slowdown = c1 d_ave + c0`` for blocked OVERLAP at fixed n."""
    from repro.core.overlap import simulate_overlap
    from repro.machine.host import HostArray

    d_values = list(d_values or (1, 2, 4, 8, 16))
    feats, slows = [], []
    for d in d_values:
        res = simulate_overlap(
            HostArray.uniform(n, d), steps=steps, block=block, verify=False
        )
        feats.append(float(d))
        slows.append(res.slowdown)
    return fit_linear(feats, slows)


def calibrate_theorem7_case2(
    configs: Sequence[tuple[int, int, int]] | None = None
) -> LinearFit:
    """Fit ``slowdown = c1 * (m * g) + c0`` for case-2 2-D runs.

    The paper's count is ``(3 m / n0)(m / n0) m`` pebbles per ``m/n0``
    steps, i.e. per-step compute ``~ 3 m g`` — so c1 should land near
    (and below) 3.
    """
    from repro.core.ndim import simulate_2d_on_uniform_array

    configs = list(configs or [(12, 6, 4), (12, 4, 4), (16, 4, 8), (16, 2, 8)])
    feats, slows = [], []
    for m, n0, d in configs:
        g = math.ceil(m / n0)
        res = simulate_2d_on_uniform_array(m, n0, d, steps=2 * g, verify=False)
        feats.append(float(m * g))
        slows.append(res.slowdown)
    return fit_linear(feats, slows)


def calibration_table() -> list[dict]:
    """All calibrations as report rows (used by the X3 experiment)."""
    rows = []
    t4 = calibrate_theorem4()
    rows.append(
        {
            "bound": "Thm 4: c1*sqrt(d)+c0",
            "paper c1": "<= 5",
            "measured c1": round(t4.c1, 2),
            "c0": round(t4.c0, 2),
            "R^2": round(t4.r_squared, 4),
        }
    )
    t2 = calibrate_theorem2()
    rows.append(
        {
            "bound": "Thm 2: c1*d_ave+c0",
            "paper c1": "O(polylog)",
            "measured c1": round(t2.c1, 2),
            "c0": round(t2.c0, 2),
            "R^2": round(t2.r_squared, 4),
        }
    )
    t7 = calibrate_theorem7_case2()
    rows.append(
        {
            "bound": "Thm 7c2: c1*(m g)+c0",
            "paper c1": "~3",
            "measured c1": round(t7.c1, 2),
            "c0": round(t7.c0, 2),
            "R^2": round(t7.r_squared, 4),
        }
    )
    return rows
