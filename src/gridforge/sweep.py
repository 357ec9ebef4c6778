"""Feasibility atlas of the local design over a converter parameter box.

Sweeps a rectangular grid of (r_t, l_t, c_t) filter values, synthesizing a
controller at each point and recording whether the design went through, was
refused, or broke down numerically.  Refusals and solver failures are data,
not errors: a sweep always runs to completion and the per-point status lands
in the result table.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .certify import check_local_structure
from .model import DguParams, LoadModel, augmented_dgu
from .synthesis import (  # synthesize: perfbench/spans.py wraps it here
    Denied,
    LocalController,
    NumericalFailure,
    SynthesisConfig,
    synthesize,
    synthesize_batch,
)

FEASIBLE = "Feasible"
DENIED = "Denied"
FAILED = "NumericalFailure"
INVALID = "InvalidParameters"

# Load and reference are irrelevant to synthesis; any legal values do.
_SWEEP_LOAD = LoadModel.constant_current(0.0)
_SWEEP_VREF = 48.0

CSV_HEADER = "r_t,l_t,c_t,status,min_margin,k3"


def _range(name: str, pair: Tuple[float, float]) -> Tuple[float, float]:
    lo, hi = float(pair[0]), float(pair[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"{name} range must be finite with lo <= hi")
    return lo, hi


@dataclass(frozen=True)
class SweepGrid:
    """Axis-aligned box with the same number of samples on every axis.

    Defaults cover the converter range the local design is expected to
    handle: 0.05-1 ohm, 1-10 mH, 1-5 mF.  Bounds outside the physical
    domain (a zero resistance, say) are allowed here; the offending
    points are recorded as invalid rather than rejected up front.
    """

    r_t: Tuple[float, float] = (0.05, 1.0)
    l_t: Tuple[float, float] = (1.0e-3, 10.0e-3)
    c_t: Tuple[float, float] = (1.0e-3, 5.0e-3)
    points: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_t", _range("r_t", self.r_t))
        object.__setattr__(self, "l_t", _range("l_t", self.l_t))
        object.__setattr__(self, "c_t", _range("c_t", self.c_t))
        if int(self.points) != self.points or self.points < 1:
            raise ValueError("points must be a positive integer")
        object.__setattr__(self, "points", int(self.points))

    def axes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.linspace(*self.r_t, self.points),
                np.linspace(*self.l_t, self.points),
                np.linspace(*self.c_t, self.points))


GREEN_BOX = SweepGrid()


@dataclass(frozen=True)
class SweepPoint:
    r_t: float
    l_t: float
    c_t: float
    status: str
    # nan unless the point is feasible
    min_margin: float = math.nan
    k3: float = math.nan
    detail: str = ""
    controller: Optional[LocalController] = field(
        default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SweepResult:
    grid: SweepGrid
    sigma_bar: float
    alphas: Tuple[float, ...]
    points: Tuple[SweepPoint, ...]

    def summary(self) -> dict:
        counts = {FEASIBLE: 0, DENIED: 0, FAILED: 0, INVALID: 0}
        for pt in self.points:
            counts[pt.status] += 1
        return {
            "total": len(self.points),
            "feasible": counts[FEASIBLE],
            "infeasible": counts[DENIED],
            "failures": counts[FAILED] + counts[INVALID],
        }

    def feasible_points(self) -> Tuple[SweepPoint, ...]:
        return tuple(pt for pt in self.points if pt.status == FEASIBLE)


def _unit(r_t: float, l_t: float, c_t: float):
    """(augmented model, parameters) of a grid point, or its row when the
    point is not a valid converter."""
    try:
        params = DguParams(r_t, l_t, c_t, _SWEEP_LOAD, _SWEEP_VREF)
    except ValueError as exc:
        return SweepPoint(r_t, l_t, c_t, INVALID, detail=str(exc))
    return augmented_dgu(params), params


def _row(r_t: float, l_t: float, c_t: float, outcome) -> SweepPoint:
    """The table row of one synthesis outcome."""
    if isinstance(outcome, NumericalFailure):
        return SweepPoint(r_t, l_t, c_t, FAILED, detail=str(outcome))
    if isinstance(outcome, Denied):
        return SweepPoint(r_t, l_t, c_t, DENIED, detail=outcome.reason)
    report = check_local_structure(outcome)
    if not report.passed or outcome.k[2] == 0.0:
        # a solver point that slipped past the feasibility margin checks
        return SweepPoint(r_t, l_t, c_t, FAILED,
                          detail="local certificate rejected the design")
    return SweepPoint(r_t, l_t, c_t, FEASIBLE,
                      min_margin=float(np.min(outcome.raw["margins"])),
                      k3=float(outcome.k[2]),
                      controller=outcome)


def run_sweep(grid: SweepGrid = GREEN_BOX,
              sigma_bar: float = 10.0) -> SweepResult:
    """Synthesize over every grid point and tabulate the outcomes.

    The table is deterministic and follows the r_t-major, c_t-minor
    product of the axes.  All valid points are synthesized as one batch,
    with the same rows as point-by-point synthesis.
    """
    cfg = SynthesisConfig(sigma_bar=sigma_bar)
    coords = list(itertools.product(*(ax.tolist() for ax in grid.axes())))
    table = [_unit(*coord) for coord in coords]
    valid = [i for i, unit in enumerate(table)
             if not isinstance(unit, SweepPoint)]
    outcomes = synthesize_batch([table[i] for i in valid], cfg)
    for i, outcome in zip(valid, outcomes):
        table[i] = _row(*coords[i], outcome)
    return SweepResult(grid, float(sigma_bar), cfg.alphas, tuple(table))


def sweep_to_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for pt in result.points:
        lines.append(",".join([
            repr(pt.r_t), repr(pt.l_t), repr(pt.c_t), pt.status,
            repr(pt.min_margin), repr(pt.k3),
        ]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sweep_to_csv(result))


def summary_json(result: SweepResult) -> str:
    return json.dumps(result.summary(), indent=2) + "\n"
