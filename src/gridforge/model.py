"""Electrical data types and state-space matrices for DC microgrids.

A DGU (distributed generation unit) is a DC source behind a Buck converter
with an RLC output filter feeding a point of common coupling (PCC).  Power
lines between PCCs are resistive under the quasi-stationary-line (QSL)
approximation; their inductance is kept only for the optional RL line model
in the simulator.

Per-DGU state is x = [V, I_t] (PCC voltage, filter current).  The augmented
state adds the tracking integrator v, with v' = v_ref - V.

The assembled grid is block data and nothing else (GlobalSystem):
per-unit stacks of blocks, load conductances and constant terms, and the
line list as index, conductance, resistance and inductance arrays.
assemble_global alone reads a topology into them.  The closed loop is
built in that form too (closed_loop_blocks); a dense matrix exists only
where a caller expands those blocks (closed_loop, GlobalSystem.expand),
and as generator's M, the simulated loop with its loads and lines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from .synthesis import LocalController

QSL = "qsl"
RL = "rl"

#: A controller as the closed loop reads it: a synthesis result, or a bare
#: gain row (the baseline designs); only u = k x_hat counts.
Gain = Union["LocalController", np.ndarray, Sequence[float]]


class TopologyError(ValueError):
    """Raised when a microgrid description is structurally inconsistent."""


def _positive(name: str, value: float) -> float:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return float(value)


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LoadModel:
    """Load at a PCC: a constant current draw or a linear resistance.

    assemble_global reads both into the closed loop that generator
    builds: a constant current enters the constant term (unit_c), a
    resistance the voltage diagonal as the conductance 1/(r_l C_t)
    (load_g, from I_L = V / r_l).  Controller synthesis never sees either.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("current", "resistance"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        if self.kind == "resistance":
            _positive("r_l", self.value)
        elif not math.isfinite(self.value):
            raise ValueError("i_l must be finite")

    @classmethod
    def constant_current(cls, i_l: float) -> "LoadModel":
        return cls("current", float(i_l))

    @classmethod
    def resistive(cls, r_l: float) -> "LoadModel":
        return cls("resistance", float(r_l))


@dataclass(frozen=True)
class DguParams:
    """Converter electrical constants plus load and voltage reference.

    r_t, l_t, c_t are the filter resistance (ohm), inductance (H) and
    capacitance (F).  Positivity of all three is what makes the augmented
    pair controllable, so it is enforced here rather than downstream.
    """

    r_t: float
    l_t: float
    c_t: float
    load: LoadModel
    v_ref: float

    def __post_init__(self):
        _positive("r_t", self.r_t)
        _positive("l_t", self.l_t)
        _positive("c_t", self.c_t)
        # zero is a legitimate reference (shutdown bus), negative is not
        if not math.isfinite(self.v_ref) or self.v_ref < 0.0:
            raise ValueError("v_ref must be nonnegative")


@dataclass(frozen=True)
class LineParams:
    """One power line between two PCCs, resistive with optional inductance."""

    i: int
    j: int
    r: float
    l: Optional[float] = None

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("line endpoints must differ")
        _positive("r", self.r)
        if self.l is not None:
            _positive("l", self.l)

    @property
    def key(self) -> Tuple[int, int]:
        """Endpoint pair in canonical (low, high) order."""
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)

    def other(self, dgu_id: int) -> int:
        if dgu_id == self.i:
            return self.j
        if dgu_id == self.j:
            return self.i
        raise ValueError(f"line {self.key} does not touch DGU {dgu_id}")


@dataclass(frozen=True)
class MicrogridTopology:
    """DGU set plus line set.  IDs are the user-facing 1-based integers.

    Connectivity is deliberately a query, not an invariant: the unplugging
    protocol needs to ask "would removal disconnect the rest?" on candidate
    topologies.
    """

    dgus: Mapping[int, DguParams]
    lines: Tuple[LineParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "dgus", dict(self.dgus))
        object.__setattr__(self, "lines", tuple(self.lines))
        seen = set()
        for ln in self.lines:
            if ln.i not in self.dgus or ln.j not in self.dgus:
                raise TopologyError(f"line {ln.key} references a missing DGU")
            if ln.key in seen:
                raise TopologyError(f"duplicate line between {ln.key}")
            seen.add(ln.key)

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.dgus))

    def neighbors(self, dgu_id: int) -> Tuple[int, ...]:
        out = [ln.other(dgu_id) for ln in self.lines if dgu_id in ln.key]
        return tuple(sorted(out))

    def is_connected(self) -> bool:
        ids = self.ids
        if len(ids) <= 1:
            return True
        adj = {i: set() for i in ids}
        for ln in self.lines:
            adj[ln.i].add(ln.j)
            adj[ln.j].add(ln.i)
        stack, seen = [ids[0]], {ids[0]}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(ids)

    def with_dgu(self, dgu_id: int, params: DguParams,
                 lines: Sequence[LineParams]) -> "MicrogridTopology":
        if dgu_id in self.dgus:
            raise TopologyError(f"DGU {dgu_id} already present")
        dgus = dict(self.dgus)
        dgus[dgu_id] = params
        return MicrogridTopology(dgus, self.lines + tuple(lines))

    def without_dgu(self, dgu_id: int) -> "MicrogridTopology":
        if dgu_id not in self.dgus:
            raise TopologyError(f"unknown DGU {dgu_id}")
        dgus = {i: p for i, p in self.dgus.items() if i != dgu_id}
        lines = tuple(ln for ln in self.lines if dgu_id not in ln.key)
        return MicrogridTopology(dgus, lines)

    def replace_params(self, dgu_id: int, params: DguParams) -> "MicrogridTopology":
        if dgu_id not in self.dgus:
            raise TopologyError(f"unknown DGU {dgu_id}")
        dgus = dict(self.dgus)
        dgus[dgu_id] = params
        return MicrogridTopology(dgus, self.lines)


@dataclass(frozen=True)
class AugmentedDgu:
    """One DGU's blocks with the tracking integrator appended (state dim 3).

    Built from the unit's own parameters alone: no line enters here, so
    a_hat_ii[0, 0] is exactly zero.
    """

    a_hat_ii: np.ndarray    # 3x3
    b_hat: np.ndarray       # 3x1
    m_hat: np.ndarray       # 3x2
    h_hat: np.ndarray       # 1x3

    def __post_init__(self):
        for name in ("a_hat_ii", "b_hat", "m_hat", "h_hat"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class GlobalSystem:
    """The assembled microgrid as per-unit blocks plus its line list.

    In ascending id order: unit_a stacks the line-free a_hat_ii blocks,
    unit_b the input columns, unit_c the constant terms m_hat [I_L, v_ref]
    (I_L zero for a resistive load), and load_g is 1/(R_L C_t), zero for
    a current load.  Line l joins units line_i[l] and line_j[l], with
    resistance line_r[l] and inductance line_l[l] (NaN if none): the
    voltage of unit line_j[l] drives that of unit line_i[l] with
    conductance g_i[l] = 1/(R_l C_i), and back with g_j[l] = 1/(R_l C_j).
    self_terms holds each unit's QSL self term, -sum of its conductances,
    stamped in topology order.
    """

    ids: Tuple[int, ...]
    unit_a: np.ndarray      # N x 3 x 3
    unit_b: np.ndarray      # N x 3
    unit_c: np.ndarray      # N x 3
    load_g: np.ndarray      # N
    line_i: np.ndarray      # lines, int positions
    line_j: np.ndarray
    g_i: np.ndarray         # lines, 1 / (R C_i)
    g_j: np.ndarray         # lines, 1 / (R C_j)
    line_r: np.ndarray      # lines
    line_l: np.ndarray      # lines, NaN without an inductance

    def __post_init__(self):
        for name in ("unit_a", "unit_b", "unit_c", "load_g", "g_i", "g_j",
                     "line_r", "line_l"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name in ("line_i", "line_j"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.intp))

    @functools.cached_property
    def self_terms(self) -> np.ndarray:
        xi = np.zeros(len(self.ids))
        # each line stamps its i end, then its j end, as a loop over the
        # lines in topology order would
        np.subtract.at(xi, np.stack([self.line_i, self.line_j], 1).ravel(),
                       np.stack([self.g_i, self.g_j], 1).ravel())
        return _frozen(xi)

    def expand(self, blocks: np.ndarray) -> np.ndarray:
        """The dense 3N x 3N matrix with these diagonal blocks and the
        line conductances between voltage slots."""
        out = block_diagonal(blocks)
        out[3 * self.line_i, 3 * self.line_j] = self.g_i
        out[3 * self.line_j, 3 * self.line_i] = self.g_j
        return out


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The dense 3N x 3N block-diagonal matrix of an (N, 3, 3) stack."""
    n = len(blocks)
    out = np.zeros((3 * n, 3 * n))
    idx = np.arange(n)
    out.reshape(n, 3, n, 3)[idx, :, idx, :] = blocks
    return out


def unit_blocks(units: Sequence[DguParams],
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_hat_ii, b_hat, m_hat) of many DGUs as (N, 3, 3), (N, 3) and
    (N, 3, 2) stacks, from Kirchhoff's laws under QSL.

    Voltage dynamics: C_t V' = I_t - I_L + sum_j (V_j - V_i)/R_ij.  The
    line sum belongs to assemble_global, so the unit's own blocks are
    line-independent.  The integrator v' = v_ref - V adds the row
    [-1, -0.0, 0], the negated output map [1, 0] and its signed zero;
    v_ref enters through the second disturbance column.
    """
    rt, lt, ct = (np.array([getattr(p, name) for p in units], dtype=float)
                  for name in ("r_t", "l_t", "c_t"))
    n = len(rt)
    a = np.zeros((n, 3, 3))
    a[:, 0, 1] = 1.0 / ct
    a[:, 1, 0] = -1.0 / lt
    a[:, 1, 1] = -rt / lt
    a[:, 2, 0] = -1.0
    a[:, 2, 1] = -0.0
    b = np.zeros((n, 3))
    b[:, 1] = 1.0 / lt
    m = np.zeros((n, 3, 2))
    m[:, 0, 0] = -1.0 / ct
    m[:, 2, 1] = 1.0
    return a, b, m


def augmented_dgu(params: DguParams) -> AugmentedDgu:
    """State-space blocks of one DGU: unit_blocks of a stack of one."""
    a, b, m = unit_blocks([params])
    return AugmentedDgu(a[0], b[0][:, None], m[0], np.array([[1.0, 0.0, 0.0]]))


def assemble_global(topology: MicrogridTopology) -> GlobalSystem:
    """Stack per-DGU blocks into the microgrid system (line-independent mode).

    Block order follows ascending DGU id.  Lines enter the grid here and
    nowhere else, each once, in topology order, with the conductance
    1/(R C_t) of each end; so do the loads and references.
    """
    ids = topology.ids
    pos = {dgu_id: k for k, dgu_id in enumerate(ids)}
    units = [topology.dgus[dgu_id] for dgu_id in ids]
    a, b, m = unit_blocks(units)
    c = np.array([p.c_t for p in units], dtype=float)
    load = np.array([p.load.value for p in units], dtype=float)
    resistive = np.array([p.load.kind == "resistance" for p in units], bool)
    load_g = np.zeros(len(units))
    load_g[resistive] = 1.0 / (load[resistive] * c[resistive])
    disturbance = np.stack([np.where(resistive, 0.0, load),
                            [p.v_ref for p in units]], 1)
    lines = topology.lines
    line_i = np.array([pos[ln.i] for ln in lines], dtype=np.intp)
    line_j = np.array([pos[ln.j] for ln in lines], dtype=np.intp)
    r = np.array([ln.r for ln in lines], dtype=float)
    l = np.array([math.nan if ln.l is None else ln.l for ln in lines], float)
    return GlobalSystem(ids, a, b, (m @ disturbance[:, :, None])[:, :, 0],
                        load_g, line_i, line_j, 1.0 / (r * c[line_i]),
                        1.0 / (r * c[line_j]), r, l)


def gain_row(controller: Gain) -> np.ndarray:
    """The gain row of a controller: its `k`, or the controller itself when
    it is a bare row.  Anything but three finite numbers is a ValueError."""
    k = np.asarray(getattr(controller, "k", controller), dtype=float)
    if k.shape != (3,):
        raise ValueError("a controller must provide a 3-entry gain row")
    if not np.isfinite(k).all():
        raise ValueError("a controller gain must be finite")
    return k


def closed_loop_blocks(system: GlobalSystem,
                       controllers: Mapping[int, Gain]) -> np.ndarray:
    """The (N, 3, 3) diagonal blocks of F = a_hat + b_hat K.

    Each is the unit's a_hat_ii with its QSL self term, plus the outer
    product of its input column and its gain row (read by gain_row, so a
    baseline design's bare row counts like a synthesized controller); the
    rest of F is the system's line conductances.
    """
    n = len(system.ids)
    gains = np.array([gain_row(controllers[dgu_id]) for dgu_id in system.ids],
                     dtype=float).reshape(n, 3)
    # the whole stamp is added, zeros included, so every block is
    # (a_hat_ii + self term) + b_hat k entrywise, signed zeros as well
    stamp = np.zeros_like(system.unit_a)
    stamp[:, 0, 0] = system.self_terms
    return (system.unit_a + stamp) + system.unit_b[:, :, None] * gains[:, None, :]


def closed_loop(system: GlobalSystem,
                controllers: Mapping[int, Gain]) -> np.ndarray:
    """F = a_hat + b_hat K as a dense 3N x 3N array."""
    return system.expand(closed_loop_blocks(system, controllers))


def generator(system: GlobalSystem, controllers: Mapping[int, Gain],
              line_model: str) -> np.ndarray:
    """The closed loop x' = Ax + c as its generator M = [[A, c], [0, 0]]
    on [x; 1]: closed_loop_blocks less the load conductances, and unit_c.
    QSL keeps the line conductances; RL takes the self terms back out and
    adds one current state per line, oriented from line_i to line_j.  Each
    stamp is one array operation on entries no other stamp touches, in
    the order a loop over the units, then the lines, would add it, so
    every bit is that loop's, signed zeros included.
    """
    rl = line_model == RL
    if rl and np.isnan(system.line_l).any():
        raise ValueError(f"every line needs an inductance under {RL!r}")
    blocks = closed_loop_blocks(system, controllers)
    if rl:
        blocks[:, 0, 0] -= system.self_terms
    blocks[:, 0, 0] -= system.load_g  # x - 0.0 is x, -0.0 too
    a = block_diagonal(blocks) if rl else system.expand(blocks)
    base, lines = len(a), len(system.line_i) if rl else 0
    m = np.pad(a, (0, lines + 1))  # its last row stays zero
    m[:base, -1] = system.unit_c.ravel()
    if rl:
        row = base + np.arange(lines)
        si, sj = 3 * system.line_i, 3 * system.line_j
        m[row, si] = 1.0 / system.line_l
        m[row, sj] = -1.0 / system.line_l
        m[row, row] = -system.line_r / system.line_l
        m[si, row] -= system.unit_a[system.line_i, 0, 1]  # 1 / C_i
        m[sj, row] += system.unit_a[system.line_j, 0, 1]
    return m


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(a @ cols[-1])
    return np.hstack(cols)
