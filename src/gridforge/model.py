"""Electrical data types and state-space matrices for DC microgrids.

A DGU (distributed generation unit) is a DC source behind a Buck converter
with an RLC output filter feeding a point of common coupling (PCC).  Power
lines between PCCs are resistive under the quasi-stationary-line (QSL)
approximation; their inductance is kept only for the optional RL line model
in the simulator.

Per-DGU state is x = [V, I_t] (PCC voltage, filter current).  The augmented
state adds the tracking integrator v, with v' = v_ref - V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np


class TopologyError(ValueError):
    """Raised when a microgrid description is structurally inconsistent."""


def _positive(name: str, value: float) -> float:
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return float(value)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LoadModel:
    """Load at a PCC: a constant current draw or a linear resistance.

    Constant-current loads enter the dynamics as disturbances; resistive
    loads are folded into the simulated voltage dynamics as a conductance
    (I_L = V / r_l).  Controller synthesis never sees either.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("current", "resistance"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        if self.kind == "resistance":
            _positive("r_l", self.value)
        elif not np.isfinite(self.value):
            raise ValueError("i_l must be finite")

    @classmethod
    def constant_current(cls, i_l: float) -> "LoadModel":
        return cls("current", float(i_l))

    @classmethod
    def resistive(cls, r_l: float) -> "LoadModel":
        return cls("resistance", float(r_l))

    def current_at(self, voltage: float) -> float:
        if self.kind == "current":
            return self.value
        return voltage / self.value


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
        if not np.isfinite(self.v_ref) or self.v_ref < 0.0:
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
    """Assembled microgrid matrices plus the exact three-way split of a_hat.

    a_hat = a_d + a_xi + a_c entrywise: a_d the block-diagonal local
    dynamics, a_xi the diagonal QSL self terms (only the (1,1) slot of each
    3x3 block is nonzero), a_c the off-diagonal coupling blocks.
    """

    ids: Tuple[int, ...]
    a_hat: np.ndarray       # 3N x 3N
    b_hat: np.ndarray       # 3N x N
    m_hat: np.ndarray       # 3N x 2N
    h_hat: np.ndarray       # N x 3N
    a_d: np.ndarray
    a_xi: np.ndarray
    a_c: np.ndarray

    def __post_init__(self):
        for name in ("a_hat", "b_hat", "m_hat", "h_hat", "a_d", "a_xi", "a_c"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def augmented_dgu(params: DguParams) -> AugmentedDgu:
    """State-space blocks of one DGU from Kirchhoff's laws under QSL.

    Voltage dynamics: C_t V' = I_t - I_L + sum_j (V_j - V_i)/R_ij.  The
    line sum belongs to assemble_global, so the unit's own blocks are
    line-independent.  The integrator v' = v_ref - V adds the row
    [-1, -0.0, 0], the negated output map [1, 0] and its signed zero;
    v_ref enters through the second disturbance column.
    """
    rt, lt, ct = params.r_t, params.l_t, params.c_t
    a_hat_ii = np.array([[0.0, 1.0 / ct, 0.0],
                         [-1.0 / lt, -rt / lt, 0.0],
                         [-1.0, -0.0, 0.0]])
    b_hat = np.array([[0.0], [1.0 / lt], [0.0]])
    m_hat = np.array([[-1.0 / ct, 0.0],
                      [0.0, 0.0],
                      [0.0, 1.0]])
    h_hat = np.array([[1.0, 0.0, 0.0]])
    return AugmentedDgu(a_hat_ii, b_hat, m_hat, h_hat)


def assemble_global(topology: MicrogridTopology) -> GlobalSystem:
    """Stack per-DGU blocks into the microgrid system (line-independent mode).

    Block order follows ascending DGU id.  The returned decomposition is
    exact by construction: a_d collects the a_hat_ii blocks, a_xi the QSL
    self terms -sum_j 1/(R_ij C_ti) on the voltage diagonal, a_c the
    off-diagonal coupling blocks.  Lines enter the grid here and nowhere
    else, each stamped once, in topology order.
    """
    ids = topology.ids
    n = len(ids)
    pos = {dgu_id: k for k, dgu_id in enumerate(ids)}
    a_d = np.zeros((3 * n, 3 * n))
    a_xi = np.zeros((3 * n, 3 * n))
    a_c = np.zeros((3 * n, 3 * n))
    b_hat = np.zeros((3 * n, n))
    m_hat = np.zeros((3 * n, 2 * n))
    h_hat = np.zeros((n, 3 * n))
    for k, dgu_id in enumerate(ids):
        hat = augmented_dgu(topology.dgus[dgu_id])
        s = slice(3 * k, 3 * k + 3)
        a_d[s, s] = hat.a_hat_ii
        b_hat[s, k] = hat.b_hat[:, 0]
        m_hat[s, 2 * k:2 * k + 2] = hat.m_hat
        h_hat[k, s] = hat.h_hat[0]
    for ln in topology.lines:
        for i, j in ((ln.i, ln.j), (ln.j, ln.i)):
            vi, vj = 3 * pos[i], 3 * pos[j]
            conductance = 1.0 / (ln.r * topology.dgus[i].c_t)
            a_xi[vi, vi] -= conductance
            a_c[vi, vj] = conductance
    return GlobalSystem(ids, a_d + a_xi + a_c, b_hat, m_hat, h_hat, a_d, a_xi, a_c)


def closed_loop(system: GlobalSystem,
                controllers: Mapping[int, object]) -> np.ndarray:
    """F = a_hat + b_hat K, K the block-diagonal stack of the gain rows.

    A controller is anything carrying a gain row `k`, or the bare row
    itself, so baseline designs can be inspected like synthesized ones.
    """
    n = len(system.ids)
    gains = np.array([getattr(controllers[dgu_id], "k", controllers[dgu_id])
                      for dgu_id in system.ids], dtype=float).reshape(n, 3)
    idx = np.arange(n)
    # b_hat K is block diagonal: unit i's block is the outer product of
    # its input column and its gain row
    inputs = system.b_hat.reshape(n, 3, n)[idx, :, idx]
    f = np.array(system.a_hat)
    f.reshape(n, 3, n, 3)[idx, :, idx, :] += (inputs[:, :, None]
                                              * gains[:, None, :])
    return f


def appendix_a_matrices(params: DguParams, line: LineParams) -> np.ndarray:
    """Augmented 3x3 diagonal block with the line self term folded in.

    The two-converter benchmark writes each DGU's diagonal block with the
    QSL self conductance on the (1,1) entry instead of splitting it out; the
    assembled coupled matrix is identical either way, only the bookkeeping
    differs.
    """
    hat = augmented_dgu(params)
    a = hat.a_hat_ii.copy()
    a[0, 0] -= 1.0 / (line.r * params.c_t)
    return a


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(a @ cols[-1])
    return np.hstack(cols)
