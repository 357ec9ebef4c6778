"""Closed-loop time-domain simulation with plug-and-play event handling.

Between events the closed loop x' = Ax + c is linear time-invariant, so
it is one matrix M = [[A, c], [0, 0]] acting on [x; 1], and a fixed-step
RK4 update is one matrix too: exp(hM)'s fourth-order Taylor polynomial,
assembled once per segment.  Every record slot is a whole number of
those steps, so its map is that matrix's power, which keeps long runs
cheap: each run of slots with one step count is filled a block of rows
at a time from that count's power stack, one matrix-vector product per
block (see _Segment).  The states differ from a slot-by-slot loop's by
rounding only.  Event timestamps never drift: the step straddling an
event is split so the boundary is hit exactly, and after an event off
the dt grid one short step returns to it, so later samples stay on the
record grid.  Recording tests the state rows for divergence a stretch at
a time and writes them straight into one table, allocated unfilled
before the first step: the time and each unit's (V, It, v).  The control
u = k x_hat is not stored; it is derived where it is read, from each
segment's gain rows (see Trajectory).  Writing the CSV is mostly float
formatting, done by orjson with the bytes repr() gives, and a few
in-place edits of each chunk's bytes turn its JSON into CSV lines (see
_write_rows).  Formatting holds the GIL, so trajectory_to_csv formats
contiguous row ranges in up to one forked process per available CPU (the
_forks helper, which synthesis shares) and joins them in order; the
bytes are those of a single pass.  Both writers replace the file at
their path rather than truncate it (see _create).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import shutil
from dataclasses import dataclass, replace
from typing import (IO, ClassVar, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np
import orjson

from . import _forks
from .model import (DguParams, Gain, LineParams, LoadModel,
                    MicrogridTopology, TopologyError, _frozen, _positive,
                    assemble_global, augmented_dgu, block_diagonal,
                    closed_loop_blocks, gain_row)
from .synthesis import Denied, LocalController, SynthesisConfig, synthesize

QSL = "qsl"
RL = "rl"

ACCEPTED = "accepted"
APPLIED = "applied"

DIVERGENCE_LIMIT = 1e9
CHECK_ROWS = 1024  # samples stepped between two divergence checks
CSV_CHUNK = 1024  # trajectory rows formatted per write
CSV_RANGE = 4096  # one CSV row range per this many rows, up to one a CPU
# bytes of matrices in one step count's power stack: 128 deep at n = 15
# states, 48 at n = 25 and one deep from n = 128 (see _Segment.powers)
_STACK_BYTES = 1 << 18

@dataclass(frozen=True)
class PlugIn:
    """Request to connect a new DGU through the given lines."""

    kind: ClassVar[str] = "plug_in"
    t: float
    dgu_id: int
    params: DguParams
    lines: Tuple[LineParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))


@dataclass(frozen=True)
class Unplug:
    kind: ClassVar[str] = "unplug"
    t: float
    dgu_id: int


@dataclass(frozen=True)
class LoadStep:
    kind: ClassVar[str] = "load_step"
    t: float
    dgu_id: int
    load: LoadModel


@dataclass(frozen=True)
class RefStep:
    kind: ClassVar[str] = "ref_step"
    t: float
    dgu_id: int
    v_ref: float


Event = Union[PlugIn, Unplug, LoadStep, RefStep]
Design = Union[LocalController, Denied]  # a newcomer's verdict


@dataclass(frozen=True)
class Scenario:
    """Experiment description: initial grid, timeline, integration knobs.

    The initial topology holds at least one DGU.  Event times must be
    sorted and lie strictly inside (0, t_end); ties are allowed and fire
    in list order.  sigma_bar, t_end, dt and record_dt must be positive,
    and of dt and record_dt one must be a whole multiple of the other
    (within 1e-9 relative), so the recorded rows fall on the record grid.
    alphas, when given, override the synthesis objective weights in
    synthesis_config(), which designs the plug-in newcomers (before the
    run in the CLI, else at their events) and, in the CLI, the initial
    units.
    """

    initial_topology: MicrogridTopology
    sigma_bar: float
    events: Tuple[Event, ...] = ()
    t_end: float = 1.0
    dt: float = 1e-5
    line_model: str = QSL
    alphas: Optional[Tuple[float, float, float, float, float]] = None
    record_dt: float = 1e-4

    def __post_init__(self):
        if not self.initial_topology.dgus:
            raise ValueError("initial topology must hold at least one DGU")
        for name in ("sigma_bar", "t_end", "dt", "record_dt"):
            _positive(name, getattr(self, name))
        ratio = max(self.dt, self.record_dt) / min(self.dt, self.record_dt)
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"dt {self.dt:g} and record_dt {self.record_dt:g} must be"
                " whole multiples of one another")
        if self.line_model not in (QSL, RL):
            raise ValueError(f"line_model must be {QSL!r} or {RL!r}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        last = 0.0
        for ev in events:
            if not 0.0 < ev.t < self.t_end:
                raise ValueError("event times must lie strictly inside (0, t_end)")
            if ev.t < last:
                raise ValueError("events must be sorted by time")
            last = ev.t
        if self.line_model == RL:
            lines = list(self.initial_topology.lines)
            for ev in events:
                if isinstance(ev, PlugIn):
                    lines.extend(ev.lines)
            for ln in lines:
                if ln.l is None:
                    raise ValueError(
                        f"line {ln.key} has no inductance; required for the"
                        f" {RL!r} line model")
        if self.alphas is not None:
            object.__setattr__(self, "alphas", tuple(self.alphas))

    def synthesis_config(self) -> SynthesisConfig:
        if self.alphas is None:
            return SynthesisConfig(self.sigma_bar)
        return SynthesisConfig(self.sigma_bar, self.alphas)


@dataclass(frozen=True)
class EventRecord:
    t: float
    event: str
    outcome: str


@dataclass(frozen=True)
class DivergedAt:
    """Marks where |state| left the admissible range (or went non-finite)."""

    t: float
    max_abs: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: one read-only sample table, the gain rows each stretch
    of it ran under, and the event log.

    table holds what the integrator produced: one row per sample, the
    time, then V, It and v of each DGU in id order, NaN while the DGU is
    not part of the grid.  segments holds, for each constant-topology
    stretch in order, its first row and its read-only (len(ids), 3) stack
    of gain rows in id order (NaN rows for the ids it lacks); a stretch
    ends where the next begins.  The control u = k x_hat is not stored:
    rows() derives it from those gain rows, and series[i] (columns V, It,
    v, u) and column(i, "u") are new read-only arrays holding it, computed
    afresh on each access.  times and the other columns are read-only
    views of table.  The exact final state vector
    (layout of final_topology, RL line currents included) is kept so
    runs can be chained without re-simulation.
    """

    table: np.ndarray
    segments: Tuple[Tuple[int, np.ndarray], ...]
    ids: Tuple[int, ...]
    events: Tuple[EventRecord, ...]
    final_topology: MicrogridTopology
    final_state: np.ndarray
    diverged: Optional[DivergedAt] = None

    COLUMNS: ClassVar[Tuple[str, ...]] = ("V", "It", "v", "u")

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def series(self) -> Dict[int, np.ndarray]:
        """Each DGU's columns V, It, v and u: views of one read-only
        rows() table, which each access builds anew."""
        rows = _frozen(self.rows(0, len(self.table)))
        return {i: rows[:, 1 + 4 * k:5 + 4 * k]
                for k, i in enumerate(self.ids)}

    def column(self, dgu_id: int, name: str) -> np.ndarray:
        """One column of one DGU: a view of table, or for u a new
        read-only array, that DGU's einsum of rows() on its own slice."""
        k = self.ids.index(dgu_id)
        if name != "u":
            return self.table[:, 1 + 3 * k + self.COLUMNS.index(name)]
        x = self.table[:, 1 + 3 * k:4 + 3 * k].reshape(-1, 1, 3)
        u = np.empty((len(self.table), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for first, end, gains in self._stretches():
                u[first:end] = np.einsum("ij,tij->ti", gains[k:k + 1],
                                         x[first:end])
        return _frozen(u[:, 0])

    def _stretches(self) -> List[Tuple[int, int, np.ndarray]]:
        """Each segment as its rows first..end-1 and its gain rows."""
        ends = [first for first, _ in self.segments[1:]] + [len(self.table)]
        return [(first, end, gains)
                for (first, gains), end in zip(self.segments, ends)]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The CSV's rows lo..hi-1 as a new array: the time, then V, It, v
        and u of each DGU.  u = k x_hat is each row's states times its
        segment's gain rows, one einsum per segment, NaN where the DGU is
        absent."""
        n = len(self.ids)
        out = np.empty((hi - lo, 1 + 4 * n))
        out[:, 0] = self.table[lo:hi, 0]
        units = out[:, 1:].reshape(hi - lo, n, 4)  # a view
        x = units[:, :, :3]
        x[...] = self.table[lo:hi, 1:].reshape(hi - lo, n, 3)
        # a runaway's kept rows may overflow, as its states did
        with np.errstate(over="ignore", invalid="ignore"):
            for first, end, gains in self._stretches():
                a, b = max(first, lo) - lo, min(end, hi) - lo
                if a < b:
                    units[a:b, :, 3] = np.einsum("ij,tij->ti", gains, x[a:b])
        return out


def _build_ode(top: MicrogridTopology, controllers: Mapping[int, Gain],
               line_model: str) -> np.ndarray:
    """Assemble x' = Ax + c for the closed loop over the whole grid as its
    generator M = [[A, c], [0, 0]], which acts on [x; 1].

    The unit blocks come from the one closed-loop assembly.  Resistive
    loads fold into the voltage diagonal; current loads and voltage
    references enter the constant term through each unit's disturbance
    columns.  QSL keeps the assembled line conductances, RL takes the
    self terms back out of the blocks and adds one current state per
    line instead.
    """
    system = assemble_global(top)
    blocks = closed_loop_blocks(system, controllers)
    n_lines = 0
    if line_model == RL:
        blocks[:, 0, 0] -= system.self_terms
        a = block_diagonal(blocks)
        n_lines = len(top.lines)
    else:
        a = system.expand(blocks)
    disturbance = np.zeros((len(top.ids), 2))
    for k, dgu_id in enumerate(top.ids):
        p = top.dgus[dgu_id]
        if p.load.kind == "resistance":
            a[3 * k, 3 * k] -= 1.0 / (p.load.value * p.c_t)
        else:
            disturbance[k, 0] = p.load.value
        disturbance[k, 1] = p.v_ref
    base = a.shape[0]
    m = np.pad(a, (0, n_lines + 1))  # its last row stays zero
    m[:base, -1] = (system.unit_m @ disturbance[:, :, None]).ravel()
    if line_model == RL:
        lines = zip(top.lines, 3 * system.line_i, 3 * system.line_j)
        for row, (ln, si, sj) in enumerate(lines, base):
            # line current is oriented from ln.i to ln.j
            m[row, si] = 1.0 / ln.l
            m[row, sj] = -1.0 / ln.l
            m[row, row] = -ln.r / ln.l
            m[si, row] -= 1.0 / top.dgus[ln.i].c_t
            m[sj, row] += 1.0 / top.dgus[ln.j].c_t
    return m


def _step(m: np.ndarray, h: float) -> np.ndarray:
    """RK4 applied to [x; 1]' = M [x; 1]: exp(hM)'s quartic Taylor
    polynomial, in Horner form."""
    eye = np.eye(len(m))
    hm = h * m
    s = eye + hm / 4.0
    s = eye + (hm / 3.0) @ s
    s = eye + (hm / 2.0) @ s
    return eye + hm @ s


class _Segment:
    """One constant-topology stretch: its step map and its samples.

    The state run() steps is [x; 1], so one step is the matrix
    step = _step(M, dt) and k steps are its k-th power.  run() counts the
    record slots in whole steps and hands their step counts to _fill a
    stretch of CHECK_ROWS samples at a time.  _fill takes each run of
    slots with one step count k from that count's power stack (see
    powers): S^j for S = step^k, stacked for j = 1..D, so the next m <= D
    rows of the stretch's block are the stack's first m entries times
    [x; 1], one gemv into the block, and the block's last row starts the
    next block.  At the shipped sizes call overhead is most of a step's
    cost, so this takes about 0.4 times the time of a gemv per slot.
    Rounding differs from the slot-by-slot `state = S @ state`: the
    shipped QSL and RL runs moved by at most 3.0e-10, against RK4's own
    2e-9 error there.  A stack one deep gives that loop's bits exactly:
    S.dot(x, out=row) makes the same BLAS gemv call as `@`.  The stacks
    are built in run() and dropped when it returns.  record() then checks
    the stretch and writes the rows it keeps into the table's next rows,
    from pos on: x in its units' column blocks, NaN in the other ids'
    (the table is allocated unfilled); it sees x, never the 1.  gains is
    the segment's stack of gain rows over the table's ids, NaN rows for
    the ids it lacks, which the Trajectory keeps to derive u.
    """

    def __init__(self, top: MicrogridTopology, controllers: Mapping[int, Gain],
                 line_model: str, dt: float, table: np.ndarray,
                 ids: Sequence[int], pos: int):
        self.ids = top.ids
        self.dt = dt
        self.m = _build_ode(top, controllers, line_model)
        self.step = _step(self.m, dt)
        self.table, self.pos = table, pos  # pos: the next row to write
        self.units = table[:, 1:].reshape(len(table), len(ids), 3)  # a view
        self.cols = np.searchsorted(ids, self.ids)  # the table's ids, sorted
        self.absent = np.delete(np.arange(len(ids)), self.cols)
        self.gains = np.full((len(ids), 3), np.nan)
        self.gains[self.cols] = [gain_row(controllers[i]) for i in self.ids]
        self.gains.setflags(write=False)

    def record(self, times: np.ndarray, states: np.ndarray
               ) -> Optional[Tuple[np.ndarray, DivergedAt]]:
        """Write a stretch of samples into the table's next rows, or cut
        it at the first row out of range and return that row's state and
        DivergedAt.  A row over DIVERGENCE_LIMIT is kept, a non-finite row
        is dropped and reported as max_abs = inf.  RL line currents are
        not recorded."""
        if not len(times):
            return None
        peak = np.abs(states).max(axis=1)  # NaN where a row holds one
        bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
        keep, cut = len(states), None
        if bad.size:
            k = int(bad[0])
            t, max_abs, keep = float(times[k]), float(peak[k]), k + 1
            if not math.isfinite(max_abs):
                max_abs, keep = math.inf, k
            cut = states[k].copy(), DivergedAt(t, max_abs)
        lo, hi = self.pos, self.pos + keep
        assert hi <= len(self.table), "more samples than simulate() bounds"
        self.table[lo:hi, 0] = times[:keep]
        n = len(self.cols)
        block = self.units[lo:hi]  # a view of the table
        block[:, self.cols] = states[:keep, :3 * n].reshape(keep, n, 3)
        block[:, self.absent] = np.nan
        self.pos = hi
        return cut

    def short_step(self, state: np.ndarray, h: float) -> np.ndarray:
        return _step(self.m, h) @ state

    def powers(self, stacks, count, depth):
        """The power stack of S = step^count, in stacks by count: S^j in
        entry j - 1.  It is extended to `depth`, the run about to use it,
        as far as _STACK_BYTES of matrices allows, and is at least one
        deep."""
        p = stacks.get(count)
        if p is None:
            p = np.linalg.matrix_power(self.step, count)[None]
        depth = min(depth, max(1, _STACK_BYTES // p[0].nbytes))
        if len(p) < depth:
            have = len(p)
            p = np.concatenate([p, np.empty((depth - have,) + p[0].shape)])
            for j in range(have, depth):
                np.dot(p[0], p[j - 1], out=p[j])
        stacks[count] = p
        return p

    def _fill(self, state, counts, stacks):
        """The states after each slot of a stretch, as rows of one block:
        row i has taken counts[:i + 1].sum() steps from [x; 1], and a slot
        of zero steps copies the state."""
        n = len(state)
        states = np.empty((len(counts), n))
        bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(),
                  len(counts)]
        for lo, hi in zip(bounds, bounds[1:]):
            count = int(counts[lo])
            if not count:
                states[lo:hi] = state
                continue
            p = self.powers(stacks, count, hi - lo)
            size = len(p) * n  # of a whole block's rows, flat
            p = p.reshape(size, n)
            flat = states[lo:hi].reshape(-1)
            whole = len(flat) - len(flat) % size
            dot = p.dot
            for block in flat[:whole].reshape(-1, size):
                dot(state, block)
                state = block[-n:]
            rest = flat[whole:]
            if len(rest):
                np.dot(p[:len(rest)], state, out=rest)
                state = rest[-n:]
        return states

    def run(self, state, t0, t1, record_dt):
        """Integrate [t0, t1), recording interior record-grid samples; the
        t1 sample is left to the caller (it may follow an event), and the
        t0 sample, taken already, fills any record slot t0 lands on.
        Returns (state, t_reached, diverged_or_none), the cut row's state
        and time on divergence.

        Slot j ends at step j * per of the dt grid, per = record_dt / dt
        rounded and at least one, so with dt > record_dt a sample is taken
        every dt.  Each slot due after t0 and ending before t1 is a
        sample, stamped t0 plus its steps from t0 times dt.  One more slot
        steps to the last grid point up to t1 and records nothing, and a
        short step then reaches t1.  The slots go through _fill
        CHECK_ROWS samples at a time, the last stretch with that final
        slot as a spare row, and record() checks each stretch before the
        next is stepped.  The steps act on [state; 1], and every state
        that leaves run() or reaches record() is x alone.
        """
        state = np.append(state, 1.0)
        dt = self.dt
        per = max(1, round(record_dt / dt))
        end = t1 - 1e-9 * max(1.0, t1)
        slot = math.floor(t0 / (per * dt) + 1e-6) + 1  # the first slot due
        # a runaway may overflow between two checks; the cut drops it
        with np.errstate(over="ignore", invalid="ignore"):
            # t0 off the dt grid (an event time): one short step back onto
            # it, so the samples after t0 fall on the record grid
            grid = math.ceil(t0 / dt - 1e-6) * dt
            if grid - t0 > 1e-6 * dt and grid < end:
                state, t0 = self.short_step(state, grid - t0), grid
            first = round(t0 / dt)  # t0's point of the dt grid
            k, final, stacks = 0, False, {}  # k: steps taken from t0
            while not final:
                ends = (slot + np.arange(CHECK_ROWS)) * per
                ends = ends[ends * dt < end]  # the samples
                slot += len(ends)
                steps = ends - first  # from t0
                final = len(steps) < CHECK_ROWS
                if final:
                    steps = np.append(
                        steps, math.floor((t1 - t0) / dt + 1e-6))
                states = self._fill(state, np.diff(steps, prepend=k),
                                    stacks)
                k, state = int(steps[-1]), states[-1].copy()
                cut = self.record(t0 + steps[:len(ends)] * dt,
                                  states[:len(ends), :-1])
                if cut is not None:
                    return cut[0], cut[1].t, cut[1]
            t_cur = t0 + k * dt
            if t1 - t_cur > 1e-9 * dt:
                state = self.short_step(state, t1 - t_cur)
        return state[:-1], t1, None


def steady_state(topology: MicrogridTopology, controllers: Mapping[int, Gain],
                 line_model: str = QSL) -> np.ndarray:
    """Equilibrium of the closed loop (full state vector, layout order).

    The integrator rows force V_i = v_ref_i at any equilibrium; the rest
    of the vector follows from the linear solve.
    """
    m = _build_ode(topology, controllers, line_model)
    try:
        return np.linalg.solve(m[:-1, :-1], -m[:-1, -1])
    except np.linalg.LinAlgError as exc:
        raise ValueError("closed-loop matrix is singular; no unique"
                         " equilibrium") from exc


def _isolated_steady(params: DguParams, controller: Gain) -> np.ndarray:
    solo = MicrogridTopology({0: params}, ())
    return steady_state(solo, {0: controller})


def attempt_plug_in(topology: MicrogridTopology, dgu_id: int,
                    params: DguParams, lines: Sequence[LineParams],
                    cfg: SynthesisConfig,
                    designs: Optional[Mapping[DguParams, Design]] = None,
                    ) -> Design:
    """Plug-in protocol: synthesize the newcomer, touch nothing else.

    Neighbours keep their controllers; the caller extends the topology on
    acceptance.  Structural mistakes (duplicate id, dangling line) raise,
    an infeasible or degenerate design returns Denied.  The design is the
    verdict designs holds for params, made beforehand at cfg, or else one
    synthesized here.
    """
    if dgu_id in topology.dgus:
        raise TopologyError(f"DGU {dgu_id} already present")
    lines = tuple(lines)
    if not lines:
        return Denied("would be isolated")
    for ln in lines:
        if dgu_id not in ln.key:
            raise TopologyError(f"line {ln.key} does not touch DGU {dgu_id}")
        if ln.other(dgu_id) not in topology.dgus:
            raise TopologyError(
                f"line {ln.key} references unknown DGU {ln.other(dgu_id)}")
    if designs is not None and params in designs:
        return designs[params]
    return synthesize(augmented_dgu(params), params, cfg)


def attempt_unplug(topology: MicrogridTopology,
                   dgu_id: int) -> Union[MicrogridTopology, Denied]:
    """Unplug protocol: accept iff the remaining grid stays connected."""
    remaining = topology.without_dgu(dgu_id)  # raises on unknown id
    if not remaining.dgus:
        return Denied("cannot unplug the last DGU")
    if not remaining.is_connected():
        return Denied("disconnects the remaining grid")
    return remaining


def _default_state(scenario, top, controllers):
    # a remap from the empty grid: each unit starts pre-charged at its own
    # isolated operating point, each RL line current at zero
    fresh = {i: _isolated_steady(top.dgus[i], controllers[i]) for i in top.ids}
    return _remap_state(np.zeros(0), MicrogridTopology({}, ()), top,
                        scenario.line_model, fresh)


def _remap_state(state, old_top, new_top, line_model, fresh=None):
    """Carry a state vector from old_top's layout to new_top's.

    Units keep their entries by id and RL line currents by line key; a
    unit new to the grid takes fresh[id], a new line starts at zero.
    """
    units = {i: state[3 * k:3 * k + 3] for k, i in enumerate(old_top.ids)}
    units.update(fresh or {})
    parts = [units[i] for i in new_top.ids]
    if line_model == RL:
        base = 3 * len(old_top.ids)
        currents = {ln.key: state[base + m]
                    for m, ln in enumerate(old_top.lines)}
        parts.append([currents.get(ln.key, 0.0) for ln in new_top.lines])
    return np.concatenate(parts)


def _apply_event(ev, top, controllers, state, line_model, cfg, designs):
    """Apply one event: returns (state, topology, outcome).  An accepted
    plug-in adds the newcomer's controller to controllers and an accepted
    unplug drops the unit's; no other controller is touched."""
    if isinstance(ev, PlugIn):
        snapshot = {i: gain_row(c).copy() for i, c in controllers.items()}
        result = attempt_plug_in(top, ev.dgu_id, ev.params, ev.lines, cfg,
                                 designs)
        if isinstance(result, Denied):
            return state, top, f"denied: {result.reason}"
        for i, gain in snapshot.items():
            if not np.array_equal(gain, gain_row(controllers[i])):
                raise RuntimeError("plug-in protocol modified an existing"
                                   " controller")
        new_top = top.with_dgu(ev.dgu_id, ev.params, ev.lines)
        controllers[ev.dgu_id] = result
        fresh = {ev.dgu_id: _isolated_steady(ev.params, result)}
        return (_remap_state(state, top, new_top, line_model, fresh),
                new_top, ACCEPTED)
    if ev.dgu_id not in top.dgus:
        return state, top, f"skipped: DGU {ev.dgu_id} not present"
    if isinstance(ev, Unplug):
        result = attempt_unplug(top, ev.dgu_id)
        if isinstance(result, Denied):
            return state, top, f"denied: {result.reason}"
        controllers.pop(ev.dgu_id)
        return _remap_state(state, top, result, line_model), result, ACCEPTED
    # load and reference steps: instantaneous parameter changes
    change = ({"load": ev.load} if isinstance(ev, LoadStep)
              else {"v_ref": ev.v_ref})
    params = replace(top.dgus[ev.dgu_id], **change)
    return state, top.replace_params(ev.dgu_id, params), APPLIED


def simulate(scenario: Scenario, controllers: Mapping[int, Gain],
             initial_state: Optional[np.ndarray] = None,
             designs: Optional[Mapping[DguParams, Design]] = None,
             ) -> Trajectory:
    """Integrate the scenario, enforcing the plug protocol at each event.

    controllers holds one controller per initial DGU.  A plug-in newcomer
    takes the verdict designs holds for its params, which must have been
    made with scenario.synthesis_config(); one designs does not hold is
    synthesized at its event from the scenario's sigma_bar and weights.
    Either way the newcomer's own parameters alone decide it.  By default
    each DGU starts at its isolated operating point (line currents at zero
    in RL mode); pass initial_state to override.  Divergence does not
    raise: the returned trajectory is truncated and carries a DivergedAt
    marker.  The run writes each sample's time and unit states once,
    straight into a table allocated unfilled (a run cut early touches
    only the rows it wrote), and the trajectory holds a read-only view of
    those rows and each segment's gain rows, from which it derives u.
    """
    top = scenario.initial_topology
    if not top.is_connected():
        raise TopologyError("initial topology must be connected")
    cfg = scenario.synthesis_config()
    model, dt = scenario.line_model, scenario.dt
    controllers = dict(controllers)
    if set(controllers) != set(top.ids):
        raise ValueError("controllers must cover exactly the initial topology")

    if initial_state is None:
        state = _default_state(scenario, top, controllers)
    else:
        state = np.asarray(initial_state, dtype=float).copy()
        expected = 3 * len(top.ids) + (len(top.lines) if model == RL else 0)
        if state.shape != (expected,):
            raise ValueError(f"initial state must have length {expected}")
        if not np.all(np.isfinite(state)):
            raise ValueError("initial state must be finite")

    records: List[EventRecord] = []
    diverged: Optional[DivergedAt] = None
    pending = list(scenario.events)
    t_cursor = 0.0

    # Only the initial units and plug-in ids can join.  The samples: one
    # at t = 0, one after each run() (len(events) + 1 runs at most, each
    # ending at an event or t_end), and run()'s slots.  Slot j ends at
    # j * per * dt; a run() takes those after its t0 ending before its t1
    # less 1e-9 relative (far above rounding), and the next starts past
    # them, so no slot repeats and 1 <= j < t_end / (per * dt).
    ids = sorted({*top.ids, *(ev.dgu_id for ev in pending
                              if isinstance(ev, PlugIn))})
    per = max(1, round(scenario.record_dt / dt))
    rows = math.ceil(scenario.t_end / (per * dt)) + len(pending) + 1
    table = np.empty((rows, 1 + 3 * len(ids)))
    joined = set(top.ids)
    seg = _Segment(top, controllers, model, dt, table, ids, 0)
    segments = [(0, seg.gains)]
    while True:
        # the sample at t = 0, or after a stretch and its events
        cut = seg.record(np.array([t_cursor]), np.array([state]))
        if cut is not None:
            state, diverged = cut
        if diverged is not None or t_cursor >= scenario.t_end:
            break
        t_next = pending[0].t if pending else scenario.t_end
        state, t_cursor, diverged = seg.run(state, t_cursor, t_next,
                                            scenario.record_dt)
        if diverged is not None:
            break
        changed = False
        boundary = t_cursor + 1e-12 * max(1.0, t_cursor)
        while pending and pending[0].t <= boundary:
            ev = pending.pop(0)
            state, top, outcome = _apply_event(
                ev, top, controllers, state, model, cfg, designs)
            records.append(EventRecord(t_cursor, f"{ev.kind} dgu={ev.dgu_id}",
                                       outcome))
            changed = changed or outcome in (ACCEPTED, APPLIED)
        if changed:
            seg = _Segment(top, controllers, model, dt, table, ids, seg.pos)
            segments.append((seg.pos, seg.gains))
            joined.update(top.ids)

    table = table[:seg.pos]
    joins = np.isin(ids, [*joined])
    if not joins.all() or 2 * seg.pos < rows:
        # a copy without denied newcomers' columns or the rows left
        # unused, and their gain rows
        table = table.compress(np.r_[True, np.repeat(joins, 3)], axis=1)
        segments = [(first, _frozen(gains[joins]))
                    for first, gains in segments]
    table.setflags(write=False)
    return Trajectory(table, tuple(segments), tuple(sorted(joined)),
                      tuple(records), top, state.copy(), diverged)


def _range_count(rows: int) -> int:
    """Row ranges trajectory_to_csv formats at once: one per CSV_RANGE
    rows or part, capped by _forks.range_count, so a table of at most
    CSV_RANGE rows forks nothing."""
    return _forks.range_count(-(-rows // CSV_RANGE))


def _repr_lines(rows: np.ndarray) -> bytes:
    return "".join([",".join(map(repr, row)) + "\r\n"
                    for row in rows.tolist()]).encode()


def _orjson_lines(rows: np.ndarray) -> bytearray:
    # b"[[a,null],[c,d]]" -> b"a,nan\r\nc,d\r\n" (see _write_rows)
    text = bytearray(orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY))
    buf = np.frombuffer(text, dtype=np.uint8)  # edits text in place
    ends = np.flatnonzero(buf == ord("]"))[:-1]  # each row's "]"
    buf[ends] = ord("\r")
    buf[ends + 1] = ord("\n")  # the "," after a row, or the outer "]"
    nulls = np.flatnonzero(buf == ord("u"))
    buf[nulls + 1] = ord("a")
    buf[nulls + 2] = ord("n")
    return text.translate(None, b"[u")


def _write_rows(fh: IO[bytes], rows: np.ndarray) -> None:
    """csv.writer's lines (repr() cells, CRLF ends) of rows, as bytes, a
    CSV_CHUNK-row chunk at a time, so no more than a chunk's text is held.

    orjson (Ryu) and repr() (Gay's dtoa) both write the shortest digits
    that read back to the same double, the closest such where there is a
    choice, so they give the same digits.  They also place them the same
    way, positionally with a ".0" on whole numbers, for every double in
    [1e-4, 1e16), for 0.0 and -0.0, and for NaN once orjson's null reads
    nan.  Outside that range the notations differ
    (0.00007754432846917344 for 7.754432846917344e-05, 1e16 for 1e+16,
    null for inf).  So a row holding an odd cell, one with
    0 < |x| < 1e-4 or |x| >= 1e16, inf included, keeps its repr() line,
    and every run of other rows is one orjson call.  Once inf is odd,
    NaN is the only cell orjson writes as null.

    orjson writes such a run with digits, ".", "-", ",", "[", "]" and
    "null" only, so _orjson_lines edits a copy of its bytes in place with
    numpy: each row's "]" becomes CR and the "," or outer "]" after it
    LF, and each "null" reads "nuan"; one bytearray.translate then drops
    every "[" and "u".
    """
    for start in range(0, len(rows), CSV_CHUNK):
        chunk = np.ascontiguousarray(rows[start:start + CSV_CHUNK],
                                     dtype=float)
        cells = np.abs(chunk)
        odd = (((cells > 0.0) & (cells < 1e-4)) | (cells >= 1e16)).any(axis=1)
        # the bounds of each run of odd rows and each run of other rows
        cuts = [0, *(np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist(),
                len(chunk)]
        for lo, hi in zip(cuts, cuts[1:]):
            fh.write((_repr_lines if odd[lo] else _orjson_lines)(
                chunk[lo:hi]))


def _write_range(traj: Trajectory, lo: int, hi: int, fh: IO[bytes]) -> None:
    """The CSV lines of traj's rows lo..hi-1, CSV_CHUNK rows at a time."""
    for start in range(lo, hi, CSV_CHUNK):
        _write_rows(fh, traj.rows(start, min(start + CSV_CHUNK, hi)))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,dgu<i>.V,dgu<i>.It,dgu<i>.v,dgu<i>.u,...` in id order.

    Each cell is written as repr() writes it, CRLF ending each row, as
    csv.writer does (see _write_rows for how orjson gives those bytes).
    The rows are assembled CSV_CHUNK at a time from the table, u derived
    by Trajectory.rows, and each chunk goes to _write_rows, so no more
    than a chunk's rows and text is held at once.  Formatting the cells
    is most of the time, and it holds the GIL, so the rows are split
    into _range_count() contiguous ranges (see _forks).  Forked children
    format ranges 1 and up into their spools, calling no BLAS routine
    (u is an einsum, numpy's own loop), while this process formats range
    0 straight into the file, then appends each child's spool in order,
    1 MiB at a time.  The bytes do not depend on the range count.
    Every child is reaped before the call returns or raises; a child that
    failed raises RuntimeError.  The file is replaced, not truncated (see
    _create).
    """
    rows = len(traj.table)
    with _forks.forked_ranges(rows, _range_count(rows),
                              functools.partial(_write_range, traj),
                              "CSV writer") as (end, spools):
        with _create(path, "wb") as fh:
            fh.write((",".join(["t"] + [f"dgu{i}.{col}" for i in traj.ids
                                        for col in Trajectory.COLUMNS])
                      + "\r\n").encode())
            _write_range(traj, 0, end, fh)
            for spool in spools:
                shutil.copyfileobj(spool, fh, 1 << 20)


def event_log_lines(traj: Trajectory) -> List[str]:
    lines = [json.dumps({"t": r.t, "event": r.event, "outcome": r.outcome})
             for r in traj.events]
    if traj.diverged is not None:
        lines.append(json.dumps({"t": traj.diverged.t, "event": "divergence",
                                 "outcome": f"|state| reached "
                                            f"{traj.diverged.max_abs:.3e}"}))
    return lines


def _create(path, mode: str) -> IO:
    """open(path, mode) on a new file: whatever is at path is unlinked
    first.  On ext4 with auto_da_alloc (the default), closing a file
    that was truncated and rewritten starts its writeback at once, and
    after the 67 MB trajectory that held up the next small write by
    about 25 ms; an unlinked file's blocks are just freed.  So a symlink
    at path is replaced by a regular file, and a hard link to the old
    file keeps the old bytes."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, mode)


def write_event_log(traj: Trajectory, path) -> None:
    """One JSON object per event, then one for a divergence, per line;
    the file is replaced, not truncated (see _create)."""
    with _create(path, "w") as fh:
        for line in event_log_lines(traj):
            fh.write(line + "\n")
