"""Closed-loop time-domain simulation with plug-and-play event handling.

Between events the closed loop is linear time-invariant, so a fixed-step
RK4 update collapses to an affine map x -> Rx + w with R and w assembled
once per segment from the fourth-order Taylor truncation of exp(hA).
Steps between recorded samples are composed into a single affine map,
which keeps long runs cheap.  Event timestamps never drift: the step
straddling an event is split so the boundary is hit exactly, and after an
event off the dt grid one short step returns to it, so later samples stay
on the record grid.  Recording keeps the state rows only and tests them
for divergence a stretch at a time; the trajectory is then assembled as
one read-only table in the CSV's layout, with u = k x_hat per unit.
Writing that table is mostly float formatting, which holds the GIL, so
trajectory_to_csv formats contiguous row ranges in up to one forked
process per available CPU (the _forks helper, which synthesis shares)
and joins them in order; the bytes are those of a single pass.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, replace
from typing import (IO, ClassVar, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from . import _forks
from .model import (DguParams, LineParams, LoadModel, MicrogridTopology,
                    TopologyError, assemble_global, augmented_dgu,
                    block_diagonal, closed_loop_blocks)
from .synthesis import Denied, LocalController, SynthesisConfig, synthesize

QSL = "qsl"
RL = "rl"

ACCEPTED = "accepted"
APPLIED = "applied"

DIVERGENCE_LIMIT = 1e9
CHECK_ROWS = 1024  # samples recorded between two divergence checks
CSV_CHUNK = 4096  # trajectory rows formatted per write

#: Controllers may be full synthesis results or bare gain rows; the
#: simulator only needs u = k x_hat.
Gain = Union[LocalController, np.ndarray, Sequence[float]]


def _gain(controller: Gain) -> np.ndarray:
    k = np.asarray(getattr(controller, "k", controller), dtype=float)
    if k.shape != (3,):
        raise ValueError("a controller must provide a 3-entry gain row")
    if not np.all(np.isfinite(k)):
        raise ValueError("a controller gain must be finite")
    return k


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


@dataclass(frozen=True)
class Scenario:
    """Experiment description: initial grid, timeline, integration knobs.

    Event times must be sorted and lie strictly inside (0, t_end); ties
    are allowed and fire in list order.  alphas, when given, override the
    synthesis objective weights in synthesis_config(), which designs the
    plug-in newcomers during the run and, in the CLI, the initial units.
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
        for name in ("sigma_bar", "t_end", "dt", "record_dt"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive")
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
    """Recorded run: one read-only sample table and the event log.

    table is the CSV's table: one row per sample, the time, then V, It, v
    and u of each DGU in id order, NaN while the DGU is not part of the
    grid.  times, series[i] (columns V, It, v, u) and column() are views
    of it.  The exact final state vector (layout of final_topology, RL
    line currents included) is kept so runs can be chained without
    re-simulation.
    """

    table: np.ndarray
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
        return {i: self.table[:, 1 + 4 * k:5 + 4 * k]
                for k, i in enumerate(self.ids)}

    def column(self, dgu_id: int, name: str) -> np.ndarray:
        k = self.ids.index(dgu_id)
        return self.table[:, 1 + 4 * k + self.COLUMNS.index(name)]


def _build_ode(top: MicrogridTopology, controllers: Mapping[int, Gain],
               line_model: str) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble x' = Ax + c for the closed loop over the whole grid.

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
    a = np.pad(a, (0, n_lines))
    c = np.pad((system.unit_m @ disturbance[:, :, None]).ravel(),
               (0, n_lines))
    if line_model == RL:
        lines = zip(top.lines, 3 * system.line_i, 3 * system.line_j)
        for row, (ln, si, sj) in enumerate(lines, base):
            # line current is oriented from ln.i to ln.j
            a[row, si] = 1.0 / ln.l
            a[row, sj] = -1.0 / ln.l
            a[row, row] = -ln.r / ln.l
            a[si, row] -= 1.0 / top.dgus[ln.i].c_t
            a[sj, row] += 1.0 / top.dgus[ln.j].c_t
    return a, c


def _step_map(a: np.ndarray, c: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """RK4 applied to x' = Ax + c as the affine map x -> Rx + w."""
    eye = np.eye(a.shape[0])
    ha = h * a
    s = eye + ha / 4.0
    s = eye + (ha / 3.0) @ s
    s = eye + (ha / 2.0) @ s
    return eye + ha @ s, h * (s @ c)


def _compose(first: Tuple[np.ndarray, np.ndarray],
             second: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    return second[0] @ first[0], second[0] @ first[1] + second[1]


def _repeat(step: Tuple[np.ndarray, np.ndarray], count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Affine map for `count` consecutive steps (binary composition)."""
    result = (np.eye(step[0].shape[0]), np.zeros(step[0].shape[0]))
    base = step
    while count:
        if count & 1:
            result = _compose(result, base)
        count >>= 1
        if count:
            base = _compose(base, base)
    return result


class _Segment:
    """One constant-topology stretch: reusable step maps and its samples."""

    def __init__(self, top: MicrogridTopology, controllers: Mapping[int, Gain],
                 line_model: str, dt: float):
        self.ids = top.ids
        self.dt = dt
        self.a, self.c = _build_ode(top, controllers, line_model)
        self.step = _step_map(self.a, self.c, dt)
        self._chunks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {1: self.step}
        self.gains = np.vstack([_gain(controllers[i]) for i in self.ids])
        self.times: List[float] = []
        self.rows: List[np.ndarray] = []  # unit columns check() passed
        self.pending: List[np.ndarray] = []

    def advance(self, state: np.ndarray, steps: int) -> np.ndarray:
        chunk = self._chunks.get(steps)
        if chunk is None:
            chunk = self._chunks[steps] = _repeat(self.step, steps)
        return chunk[0] @ state + chunk[1]

    def add(self, t: float, state: np.ndarray):
        """Record one sample; every CHECK_ROWS samples, return check()."""
        self.times.append(t)
        self.pending.append(state)
        return self.check() if len(self.pending) >= CHECK_ROWS else None

    def check(self) -> Optional[Tuple[np.ndarray, DivergedAt]]:
        """Pass the pending rows, or cut at the first one out of range and
        return its state and DivergedAt.  A row over DIVERGENCE_LIMIT is
        kept, a non-finite row is dropped and reported as max_abs = inf."""
        if not self.pending:
            return None
        stretch = np.array(self.pending)
        self.pending = []
        peak = np.abs(stretch).max(axis=1)  # NaN where a row holds one
        bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
        keep = len(stretch)
        cut = None
        if bad.size:
            k = int(bad[0])
            start = len(self.times) - len(stretch)
            t, max_abs, keep = self.times[start + k], float(peak[k]), k + 1
            if not math.isfinite(max_abs):
                max_abs, keep = math.inf, k
            del self.times[start + keep:]
            cut = stretch[k], DivergedAt(t, max_abs)
        # only the unit columns are recorded; RL line currents are not
        self.rows.append(
            np.ascontiguousarray(stretch[:keep, :3 * len(self.ids)]))
        return cut

    def short_step(self, state: np.ndarray, h: float) -> np.ndarray:
        r, w = _step_map(self.a, self.c, h)
        return r @ state + w

    def run(self, state, t0, t1, record_dt):
        """Integrate [t0, t1), recording interior record-grid samples; the
        t1 sample is left to the caller (it may follow an event), and the
        t0 sample, taken already, fills any record slot t0 lands on.
        Returns (state, t_reached, diverged_or_none), the cut row's state
        and time on divergence."""
        tiny = 1e-9 * max(1.0, t1)
        n_rec = int(math.floor(t0 / record_dt + 1e-6))  # slots filled
        cut = None
        # a runaway may overflow between two checks; the cut drops it
        with np.errstate(over="ignore", invalid="ignore"):
            # t0 off the dt grid (an event time): one short step back onto
            # it, so the samples after t0 fall on the record grid
            grid = math.ceil(t0 / self.dt - 1e-6) * self.dt
            if grid - t0 > 1e-6 * self.dt and grid < t1 - tiny:
                state, t0 = self.short_step(state, grid - t0), grid
            k, t_cur = 0, t0
            while cut is None:
                target = (n_rec + 1) * record_dt
                last = target >= t1 - tiny
                steps = int(math.floor(((t1 if last else target) - t_cur)
                                       / self.dt + 1e-6))
                if steps > 0:
                    state = self.advance(state, steps)
                    k += steps
                    t_cur = t0 + k * self.dt
                if last:
                    break
                n_rec += 1
                if steps > 0 or not self.times or self.times[-1] != t_cur:
                    cut = self.add(t_cur, state)
            cut = cut or self.check()
            if cut is not None:
                return cut[0], cut[1].t, cut[1]
            if t1 - t_cur > 1e-9 * self.dt:
                state = self.short_step(state, t1 - t_cur)
        return state, t1, None


def steady_state(topology: MicrogridTopology, controllers: Mapping[int, Gain],
                 line_model: str = QSL) -> np.ndarray:
    """Equilibrium of the closed loop (full state vector, layout order).

    The integrator rows force V_i = v_ref_i at any equilibrium; the rest
    of the vector follows from the linear solve.
    """
    a, c = _build_ode(topology, controllers, line_model)
    try:
        return np.linalg.solve(a, -c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("closed-loop matrix is singular; no unique"
                         " equilibrium") from exc


def _isolated_steady(params: DguParams, controller: Gain) -> np.ndarray:
    solo = MicrogridTopology({0: params}, ())
    return steady_state(solo, {0: controller})


def attempt_plug_in(topology: MicrogridTopology, dgu_id: int,
                    params: DguParams, lines: Sequence[LineParams],
                    cfg: SynthesisConfig) -> Union[LocalController, Denied]:
    """Plug-in protocol: synthesize the newcomer, touch nothing else.

    Neighbours keep their controllers; the caller extends the topology on
    acceptance.  Structural mistakes (duplicate id, dangling line) raise,
    an infeasible or degenerate design returns Denied.
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


def _apply_event(ev, top, controllers, state, line_model, cfg):
    """Apply one event: returns (state, topology, outcome).  An accepted
    plug-in adds the newcomer's controller to controllers and an accepted
    unplug drops the unit's; no other controller is touched."""
    if isinstance(ev, PlugIn):
        snapshot = {i: _gain(c).copy() for i, c in controllers.items()}
        result = attempt_plug_in(top, ev.dgu_id, ev.params, ev.lines, cfg)
        if isinstance(result, Denied):
            return state, top, f"denied: {result.reason}"
        for i, gain in snapshot.items():
            if not np.array_equal(gain, _gain(controllers[i])):
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
             initial_state: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate the scenario, enforcing the plug protocol at each event.

    controllers holds one controller per initial DGU; plug-in newcomers
    are synthesized from the scenario's sigma_bar and weights.  By default
    each DGU starts at its isolated operating point (line currents at zero
    in RL mode); pass initial_state to override.  Divergence does not
    raise: the returned trajectory is truncated and carries a DivergedAt
    marker.
    """
    top = scenario.initial_topology
    if not top.is_connected():
        raise TopologyError("initial topology must be connected")
    cfg = scenario.synthesis_config()
    controllers = dict(controllers)
    if set(controllers) != set(top.ids):
        raise ValueError("controllers must cover exactly the initial topology")
    for ctrl in controllers.values():
        _gain(ctrl)

    if initial_state is None:
        state = _default_state(scenario, top, controllers)
    else:
        state = np.asarray(initial_state, dtype=float).copy()
        expected = 3 * len(top.ids)
        if scenario.line_model == RL:
            expected += len(top.lines)
        if state.shape != (expected,):
            raise ValueError(f"initial state must have length {expected}")
        if not np.all(np.isfinite(state)):
            raise ValueError("initial state must be finite")

    records: List[EventRecord] = []
    diverged: Optional[DivergedAt] = None
    pending = list(scenario.events)
    t_cursor = 0.0

    seg = _Segment(top, controllers, scenario.line_model, scenario.dt)
    segments = [seg]
    cut = seg.add(0.0, state) or seg.check()
    if cut is not None:
        state, diverged = cut

    while diverged is None and t_cursor < scenario.t_end:
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
                ev, top, controllers, state, scenario.line_model, cfg)
            records.append(EventRecord(t_cursor, f"{ev.kind} dgu={ev.dgu_id}",
                                       outcome))
            changed = changed or outcome in (ACCEPTED, APPLIED)
        if changed:
            seg = _Segment(top, controllers, scenario.line_model, scenario.dt)
            segments.append(seg)
        cut = seg.add(t_cursor, state) or seg.check()
        if cut is not None:
            state, diverged = cut

    return _assemble(segments, records, top, state, diverged)


def _assemble(segments, records, top, state, diverged) -> Trajectory:
    """Write each segment's checked stretches, with u = k x_hat, straight
    into the table; RL line currents are not sampled."""
    ids = sorted({i for seg in segments for i in seg.ids})
    slot = {i: k for k, i in enumerate(ids)}
    total = sum(len(seg.times) for seg in segments)
    table = np.full((total, 1 + 4 * len(ids)), np.nan)
    units = table[:, 1:].reshape(total, len(ids), 4)  # a view of the table
    pos = 0
    for seg in segments:
        table[pos:pos + len(seg.times), 0] = seg.times
        cols, n = [slot[i] for i in seg.ids], len(seg.ids)
        for stretch in seg.rows:
            m = len(stretch)
            x = stretch.reshape(m, n, 3)
            units[pos:pos + m, cols, :3] = x
            units[pos:pos + m, cols, 3] = np.einsum("ij,tij->ti", seg.gains, x)
            pos += m
    table.setflags(write=False)
    return Trajectory(table, tuple(ids), tuple(records), top, state.copy(),
                      diverged)


def _range_count(rows: int) -> int:
    """Row ranges trajectory_to_csv formats at once: one per CSV_CHUNK-row
    chunk, capped by _forks.range_count."""
    return _forks.range_count(-(-rows // CSV_CHUNK))


def _write_rows(fh: IO[bytes], rows: np.ndarray) -> None:
    """csv.writer's lines (repr() cells, CRLF ends) of rows, as bytes, a
    chunk at a time: tolist() of every row would hold every cell at once."""
    for start in range(0, len(rows), CSV_CHUNK):
        fh.write("".join([",".join(map(repr, row)) + "\r\n" for row
                          in rows[start:start + CSV_CHUNK].tolist()]).encode())


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,dgu<i>.V,dgu<i>.It,dgu<i>.v,dgu<i>.u,...` in id order.

    Formatting the cells (one repr() each) is most of the time, and it
    holds the GIL, so the rows are split into _range_count() contiguous
    ranges (see _forks).  Forked children format ranges 1 and up into
    their spools, calling no BLAS routine, while this process formats
    range 0 straight into the file, then appends each child's spool in
    order, 1 MiB at a time.  The bytes do not depend on the range count.
    Every child is reaped before the call returns or raises; a child that
    failed raises RuntimeError.
    """
    table = traj.table

    def format_range(lo, hi, spool):
        _write_rows(spool, table[lo:hi])

    with _forks.forked_ranges(len(table), _range_count(len(table)),
                              format_range, "CSV writer") as (end, spools):
        with open(path, "wb") as fh:
            fh.write((",".join(["t"] + [f"dgu{i}.{col}" for i in traj.ids
                                        for col in Trajectory.COLUMNS])
                      + "\r\n").encode())
            _write_rows(fh, table[:end])
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


def write_event_log(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        for line in event_log_lines(traj):
            fh.write(line + "\n")
