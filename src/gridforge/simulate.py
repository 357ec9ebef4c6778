"""Closed-loop time-domain simulation with plug-and-play event handling.

Between events the closed loop is linear time-invariant, so a fixed-step
RK4 update collapses to an affine map x -> Rx + w with R and w assembled
once per segment from the fourth-order Taylor truncation of exp(hA).
Steps between recorded samples are composed into a single affine map,
which keeps long runs cheap.  Event timestamps never drift: the step
straddling an event is split so the boundary is hit exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import (ClassVar, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .model import (DguParams, LineParams, LoadModel, MicrogridTopology,
                    TopologyError, assemble_global, augmented_dgu,
                    closed_loop)
from .synthesis import (Denied, LocalController, SynthesisConfig, synthesize,
                        synthesize_all)

QSL = "qsl"
RL = "rl"

ACCEPTED = "accepted"
APPLIED = "applied"

DIVERGENCE_LIMIT = 1e9

#: Controllers may be full synthesis results or bare gain rows; the
#: simulator only needs u = k x_hat.
Gain = Union[LocalController, np.ndarray, Sequence[float]]


def _gain(controller: Gain) -> np.ndarray:
    k = np.asarray(getattr(controller, "k", controller), dtype=float)
    if k.shape != (3,):
        raise ValueError("a controller must provide a 3-entry gain row")
    return k


@dataclass(frozen=True)
class PlugIn:
    """Request to connect a new DGU through the given lines."""

    t: float
    dgu_id: int
    params: DguParams
    lines: Tuple[LineParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))


@dataclass(frozen=True)
class Unplug:
    t: float
    dgu_id: int


@dataclass(frozen=True)
class LoadStep:
    t: float
    dgu_id: int
    load: LoadModel


@dataclass(frozen=True)
class RefStep:
    t: float
    dgu_id: int
    v_ref: float


Event = Union[PlugIn, Unplug, LoadStep, RefStep]


def _describe(ev: Event) -> str:
    kind = {PlugIn: "plug_in", Unplug: "unplug",
            LoadStep: "load_step", RefStep: "ref_step"}[type(ev)]
    return f"{kind} dgu={ev.dgu_id}"


@dataclass(frozen=True)
class Scenario:
    """Experiment description: initial grid, timeline, integration knobs.

    Event times must be sorted and lie strictly inside (0, t_end); ties
    are allowed and fire in list order.  alphas, when given, override the
    synthesis objective weights for every controller designed during the
    run (initial auto-synthesis and plug-in newcomers alike).
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
    """Recorded run: sample times, per-DGU series and the event log.

    Series are (n, 4) arrays with columns V, It, v, u; entries are NaN
    while the DGU is not part of the grid.  line_series carries RL line
    currents keyed by endpoint pair and is empty for QSL runs.  The exact
    final state vector (layout of final_topology) is kept alongside the
    sampled series so runs can be chained without re-simulation.
    """

    times: np.ndarray
    ids: Tuple[int, ...]
    series: Dict[int, np.ndarray]
    line_series: Dict[Tuple[int, int], np.ndarray]
    events: Tuple[EventRecord, ...]
    final_topology: MicrogridTopology
    final_state: np.ndarray
    diverged: Optional[DivergedAt] = None

    COLUMNS: ClassVar[Tuple[str, ...]] = ("V", "It", "v", "u")

    def column(self, dgu_id: int, name: str) -> np.ndarray:
        return self.series[dgu_id][:, self.COLUMNS.index(name)]


def _build_ode(top: MicrogridTopology, controllers: Mapping[int, Gain],
               line_model: str) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble x' = Ax + c for the closed loop over the whole grid.

    The unit blocks come from the one closed-loop assembly.  Resistive
    loads fold into the voltage diagonal; current loads and voltage
    references enter the constant term through m_hat.  QSL keeps the
    assembled line conductances, RL replaces them with one current state
    per line.
    """
    system = assemble_global(top)
    a = closed_loop(system, controllers)
    n_lines = 0
    if line_model == RL:
        # a_d, a_xi and a_c have disjoint supports: this is a_d + b_hat K
        a = a - system.a_xi - system.a_c
        n_lines = len(top.lines)
    disturbance = np.zeros(2 * len(top.ids))
    for k, dgu_id in enumerate(top.ids):
        p = top.dgus[dgu_id]
        if p.load.kind == "resistance":
            a[3 * k, 3 * k] -= 1.0 / (p.load.value * p.c_t)
        else:
            disturbance[2 * k] = p.load.value
        disturbance[2 * k + 1] = p.v_ref
    base = a.shape[0]
    a = np.pad(a, (0, n_lines))
    c = np.pad(system.m_hat @ disturbance, (0, n_lines))
    if line_model == RL:
        start = {dgu_id: 3 * k for k, dgu_id in enumerate(top.ids)}
        for m, ln in enumerate(top.lines):
            si, sj, row = start[ln.i], start[ln.j], base + m
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
    """One constant-topology stretch compiled to reusable step maps."""

    def __init__(self, top: MicrogridTopology, controllers: Mapping[int, Gain],
                 line_model: str, dt: float):
        self.ids = top.ids
        self.dt = dt
        self.a, self.c = _build_ode(top, controllers, line_model)
        self.step = _step_map(self.a, self.c, dt)
        self._chunks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {1: self.step}
        self.gains = np.vstack([_gain(controllers[i]) for i in self.ids])

    def advance(self, state: np.ndarray, steps: int) -> np.ndarray:
        chunk = self._chunks.get(steps)
        if chunk is None:
            chunk = self._chunks[steps] = _repeat(self.step, steps)
        return chunk[0] @ state + chunk[1]

    def partial(self, state: np.ndarray, h: float) -> np.ndarray:
        r, w = _step_map(self.a, self.c, h)
        return r @ state + w

    def u(self, state: np.ndarray) -> np.ndarray:
        xs = state[:3 * len(self.ids)].reshape(len(self.ids), 3)
        return np.einsum("ij,ij->i", self.gains, xs)

    def run(self, state, t0, t1, n_rec, record_dt, block):
        """Integrate [t0, t1), emitting interior record-grid samples.

        The t1 sample itself is left to the caller (it may follow an
        event).  Returns (state, t_reached, n_rec, diverged_or_none).
        """
        tiny = 1e-9 * max(1.0, t1)
        k = 0
        t_cur = t0
        while True:
            target = (n_rec + 1) * record_dt
            if target >= t1 - tiny:
                break
            steps = int(math.floor((target - t_cur) / self.dt + 1e-6))
            if steps > 0:
                state = self.advance(state, steps)
                k += steps
                t_cur = t0 + k * self.dt
            n_rec += 1
            if steps > 0 or not block.times or block.times[-1] != t_cur:
                max_abs = block.add(t_cur, state, self)
                if max_abs > DIVERGENCE_LIMIT:
                    return state, t_cur, n_rec, DivergedAt(t_cur, max_abs)
        steps = int(math.floor((t1 - t_cur) / self.dt + 1e-6))
        if steps > 0:
            state = self.advance(state, steps)
            k += steps
            t_cur = t0 + k * self.dt
        h = t1 - t_cur
        if h > 1e-9 * self.dt:
            state = self.partial(state, h)
        return state, t1, n_rec, None


class _Block:
    """Samples over a stretch with fixed DGU membership and line set."""

    __slots__ = ("ids", "line_keys", "times", "states", "us")

    def __init__(self, top: MicrogridTopology, line_model: str):
        self.ids = top.ids
        self.line_keys = tuple(ln.key for ln in top.lines) if line_model == RL else ()
        self.times: List[float] = []
        self.states: List[np.ndarray] = []
        self.us: List[np.ndarray] = []

    def add(self, t: float, state: np.ndarray, seg: _Segment) -> float:
        if not np.all(np.isfinite(state)):
            return math.inf  # caller aborts; non-finite rows are not kept
        self.times.append(t)
        self.states.append(state.copy())
        self.us.append(seg.u(state))
        return float(np.abs(state).max())


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


def _initial_controllers(top, controllers, cfg):
    if controllers is None:
        results = synthesize_all(top, cfg)
        refused = {i: r.reason for i, r in results.items()
                   if isinstance(r, Denied)}
        if refused:
            raise ValueError(f"controller synthesis denied: {refused}")
        return dict(results)
    given = dict(controllers)
    if set(given) != set(top.ids):
        raise ValueError("controllers must cover exactly the initial topology")
    for ctrl in given.values():
        _gain(ctrl)
    return given


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


def _apply_event(ev, t, top, controllers, state, line_model, cfg, records):
    """Apply one event in place; returns (state, topology, changed)."""
    name = _describe(ev)
    if isinstance(ev, PlugIn):
        snapshot = {i: _gain(c).copy() for i, c in controllers.items()}
        result = attempt_plug_in(top, ev.dgu_id, ev.params, ev.lines, cfg)
        if isinstance(result, Denied):
            records.append(EventRecord(t, name, f"denied: {result.reason}"))
            return state, top, False
        for i, gain in snapshot.items():
            if not np.array_equal(gain, _gain(controllers[i])):
                raise RuntimeError("plug-in protocol modified an existing"
                                   " controller")
        new_top = top.with_dgu(ev.dgu_id, ev.params, ev.lines)
        controllers[ev.dgu_id] = result
        state = _remap_state(state, top, new_top, line_model,
                             {ev.dgu_id: _isolated_steady(ev.params, result)})
        records.append(EventRecord(t, name, ACCEPTED))
        return state, new_top, True
    if isinstance(ev, Unplug):
        if ev.dgu_id not in top.dgus:
            records.append(EventRecord(t, name,
                                       f"skipped: DGU {ev.dgu_id} not present"))
            return state, top, False
        result = attempt_unplug(top, ev.dgu_id)
        if isinstance(result, Denied):
            records.append(EventRecord(t, name, f"denied: {result.reason}"))
            return state, top, False
        state = _remap_state(state, top, result, line_model)
        controllers.pop(ev.dgu_id)
        records.append(EventRecord(t, name, ACCEPTED))
        return state, result, True
    # load and reference steps: instantaneous parameter changes
    if ev.dgu_id not in top.dgus:
        records.append(EventRecord(t, name,
                                   f"skipped: DGU {ev.dgu_id} not present"))
        return state, top, False
    params = top.dgus[ev.dgu_id]
    if isinstance(ev, LoadStep):
        params = replace(params, load=ev.load)
    else:
        params = replace(params, v_ref=ev.v_ref)
    records.append(EventRecord(t, name, APPLIED))
    return state, top.replace_params(ev.dgu_id, params), True


def simulate(scenario: Scenario,
             controllers: Optional[Mapping[int, Gain]] = None,
             initial_state: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate the scenario, enforcing the plug protocol at each event.

    With controllers=None every initial DGU is synthesized from the
    scenario's sigma_bar and weights.  By default each DGU starts at its
    isolated operating point (line currents at zero in RL mode); pass
    initial_state to override.  Divergence does not raise: the returned
    trajectory is truncated and carries a DivergedAt marker.
    """
    top = scenario.initial_topology
    if not top.is_connected():
        raise TopologyError("initial topology must be connected")
    cfg = scenario.synthesis_config()
    controllers = _initial_controllers(top, controllers, cfg)

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
    blocks: List[_Block] = []
    diverged: Optional[DivergedAt] = None
    pending = list(scenario.events)
    n_rec = 0
    t_cursor = 0.0

    seg = _Segment(top, controllers, scenario.line_model, scenario.dt)
    block = _Block(top, scenario.line_model)
    blocks.append(block)
    max_abs = block.add(0.0, state, seg)
    if max_abs > DIVERGENCE_LIMIT:
        diverged = DivergedAt(0.0, max_abs)

    while diverged is None and t_cursor < scenario.t_end:
        t_next = pending[0].t if pending else scenario.t_end
        state, t_cursor, n_rec, diverged = seg.run(
            state, t_cursor, t_next, n_rec, scenario.record_dt, block)
        if diverged is not None:
            break
        fired = []
        boundary = t_cursor + 1e-12 * max(1.0, t_cursor)
        while pending and pending[0].t <= boundary:
            fired.append(pending.pop(0))
        changed = False
        for ev in fired:
            state, top, one = _apply_event(ev, t_cursor, top, controllers,
                                           state, scenario.line_model, cfg,
                                           records)
            changed = changed or one
        if changed:
            seg = _Segment(top, controllers, scenario.line_model, scenario.dt)
            block = _Block(top, scenario.line_model)
            blocks.append(block)
        max_abs = block.add(t_cursor, state, seg)
        if max_abs > DIVERGENCE_LIMIT:
            diverged = DivergedAt(t_cursor, max_abs)
        # the boundary sample consumes any record slot it lands on
        n_rec = max(n_rec, int(math.floor(t_cursor / scenario.record_dt + 1e-6)))

    return _assemble(blocks, records, top, state, diverged)


def _assemble(blocks, records, top, state, diverged) -> Trajectory:
    all_ids = sorted({i for b in blocks for i in b.ids})
    all_lines = sorted({k for b in blocks for k in b.line_keys})
    total = sum(len(b.times) for b in blocks)
    times = np.empty(total)
    series = {i: np.full((total, 4), np.nan) for i in all_ids}
    line_series = {key: np.full(total, np.nan) for key in all_lines}
    pos = 0
    for b in blocks:
        m = len(b.times)
        if m == 0:
            continue
        times[pos:pos + m] = b.times
        states = np.vstack(b.states)
        us = np.vstack(b.us)
        for col, dgu_id in enumerate(b.ids):
            series[dgu_id][pos:pos + m, 0:3] = states[:, 3 * col:3 * col + 3]
            series[dgu_id][pos:pos + m, 3] = us[:, col]
        base = 3 * len(b.ids)
        for col, key in enumerate(b.line_keys):
            line_series[key][pos:pos + m] = states[:, base + col]
        pos += m
    times.setflags(write=False)
    for arr in series.values():
        arr.setflags(write=False)
    for arr in line_series.values():
        arr.setflags(write=False)
    return Trajectory(times, tuple(all_ids), series, line_series,
                      tuple(records), top, state.copy(), diverged)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,dgu<i>.V,dgu<i>.It,dgu<i>.v,dgu<i>.u,...` in id order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"dgu{i}.{col}" for i in traj.ids
                                 for col in Trajectory.COLUMNS])
        for k in range(len(traj.times)):
            row = [repr(float(traj.times[k]))]
            for i in traj.ids:
                row.extend(repr(float(x)) for x in traj.series[i][k])
            writer.writerow(row)


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
