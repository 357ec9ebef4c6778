"""Command-line front end and the JSON file formats behind it.

Four file-facing commands (synth, certify, simulate, sweep) plus a
self-contained reproduction report (appendix-a).  Exit codes are part of
the contract: 0 success, 1 bad input or numerical breakdown, 2 a refusal
(controller denied, certificate not granted).

Scenario files are plain JSON in SI units (ohm, henry, farad, volt,
second), no unit strings, so fixtures diff cleanly.  They are read,
never written.  Every id (a unit's, a line end's, an event's unit, a
bundle entry's) is a whole number, and a scenario or bundle names each
unit once.  Every other number in either file is a finite JSON number, an
int or a float; a bool, a string or a non-finite value is refused naming
its field (_number), and so is a list or object that is not a JSON array
or object (_json), or a missing field.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.resources
import json
import pathlib
import sys
import time
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import baselines
from .certify import (
    FAIL,
    PASS,
    certificate_to_json,
    check_global,
    check_lasalle_kernel,
    check_theorem1,
)
from .model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    _positive,
    assemble_global,  # noqa: F401  perfbench/spans.py wraps it here
)
from .simulate import (
    LoadStep,
    PlugIn,
    RefStep,
    Scenario,
    Unplug,
    simulate,
    trajectory_to_csv,
    write_event_log,
)
from .sweep import SweepGrid, run_sweep, summary_json, write_sweep_csv
from .synthesis import (
    Denied,
    LocalController,
    NumericalFailure,
    SynthesisConfig,
    synthesize_all,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENIED = 2

PACKAGED_SCENARIO = "scenario_iv.json"


def packaged_scenario_path() -> pathlib.Path:
    """Filesystem path of the bundled six-DGU demonstration scenario."""
    return pathlib.Path(
        importlib.resources.files(__package__) / PACKAGED_SCENARIO)


# ---------------------------------------------------------------------------
# scenario files

def _id(obj: Mapping, field: str) -> int:
    """obj[field] as a unit id: a JSON number with no fraction, not a bool
    or a string."""
    value = obj[field]
    if type(value) not in (int, float) or value % 1 != 0:
        raise ValueError(f"{field} must be a whole number, not {value!r}")
    return int(value)


def _number(value, field: str, shape: Tuple[int, ...] = (),
            what: str = "a finite number"):
    """value as a float, read from a JSON number: an int or a float, finite,
    not a bool, a string or null.  With a shape, value is nested lists of
    such numbers in that shape, read as nested lists of floats.  Anything
    else raises ValueError(f"{field} must be {what}")."""
    def read(v, shape):
        if not shape:
            if type(v) in (int, float) and abs(v) <= sys.float_info.max:
                return float(v)
        elif type(v) is list and len(v) == shape[0]:
            return [read(x, shape[1:]) for x in v]
        raise ValueError(f"{field} must be {what}")
    return read(value, shape)


def _json(value, kind: type, field: str):
    """value, read from a JSON array (kind list) or object (kind dict);
    anything else raises ValueError naming field."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be a JSON "
                         f"{'array' if kind is list else 'object'}")
    return value


def _entries(value, field: str) -> list:
    """value read as a JSON array of JSON objects (_json)."""
    return [_json(entry, dict, f"each entry of {field}")
            for entry in _json(value, list, field)]


def _load_from_json(value) -> LoadModel:
    obj = _json(value, dict, "load")
    return LoadModel(str(obj["type"]), _number(obj["value"], "value"))


def _params_from_json(value) -> DguParams:
    obj = _json(value, dict, "params")
    r_t, l_t, c_t, v_ref = (_number(obj[name], name)
                            for name in ("r_t", "l_t", "c_t", "v_ref"))
    return DguParams(r_t=r_t, l_t=l_t, c_t=c_t,
                     load=_load_from_json(obj["load"]), v_ref=v_ref)


def _line_from_json(obj: Mapping) -> LineParams:
    l = obj.get("l")
    return LineParams(_id(obj, "i"), _id(obj, "j"), _number(obj["r"], "r"),
                      None if l is None else _number(l, "l"))


def _event_from_json(obj: Mapping):
    t = _number(obj["t"], "t")
    kind = str(obj["type"])
    if kind == PlugIn.kind:
        return PlugIn(t, _id(obj, "dgu"), _params_from_json(obj["params"]),
                      tuple(_line_from_json(ln)
                            for ln in _entries(obj["lines"], "lines")))
    if kind == Unplug.kind:
        return Unplug(t, _id(obj, "dgu"))
    if kind == LoadStep.kind:
        return LoadStep(t, _id(obj, "dgu"), _load_from_json(obj["load"]))
    if kind == RefStep.kind:
        return RefStep(t, _id(obj, "dgu"), _number(obj["v_ref"], "v_ref"))
    raise ValueError(f"unknown event type {kind!r}")


def parse_scenario(payload: Mapping) -> Scenario:
    try:
        _json(payload, dict, "scenario file")
        dgus = {}
        for entry in _entries(payload["dgus"], "dgus"):
            dgu_id = _id(entry, "id")
            if dgu_id in dgus:
                raise ValueError(f"scenario names DGU {dgu_id} twice")
            dgus[dgu_id] = _params_from_json(entry)
        lines = tuple(_line_from_json(entry)
                      for entry in _entries(payload["lines"], "lines"))
        alphas = payload.get("alphas")
        knobs = {name: _number(payload[name], name)
                 for name in ("dt", "record_dt") if name in payload}
        if "line_model" in payload:
            knobs["line_model"] = str(payload["line_model"])
        return Scenario(
            initial_topology=MicrogridTopology(dgus, lines),
            sigma_bar=_number(payload["sigma_bar"], "sigma_bar"),
            events=tuple(_event_from_json(ev) for ev in
                         _entries(payload.get("events", []), "events")),
            t_end=_number(payload["t_end"], "t_end"),
            alphas=None if alphas is None else tuple(
                _number(alphas, "alphas", (5,), "five finite numbers")),
            **knobs,
        )
    except KeyError as exc:
        raise ValueError(f"scenario file is missing field {exc}") from None


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


# ---------------------------------------------------------------------------
# controller bundles

def controller_to_json(dgu_id: int, ctrl: LocalController) -> dict:
    """One unit's bundle entry: dgu_id, K and the diagnostics."""
    doc = {
        "dgu_id": dgu_id,
        "K": ctrl.k.tolist(),
        "diagnostics": {
            "gamma": np.asarray(ctrl.raw["gamma"]).tolist(),
            "beta": ctrl.raw["beta"],
            "zeta": ctrl.raw["zeta"],
            "gain_norm": float(np.linalg.norm(ctrl.k)),
            "gain_norm_bound": ctrl.norm_bound(),
        },
    }
    if "solver" in ctrl.raw:
        doc["diagnostics"]["solver"] = dict(ctrl.raw["solver"])
    return doc


def bundle_to_json(controllers: Mapping[int, LocalController],
                   cfg: SynthesisConfig) -> dict:
    return {
        "sigma_bar": cfg.sigma_bar,
        "alphas": list(cfg.alphas),
        "controllers": [controller_to_json(dgu_id, controllers[dgu_id])
                        for dgu_id in sorted(controllers)],
    }


def controller_from_json(entry: Mapping, params: DguParams,
                         sigma_bar: float) -> LocalController:
    """The LocalController of one bundle entry, for a unit with these
    params and a bundle of this sigma_bar.

    An entry is dgu_id, the gain K and the diagnostics, as `synth` writes
    it, and the controller is built from K alone: its P, eta = sigma_bar
    C_t and delta are the closed form's (synthesis.local_certificate), so
    a gain outside the local design set is refused, naming its bound.
    Any other field is refused by name rather than ignored.  Missing
    diagnostics read as zeros.  K must be three finite numbers, and so
    must the diagnostics' gamma (three), beta and zeta, each read by
    _number; anything else is refused with the entry's DGU id.
    """
    where = f"DGU {_id(entry, 'dgu_id')}:"
    for name in entry:
        if name not in ("dgu_id", "K", "diagnostics"):
            raise ValueError(f"{where} bundle entry field {name!r} is not "
                             "read: an entry is its gain K")

    def number(value, name, shape=(), what="a finite number"):
        return _number(value, f"{where} controller {name}", shape, what)

    k = np.array(number(entry["K"], "gain K", (3,), "three finite numbers"))
    diag = _json(entry.get("diagnostics", {}), dict,
                 f"{where} controller diagnostics")
    raw = {"gamma": np.array(number(diag.get("gamma", [0.0, 0.0, 0.0]),
                                    "gamma", (3,), "three finite numbers")),
           **{name: number(diag.get(name, 0.0), name)
              for name in ("beta", "zeta")}}
    # bundles written before the solver diagnostics existed have none
    if "solver" in diag:
        raw["solver"] = dict(_json(diag["solver"], dict,
                                   f"{where} controller diagnostics solver"))
    try:
        return LocalController(k, raw, params, sigma_bar)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


def load_bundle(path, topology: MicrogridTopology
                ) -> Tuple[float, Dict[int, LocalController]]:
    """(sigma_bar, LocalController per DGU) of a bundle file, each entry
    read by controller_from_json against the bundle's sigma_bar.
    sigma_bar must be positive; it is a scale, since P, Q and the
    Laplacian are all linear in it."""
    with open(path, encoding="utf-8") as fh:
        payload = _json(json.load(fh), dict, "bundle file")
    try:
        sigma_bar = _positive("sigma_bar",
                              _number(payload["sigma_bar"], "sigma_bar"))
        controllers = {}
        for entry in _entries(payload["controllers"], "controllers"):
            dgu_id = _id(entry, "dgu_id")
            if dgu_id not in topology.dgus:
                raise ValueError(f"bundle names DGU {dgu_id}, "
                                 "absent from the scenario")
            if dgu_id in controllers:
                raise ValueError(f"bundle names DGU {dgu_id} twice")
            try:
                controllers[dgu_id] = controller_from_json(
                    entry, topology.dgus[dgu_id], sigma_bar)
            except KeyError as exc:
                raise ValueError(f"DGU {dgu_id}: bundle entry is missing "
                                 f"field {exc}") from None
    except KeyError as exc:
        raise ValueError(f"bundle file is missing field {exc}") from None
    missing = set(topology.ids) - set(controllers)
    if missing:
        raise ValueError(f"bundle has no controller for DGUs "
                         f"{sorted(missing)}")
    return sigma_bar, controllers


# ---------------------------------------------------------------------------
# commands

def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _newcomers(scenario: Scenario) -> Dict[int, DguParams]:
    """Each plug-in id absent from the initial grid, with the params of
    its first plug-in event."""
    roster: Dict[int, DguParams] = {}
    for ev in scenario.events:
        if (isinstance(ev, PlugIn)
                and ev.dgu_id not in scenario.initial_topology.dgus):
            roster.setdefault(ev.dgu_id, ev.params)
    return roster


def _synthesize_for(scenario: Scenario,
                    newcomers: Optional[Mapping[int, DguParams]] = None,
                    ) -> Optional[Tuple[SynthesisConfig, dict]]:
    """(config, verdict per id) of a scenario's units and the given
    newcomers, designed in one synthesize_all call, or None, with every
    refusal printed to stderr, when any initial unit is denied.  The
    initial units' verdicts are then all granted controllers; a
    newcomer's may be a Denied, which its plug-in event reports.
    Synthesis reads only each unit's own parameters, so the roster needs
    no lines.  A breakdown of any unit raises its NumericalFailure."""
    cfg = scenario.synthesis_config()
    initial = scenario.initial_topology.dgus
    results = synthesize_all(
        MicrogridTopology({**initial, **(newcomers or {})}, ()), cfg)
    denied = sorted(i for i in initial if isinstance(results[i], Denied))
    for dgu_id in denied:
        print(f"denied: dgu {dgu_id}: {results[dgu_id].reason}",
              file=sys.stderr)
    if denied:
        return None
    return cfg, results


def cmd_synth(args, stages: Dict[str, float]) -> int:
    with _timed(stages, "load scenario"):
        scenario = load_scenario(args.scenario)
    if args.sigma_bar is not None:
        scenario = dataclasses.replace(scenario, sigma_bar=args.sigma_bar)
    with _timed(stages, "synthesis"):
        designed = _synthesize_for(scenario)
    if designed is None:
        return EXIT_DENIED
    cfg, granted = designed
    with _timed(stages, "write"):
        _write_or_print(json.dumps(bundle_to_json(granted, cfg), indent=2,
                                   allow_nan=False), args.out)
    return EXIT_OK


@contextlib.contextmanager
def _timed(stages: Dict[str, float], name: str):
    start = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - start


def cmd_certify(args, stages: Dict[str, float]) -> int:
    with _timed(stages, "load scenario"):
        topology = load_scenario(args.scenario).initial_topology
    with _timed(stages, "load bundle"):
        sigma_bar, controllers = load_bundle(args.controllers, topology)
    cert = check_global(controllers, topology, sigma_bar)
    stages.update(cert.stage_seconds)
    with _timed(stages, "verdict and kernel"):
        kernel = check_lasalle_kernel(cert)
        verdict = check_theorem1(cert, topology, kernel)
    with _timed(stages, "JSON write"):
        # compact: with an indent, json runs its pure-Python encoder
        _write_or_print(json.dumps(certificate_to_json(cert, verdict, kernel),
                                   allow_nan=False), args.out)
    if verdict.verdict == PASS:
        print("theorem1: pass")
        return EXIT_OK
    for name, (holds, margin) in verdict.facts.items():
        if not holds:
            print(f"unmet: {name} (margin {margin})", file=sys.stderr)
    abscissa = verdict.spectral_abscissa
    if verdict.verdict == FAIL:
        print("theorem1: fail" if abscissa is None
              else f"theorem1: fail, abscissa ≈ {abscissa:.3g}")
    else:
        print("theorem1: hypothesis-unmet")
    return EXIT_DENIED


def cmd_simulate(args, stages: Dict[str, float]) -> int:
    with _timed(stages, "load scenario"):
        scenario = load_scenario(args.scenario)
    overrides = {name: getattr(args, name)
                 for name in ("dt", "sigma_bar", "line_model")
                 if getattr(args, name) is not None}
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    newcomers = _newcomers(scenario)
    with _timed(stages, "synthesis"):
        designed = _synthesize_for(scenario, newcomers)
    if designed is None:
        return EXIT_DENIED
    verdicts = designed[1]
    initial = {i: verdicts[i] for i in scenario.initial_topology.ids}
    with _timed(stages, "simulate"):
        traj = simulate(scenario, controllers=initial, designs={
            params: verdicts[i] for i, params in newcomers.items()})
    out_dir = pathlib.Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with _timed(stages, "CSV write"):
        trajectory_to_csv(traj, out_dir / "trajectory.csv")
    with _timed(stages, "event log"):
        write_event_log(traj, out_dir / "events.log")
    for record in traj.events:
        print(f"t={record.t:g} {record.event}: {record.outcome}")
    if traj.diverged is not None:
        print(f"diverged at t={traj.diverged.t:g} "
              f"(|x| = {traj.diverged.max_abs:.3g})", file=sys.stderr)
        return EXIT_ERROR
    print(f"simulated {scenario.t_end:g} s, {len(traj.times)} samples "
          f"-> {out_dir / 'trajectory.csv'}")
    return EXIT_OK


def _format_spectrum(eigs: np.ndarray) -> str:
    parts = []
    for lam in sorted(np.asarray(eigs, dtype=complex),
                      key=lambda z: (z.real, z.imag)):
        if abs(lam.imag) < 1e-9 * max(1.0, abs(lam.real)):
            parts.append(f"{lam.real:.6g}")
        else:
            parts.append(f"{lam.real:.6g}{lam.imag:+.6g}j")
    return "  ".join(parts)


def cmd_appendix_a(args, stages: Dict[str, float]) -> int:
    ok = True
    for method in (baselines.LQR, baselines.POLE_PLACEMENT):
        report = baselines.destabilization_demo(method)
        for idx, eigs in enumerate(report.decoupled):
            ref = baselines.REFERENCE_DECOUPLED[method][idx]
            match = baselines.spectrum_matches(eigs, ref)
            ok &= match
            print(f"{method} decoupled dgu{idx + 1}: "
                  f"{_format_spectrum(eigs)} -> "
                  f"{'pass' if match else 'FAIL'}")
        match = baselines.spectrum_matches(report.coupled,
                                           baselines.REFERENCE_COUPLED[method])
        ok &= match
        print(f"{method} coupled: {_format_spectrum(report.coupled)} -> "
              f"{'pass' if match else 'FAIL'}")
        lam = report.unstable_pair[0]
        print(f"{method} coupling destabilizes: eigenvalue pair "
              f"{lam.real:.4g}±{abs(lam.imag):.4g}j in the right "
              f"half plane")
    spectrum = baselines.pnp_contrast()
    stable = bool(np.all(spectrum.real < 0.0))
    ok &= stable
    print(f"pnp coupled: {_format_spectrum(spectrum)} -> "
          f"{'pass' if stable else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_sweep(args, stages: Dict[str, float]) -> int:
    boxes = {name: tuple(getattr(args, name)) for name in ("r_t", "l_t", "c_t")
             if getattr(args, name) is not None}
    with _timed(stages, "sweep"):
        result = run_sweep(SweepGrid(points=args.points, **boxes),
                           sigma_bar=args.sigma_bar)
    with _timed(stages, "write"):
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_sweep_csv(result, out_dir / "sweep.csv")
            with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
                fh.write(summary_json(result))
        print(summary_json(result), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridforge",
        description="Plug-and-play voltage control for DC microgrids: "
                    "design, certify, and replay.")
    sub = parser.add_subparsers(dest="command", required=True)
    # appendix-a has no --timings
    parser.set_defaults(timings=False)
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timings", action="store_true",
                       help="print the wall time of each stage to stderr")

    synth = sub.add_parser("synth", parents=[timed],
                           help="design controllers for a scenario")
    synth.add_argument("scenario", help="scenario JSON file")
    synth.add_argument("--sigma-bar", type=float, default=None)
    synth.add_argument("--out", default=None, help="bundle JSON path "
                       "(stdout when omitted)")
    synth.set_defaults(func=cmd_synth)

    cert = sub.add_parser("certify", parents=[timed],
                          help="check a controller bundle against a "
                          "scenario's grid")
    cert.add_argument("scenario")
    cert.add_argument("controllers", help="bundle JSON from synth")
    cert.add_argument("--out", default=None, help="certificate JSON path")
    cert.set_defaults(func=cmd_certify)

    sim = sub.add_parser("simulate", parents=[timed],
                         help="replay a scenario timeline")
    sim.add_argument("scenario")
    sim.add_argument("--out", default=None, help="output directory "
                     "(default: current)")
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--sigma-bar", type=float, default=None)
    sim.add_argument("--line-model", choices=("qsl", "rl"), default=None)
    sim.set_defaults(func=cmd_simulate)

    app = sub.add_parser("appendix-a", help="reproduce the centralized "
                         "baseline study")
    app.set_defaults(func=cmd_appendix_a)

    swp = sub.add_parser("sweep", parents=[timed],
                         help="map design feasibility over a parameter box")
    swp.add_argument("--points", type=int, default=5)
    swp.add_argument("--sigma-bar", type=float, default=10.0)
    for name in ("--r-t", "--l-t", "--c-t"):
        swp.add_argument(name, type=float, nargs=2, default=None,
                         metavar=("LO", "HI"))
    swp.add_argument("--out", default=None, help="directory for "
                     "sweep.csv and summary.json")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  With --timings, each stage the command completed
    is printed to stderr last, whatever the exit code."""
    args = build_parser().parse_args(argv)
    stages: Dict[str, float] = {}
    try:
        return args.func(args, stages)
    except (OSError, json.JSONDecodeError, ValueError, KeyError,
            NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if args.timings:
            for stage, seconds in stages.items():
                print(f"timing: {stage}: {seconds:.6f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
