"""Command-line front end and the JSON file formats behind it.

Four file-facing commands (synth, certify, simulate, sweep) plus a
self-contained reproduction report (appendix-a).  Exit codes are part of
the contract: 0 success, 1 bad input or numerical breakdown, 2 a refusal
(controller denied, certificate not granted).

Scenario files are plain JSON in SI units (ohm, henry, farad, volt,
second), no unit strings, so fixtures diff cleanly.  Parse and serialize
are exact inverses on the parsed object.
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
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import baselines
from .certify import (
    FAIL,
    HYPOTHESIS_UNMET,
    PASS,
    certificate_to_json,
    check_global,
    check_lasalle_kernel,
    check_theorem1,
    closed_loop_spectrum,
)
from .model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    assemble_global,
    closed_loop_blocks,
    unit_blocks,
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
    controller_to_json,
    local_dissipation,
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

def _load_from_json(obj: Mapping) -> LoadModel:
    return LoadModel(str(obj["type"]), float(obj["value"]))


def _load_to_json(load: LoadModel) -> dict:
    return {"type": load.kind, "value": load.value}


def _params_from_json(obj: Mapping) -> DguParams:
    return DguParams(r_t=float(obj["r_t"]), l_t=float(obj["l_t"]),
                     c_t=float(obj["c_t"]), load=_load_from_json(obj["load"]),
                     v_ref=float(obj["v_ref"]))


def _params_to_json(params: DguParams) -> dict:
    return {"r_t": params.r_t, "l_t": params.l_t, "c_t": params.c_t,
            "load": _load_to_json(params.load), "v_ref": params.v_ref}


def _line_from_json(obj: Mapping) -> LineParams:
    l = obj.get("l")
    return LineParams(int(obj["i"]), int(obj["j"]), float(obj["r"]),
                      None if l is None else float(l))


def _line_to_json(line: LineParams) -> dict:
    out = {"i": line.i, "j": line.j, "r": line.r}
    if line.l is not None:
        out["l"] = line.l
    return out


def _event_from_json(obj: Mapping):
    t = float(obj["t"])
    kind = str(obj["type"])
    if kind == PlugIn.kind:
        return PlugIn(t, int(obj["dgu"]), _params_from_json(obj["params"]),
                      tuple(_line_from_json(ln) for ln in obj["lines"]))
    if kind == Unplug.kind:
        return Unplug(t, int(obj["dgu"]))
    if kind == LoadStep.kind:
        return LoadStep(t, int(obj["dgu"]), _load_from_json(obj["load"]))
    if kind == RefStep.kind:
        return RefStep(t, int(obj["dgu"]), float(obj["v_ref"]))
    raise ValueError(f"unknown event type {kind!r}")


def _event_to_json(event) -> dict:
    out = {"t": event.t, "type": event.kind, "dgu": event.dgu_id}
    if isinstance(event, PlugIn):
        out["params"] = _params_to_json(event.params)
        out["lines"] = [_line_to_json(ln) for ln in event.lines]
    elif isinstance(event, LoadStep):
        out["load"] = _load_to_json(event.load)
    elif isinstance(event, RefStep):
        out["v_ref"] = event.v_ref
    return out


def parse_scenario(payload: Mapping) -> Scenario:
    try:
        dgus = {int(entry["id"]): _params_from_json(entry)
                for entry in payload["dgus"]}
        lines = tuple(_line_from_json(entry) for entry in payload["lines"])
        alphas = payload.get("alphas")
        knobs = {name: cast(payload[name]) for name, cast in
                 (("dt", float), ("record_dt", float), ("line_model", str))
                 if name in payload}
        return Scenario(
            initial_topology=MicrogridTopology(dgus, lines),
            sigma_bar=float(payload["sigma_bar"]),
            events=tuple(_event_from_json(ev)
                         for ev in payload.get("events", [])),
            t_end=float(payload["t_end"]),
            alphas=None if alphas is None else tuple(map(float, alphas)),
            **knobs,
        )
    except KeyError as exc:
        raise ValueError(f"scenario file is missing field {exc}") from None


def scenario_to_json(scenario: Scenario) -> dict:
    top = scenario.initial_topology
    payload = {"sigma_bar": scenario.sigma_bar}
    if scenario.alphas is not None:
        payload["alphas"] = list(scenario.alphas)
    payload.update({
        "t_end": scenario.t_end,
        "dt": scenario.dt,
        "record_dt": scenario.record_dt,
        "line_model": scenario.line_model,
        "dgus": [{"id": dgu_id, **_params_to_json(top.dgus[dgu_id])}
                 for dgu_id in top.ids],
        "lines": [_line_to_json(ln) for ln in top.lines],
        "events": [_event_to_json(ev) for ev in scenario.events],
    })
    return payload


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


# ---------------------------------------------------------------------------
# controller bundles

def bundle_to_json(controllers: Mapping[int, LocalController],
                   cfg: SynthesisConfig) -> dict:
    return {
        "sigma_bar": cfg.sigma_bar,
        "alphas": list(cfg.alphas),
        "controllers": [controller_to_json(dgu_id, controllers[dgu_id], cfg)
                        for dgu_id in sorted(controllers)],
    }


def _finite(dgu_id, name: str, value, shape: Tuple[int, ...],
            what: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"DGU {dgu_id}: controller {name} must be {what}")
    return a


def controller_from_json(entry: Mapping) -> Tuple[np.ndarray,
                                                  Optional[dict]]:
    """(gain row, certificate fields or None) of one bundle entry.

    Entries written by `synth` carry the full structured certificate:
    P, eta, delta and the diagnostics, returned as the keyword arguments
    of LocalController except q_local, which load_bundle computes for
    all entries at once.  Entries carrying only a gain (hand written, or
    exported from the baseline designs) have no certificate; those can
    be simulated and their closed loop inspected, but not certified.
    K must be three finite numbers and P a finite, symmetric 3x3 array;
    anything else is refused with the entry's DGU id.
    """
    dgu_id = entry["dgu_id"]
    k = _finite(dgu_id, "gain K", entry["K"], (3,), "three finite numbers")
    if "P" not in entry:
        return k, None
    p = _finite(dgu_id, "P", entry["P"], (3, 3), "a finite 3x3 array")
    if (p != p.T).any():
        raise ValueError(f"DGU {dgu_id}: controller P is not symmetric")
    diag = entry.get("diagnostics", {})
    raw = {"gamma": np.asarray(diag.get("gamma", [0.0, 0.0, 0.0])),
           "beta": float(diag.get("beta", 0.0)),
           "zeta": float(diag.get("zeta", 0.0))}
    # bundles written before the solver diagnostics existed have none
    if "solver" in diag:
        raw["solver"] = dict(diag["solver"])
    return k, {"p": p, "eta": float(entry["eta"]),
               "delta": float(entry["delta"]), "raw": raw}


def load_bundle(path, topology: MicrogridTopology
                ) -> Tuple[float, Dict[int, Union[LocalController,
                                                  np.ndarray]]]:
    """(sigma_bar, controller per DGU) of a bundle file: a LocalController
    for each entry with a certificate, whose q_local all come from one
    stacked product, and the bare gain row for the others."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    sigma_bar = float(payload["sigma_bar"])
    controllers = {}
    certified = {}
    for entry in payload["controllers"]:
        dgu_id = int(entry["dgu_id"])
        if dgu_id not in topology.dgus:
            raise ValueError(f"bundle names DGU {dgu_id}, "
                             "absent from the scenario")
        if dgu_id in controllers:
            raise ValueError(f"bundle names DGU {dgu_id} twice")
        controllers[dgu_id], fields = controller_from_json(entry)
        if fields is not None:
            certified[dgu_id] = fields
    missing = set(topology.ids) - set(controllers)
    if missing:
        raise ValueError(f"bundle has no controller for DGUs "
                         f"{sorted(missing)}")
    ids = sorted(certified)
    a, b, _ = unit_blocks([topology.dgus[dgu_id] for dgu_id in ids])
    gains = np.array([controllers[dgu_id] for dgu_id in ids]).reshape(-1, 3)
    p = np.array([certified[dgu_id]["p"] for dgu_id in ids]).reshape(-1, 3, 3)
    q = local_dissipation(a, b, gains, p)
    for dgu_id, q_local in zip(ids, q):
        controllers[dgu_id] = LocalController(
            k=controllers[dgu_id], q_local=q_local, **certified[dgu_id])
    return sigma_bar, controllers


# ---------------------------------------------------------------------------
# commands

def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _synthesize_for(scenario: Scenario
                    ) -> Optional[Tuple[SynthesisConfig, dict]]:
    """(config, granted controllers) of a scenario's units, or None, with
    every refusal printed to stderr, when any unit is denied."""
    cfg = scenario.synthesis_config()
    results = synthesize_all(scenario.initial_topology, cfg)
    denied = sorted(i for i, r in results.items() if isinstance(r, Denied))
    for dgu_id in denied:
        print(f"denied: dgu {dgu_id}: {results[dgu_id].reason}",
              file=sys.stderr)
    if denied:
        return None
    return cfg, {i: r for i, r in results.items()
                 if isinstance(r, LocalController)}


def cmd_synth(args) -> int:
    stages: Dict[str, float] = {}
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
        _write_or_print(json.dumps(bundle_to_json(granted, cfg), indent=2),
                        args.out)
    if args.timings:
        _print_timings(stages)
    return EXIT_OK


@contextlib.contextmanager
def _timed(stages: Dict[str, float], name: str):
    start = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - start


def _print_timings(stages: Mapping[str, float]) -> None:
    for stage, seconds in stages.items():
        print(f"timing: {stage}: {seconds:.6f} s", file=sys.stderr)


def _print_fail(abscissa: Optional[float]) -> None:
    if abscissa is None:
        print("theorem1: fail")
    else:
        print(f"theorem1: fail, abscissa ≈ {abscissa:.3g}")


def cmd_certify(args) -> int:
    stages: Dict[str, float] = {}
    with _timed(stages, "load scenario"):
        topology = load_scenario(args.scenario).initial_topology
    with _timed(stages, "load bundle"):
        sigma_bar, controllers = load_bundle(args.controllers, topology)
    structured = all(isinstance(c, LocalController)
                     for c in controllers.values())
    if not structured:
        # gain-only bundle: the closed-loop spectrum is still decisive
        # in one direction (an eigenvalue in the right half plane refutes
        # stability), but no certificate can be granted without P.
        system = assemble_global(topology)
        spectrum, _ = closed_loop_spectrum(
            system, closed_loop_blocks(system, controllers))
        _print_fail(None if spectrum is None
                    else float(np.max(spectrum.real)))
        return EXIT_DENIED
    cert = check_global(controllers, topology, sigma_bar)
    stages.update(cert.stage_seconds)
    with _timed(stages, "verdict and kernel"):
        kernel = check_lasalle_kernel(cert, controllers)
        verdict = check_theorem1(cert, controllers, topology, kernel)
    with _timed(stages, "JSON write"):
        # compact: with an indent, json runs its pure-Python encoder
        _write_or_print(json.dumps(certificate_to_json(cert, verdict,
                                                       kernel)), args.out)
    if args.timings:
        _print_timings(stages)
    if verdict.verdict == PASS:
        print("theorem1: pass")
        return EXIT_OK
    for name, (holds, margin) in verdict.facts.items():
        if not holds:
            print(f"unmet: {name} (margin {margin})", file=sys.stderr)
    if verdict.verdict == FAIL:
        _print_fail(verdict.spectral_abscissa)
    else:
        print("theorem1: hypothesis-unmet")
    return EXIT_DENIED


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.sigma_bar is not None:
        overrides["sigma_bar"] = args.sigma_bar
    if args.line_model is not None:
        overrides["line_model"] = args.line_model
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    stages: Dict[str, float] = {}
    with _timed(stages, "synthesis"):
        designed = _synthesize_for(scenario)
    if designed is None:
        return EXIT_DENIED
    with _timed(stages, "simulate"):
        traj = simulate(scenario, controllers=designed[1])
    out_dir = pathlib.Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with _timed(stages, "CSV write"):
        trajectory_to_csv(traj, out_dir / "trajectory.csv")
    with _timed(stages, "event log"):
        write_event_log(traj, out_dir / "events.log")
    if args.timings:
        _print_timings(stages)
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


def cmd_appendix_a(args) -> int:
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


def cmd_sweep(args) -> int:
    grid_kwargs = {"points": args.points}
    if args.r_t is not None:
        grid_kwargs["r_t"] = tuple(args.r_t)
    if args.l_t is not None:
        grid_kwargs["l_t"] = tuple(args.l_t)
    if args.c_t is not None:
        grid_kwargs["c_t"] = tuple(args.c_t)
    stages: Dict[str, float] = {}
    with _timed(stages, "sweep"):
        result = run_sweep(SweepGrid(**grid_kwargs),
                           sigma_bar=args.sigma_bar)
    with _timed(stages, "write"):
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_sweep_csv(result, out_dir / "sweep.csv")
            with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
                fh.write(summary_json(result))
        print(summary_json(result), end="")
    if args.timings:
        _print_timings(stages)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridforge",
        description="Plug-and-play voltage control for DC microgrids: "
                    "design, certify, and replay.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="design controllers for a scenario")
    synth.add_argument("scenario", help="scenario JSON file")
    synth.add_argument("--sigma-bar", type=float, default=None)
    synth.add_argument("--out", default=None, help="bundle JSON path "
                       "(stdout when omitted)")
    synth.add_argument("--timings", action="store_true",
                       help="print the wall time of each stage to stderr")
    synth.set_defaults(func=cmd_synth)

    cert = sub.add_parser("certify", help="check a controller bundle "
                          "against a scenario's grid")
    cert.add_argument("scenario")
    cert.add_argument("controllers", help="bundle JSON from synth")
    cert.add_argument("--out", default=None, help="certificate JSON path")
    cert.add_argument("--timings", action="store_true",
                      help="print the wall time of each stage to stderr")
    cert.set_defaults(func=cmd_certify)

    sim = sub.add_parser("simulate", help="replay a scenario timeline")
    sim.add_argument("scenario")
    sim.add_argument("--out", default=None, help="output directory "
                     "(default: current)")
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--sigma-bar", type=float, default=None)
    sim.add_argument("--line-model", choices=("qsl", "rl"), default=None)
    sim.add_argument("--timings", action="store_true",
                     help="print the wall time of each stage to stderr")
    sim.set_defaults(func=cmd_simulate)

    app = sub.add_parser("appendix-a", help="reproduce the centralized "
                         "baseline study")
    app.set_defaults(func=cmd_appendix_a)

    swp = sub.add_parser("sweep", help="map design feasibility over a "
                         "parameter box")
    swp.add_argument("--points", type=int, default=5)
    swp.add_argument("--sigma-bar", type=float, default=10.0)
    swp.add_argument("--r-t", type=float, nargs=2, default=None,
                     metavar=("LO", "HI"))
    swp.add_argument("--l-t", type=float, nargs=2, default=None,
                     metavar=("LO", "HI"))
    swp.add_argument("--c-t", type=float, nargs=2, default=None,
                     metavar=("LO", "HI"))
    swp.add_argument("--out", default=None, help="directory for "
                     "sweep.csv and summary.json")
    swp.add_argument("--timings", action="store_true",
                     help="print the wall time of each stage to stderr")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError,
            NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
