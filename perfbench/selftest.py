"""Self-test of the benchmark's correctness checks.

Each check must pass one good output made by gridforge and reject
corrupted copies of it: a gain with its sign flipped, a trajectory CSV
cut short, and a certificate whose closed loop has an eigenvalue in the
right half-plane.  Takes a few seconds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import POOL, mesh_case, run_command  # noqa: E402

OUT = HERE / "out" / "selftest"
FAILURES = []


def expect(name: str, problems, should_pass: bool) -> None:
    ok = (not problems) == should_pass
    verdict = "ok" if ok else "WRONG"
    what = "passes" if should_pass else "is rejected"
    print(f"{verdict}: {name} {what}"
          + ("" if ok or should_pass else " (no problem found)")
          + ("" if ok or not should_pass else f": {problems[:2]}"))
    if not ok:
        FAILURES.append(name)


def grant_checks() -> None:
    from gridforge.model import DguParams, LoadModel, augmented_dgu
    from gridforge.synthesis import SynthesisConfig, synthesize

    r_t, l_t, c_t = POOL[2]
    params = DguParams(r_t, l_t, c_t, LoadModel.resistive(8.0), 48.0)
    ctrl = synthesize(augmented_dgu(params), params, SynthesisConfig(10.0))
    args = ((r_t, l_t, c_t), 10.0)
    expect("granted design", checks.check_grant(*args, ctrl.k, ctrl.p,
                                                ctrl.raw), True)
    expect("gain with its sign flipped",
           checks.check_grant(*args, -ctrl.k, ctrl.p, ctrl.raw), False)
    bad_p = ctrl.p.copy()
    bad_p[0, 0] *= 1.01
    expect("P with P11 off sigma_bar*C_t",
           checks.check_grant(*args, ctrl.k, bad_p, ctrl.raw), False)
    raw = dict(ctrl.raw, gamma=-np.abs(ctrl.raw["gamma"]) - 1.0)
    expect("negative LMI weight gamma",
           checks.check_grant(*args, ctrl.k, ctrl.p, raw), False)


def trajectory_checks() -> None:
    scenario = {"sigma_bar": 10.0, "t_end": 0.02, "dt": 1e-5,
                "record_dt": 1e-4,
                "dgus": [{"id": i + 1, "r_t": r, "l_t": l, "c_t": c,
                          "load": {"type": "resistance", "value": 6.0},
                          "v_ref": 48.0 + 0.1 * i}
                         for i, (r, l, c) in enumerate(POOL[:3])],
                "lines": [{"i": 1, "j": 2, "r": 0.05, "l": 2e-6},
                          {"i": 2, "j": 3, "r": 0.07, "l": 2e-6}]}
    path = OUT / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, _, err, _ = run_command(["simulate", str(path), "--out", str(OUT)])
    if code != 0:
        sys.exit(f"selftest: simulate failed: {err}")
    header, data = checks.read_trajectory(OUT / "trajectory.csv")
    ids = [1, 2, 3]
    expect("trajectory grid", checks.check_trajectory_grid(
        header, data, ids, 201, 0.02), True)
    cut = OUT / "cut.csv"
    lines = (OUT / "trajectory.csv").read_text().splitlines()
    cut.write_text("\n".join(lines[:150]) + "\n")
    header_cut, data_cut = checks.read_trajectory(cut)
    expect("CSV cut short", checks.check_trajectory_grid(
        header_cut, data_cut, ids, 201, 0.02), False)

    from gridforge.cli import load_scenario
    from gridforge.synthesis import synthesize_all

    sc = load_scenario(path)
    gains = {i: c.k for i, c in
             synthesize_all(sc.initial_topology, sc.synthesis_config()).items()}
    rows = (10, 100, 199)
    expect("trajectory against the exact solution", checks.check_exact_stretch(
        header, data, scenario, gains, rl=False, rows=rows), True)
    flipped = dict(gains)
    flipped[2] = -gains[2]
    expect("trajectory against a loop with one gain sign flipped",
           checks.check_exact_stretch(header, data, scenario, flipped,
                                      rl=False, rows=rows), False)
    shifted = data.copy()
    shifted[150:, 1] += 1e-3
    expect("trajectory with a voltage 1 mV off", checks.check_exact_stretch(
        header, shifted, scenario, gains, rl=False, rows=rows), False)


def certificate_checks() -> None:
    pool = {"sigma_bar": 10.0, "t_end": 1.0, "lines": [],
            "dgus": [{"id": i + 1, "r_t": r, "l_t": l, "c_t": c,
                      "load": {"type": "resistance", "value": 8.0},
                      "v_ref": 48.0} for i, (r, l, c) in enumerate(POOL)]}
    pool_path, pool_bundle = OUT / "pool.json", OUT / "pool-bundle.json"
    pool_path.write_text(json.dumps(pool))
    code, _, err, _ = run_command(["synth", str(pool_path), "--out",
                                   str(pool_bundle)])
    if code != 0:
        sys.exit(f"selftest: synth failed: {err}")
    n = 12
    scenario, bundle = mesh_case(np.random.default_rng(0),
                                 checks.load_json(pool_bundle), n)
    paths = [OUT / name for name in ("mesh.json", "bundle.json", "cert.json")]
    paths[0].write_text(json.dumps(scenario))
    paths[1].write_text(json.dumps(bundle))
    code, stdout, err, _ = run_command(["certify", *map(str, paths[:2]),
                                        "--out", str(paths[2])])
    if code != 0 or stdout.strip() != "theorem1: pass":
        sys.exit(f"selftest: certify failed: {stdout} {err}")
    doc = checks.load_json(paths[2])
    expect("certificate", checks.check_certificate(doc, n), True)
    bad = copy.deepcopy(doc)
    bad["closed_loop_eigenvalues"][0][0] = 0.1
    expect("certificate with an eigenvalue in the right half-plane",
           checks.check_certificate(bad, n), False)
    bad = copy.deepcopy(doc)
    bad["laplacian"][0][1] += 1.0
    expect("certificate with a Laplacian row not summing to zero",
           checks.check_certificate(bad, n), False)
    dgus = checks.scenario_dgus(scenario)
    gains = checks.bundle_gains(bundle)
    a, _ = checks.closed_loop(dgus, scenario["lines"], gains, loads=False)
    expect("assembled closed loop", checks.check_hurwitz(a), True)
    gains[1] = -gains[1]
    a, _ = checks.closed_loop(dgus, scenario["lines"], gains, loads=False)
    expect("closed loop with one gain sign flipped", checks.check_hurwitz(a),
           False)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    grant_checks()
    trajectory_checks()
    certificate_checks()
    if FAILURES:
        sys.exit(f"selftest: {len(FAILURES)} check(s) misjudged: {FAILURES}")
    print("selftest: all checks judged correctly")


if __name__ == "__main__":
    main()
