"""The three workloads: what each round runs, and what each run checks.

Every operation is one `gridforge` command run in-process through
`gridforge.cli.main`, one after another from a single client (a closed
loop).  A round is a fixed list of commands, so every run attempts whole
rounds and the share of failed operations never depends on run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import time
from typing import Dict, List, Sequence

import numpy as np

import checks

SIGMA_BAR = 10.0
BOX27 = ["--points", "3", "--r-t", "0.05", "1.0", "--l-t", "1e-3", "1e-2",
         "--c-t", "1e-6", "1e-5", "--sigma-bar", "10"]
GREEN = ["--points", "5", "--sigma-bar", "10"]

# certify-mesh: grid size, topologies per round, and the unit pool (eight
# points of the 5-point green-box grid, all granted at sigma_bar = 10)
MESH_UNITS = 200
MESH_TOPOLOGIES = 4
POOL = ((0.05, 1.0e-3, 1.0e-3), (1.0, 10.0e-3, 5.0e-3),
        (0.525, 5.5e-3, 3.0e-3), (0.2875, 3.25e-3, 2.0e-3),
        (0.7625, 7.75e-3, 4.0e-3), (0.05, 10.0e-3, 3.0e-3),
        (1.0, 1.0e-3, 2.0e-3), (0.525, 3.25e-3, 5.0e-3))


def run_command(argv: Sequence[str]):
    """(exit code, stdout, stderr, seconds) of one in-process command."""
    from gridforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workload:
    """One workload.  `prepare` is the set-up, repeated to time it;
    `round` runs one round of commands and returns the seconds of each;
    `check` inspects everything the rounds produced, and the return
    values captured in `store`, once the timing is over.  A round
    performs `ops_per_round` operations."""

    name = ""

    def __init__(self, out: pathlib.Path, seed: int):
        self.out = out
        self.seed = seed
        self.problems: List[str] = []
        self.errors: List[str] = []
        self.failed = 0

    def command(self, label, argv: Sequence[str], timings: Dict) -> str:
        """Run one command of a round; a non-zero exit is a failed
        operation."""
        code, stdout, stderr, seconds = run_command(argv)
        timings[label] = seconds
        if code != 0:
            self.failed += 1
            self.errors.append(f"{label}: exit code {code}: "
                               f"{stderr.strip()[-300:]}")
        return stdout


class DesignSweep(Workload):
    """125 green-box points, then the 27-point box; 152 plug-in decisions.

    The inputs do not depend on the seed.
    """

    name = "design-sweep"
    ops_per_round = 152

    def prepare(self):
        self.expected = checks.load_json(
            pathlib.Path(__file__).with_name("expected_box27.json"))
        self.dirs = {"green": self.out / "green", "box27": self.out / "box27"}
        for path in self.dirs.values():
            path.mkdir(parents=True, exist_ok=True)
        self.stdouts = []

    def round(self):
        timings = {}
        for label, args in (("green", GREEN), ("box27", BOX27)):
            stdout = self.command(label, ["sweep", *args, "--out",
                                          str(self.dirs[label])], timings)
            self.stdouts.append((label, stdout))
        return timings

    def check(self, store, rounds_run):
        results = store.get("run_sweep", [])
        if len(results) != 2 * rounds_run:
            self.problems.append(f"{len(results)} sweep results captured")
            return
        expected = [(p["r_t"], p["l_t"], p["c_t"], p["status"])
                    for p in self.expected["points"]]
        for index, result in enumerate(results):
            label = "green" if index % 2 == 0 else "box27"
            if label == "green":
                want = [(pt.r_t, pt.l_t, pt.c_t, "Feasible")
                        for pt in result.points]
                if len(want) != 125:
                    self.problems.append(f"green box has {len(want)} points")
            else:
                want = expected
            self._check_sweep(label, result, want)
        for label, stdout in self.stdouts:
            summary = json.loads(stdout)
            if summary["total"] != (125 if label == "green" else 27):
                self.problems.append(f"{label}: summary {summary}")
        for label, path in self.dirs.items():
            rows = (path / "sweep.csv").read_text().splitlines()[1:]
            last = results[-2 if label == "green" else -1]
            if [r.split(",")[3] for r in rows] != \
                    [pt.status for pt in last.points]:
                self.problems.append(f"{label}: sweep.csv statuses differ "
                                     "from the sweep result")

    def _check_sweep(self, label, result, want):
        if len(result.points) != len(want):
            self.problems.append(f"{label}: {len(result.points)} points, "
                                 f"expected {len(want)}")
            return
        for pt, (r_t, l_t, c_t, status) in zip(result.points, want):
            where = f"{label} point ({r_t!r}, {l_t!r}, {c_t!r})"
            if (pt.r_t, pt.l_t, pt.c_t) != (r_t, l_t, c_t):
                self.problems.append(f"{where}: sweep point is "
                                     f"({pt.r_t!r}, {pt.l_t!r}, {pt.c_t!r})")
                continue
            if pt.status == "NumericalFailure":
                self.failed += 1
                self.errors.append(f"{where}: {pt.detail}")
                continue
            if (pt.status == "Denied") != (status == "Denied"):
                self.problems.append(f"{where}: {pt.status}, expected "
                                     f"{status}")
                continue
            if pt.status == "Feasible":
                ctrl = pt.controller
                for problem in checks.check_grant(
                        (pt.r_t, pt.l_t, pt.c_t), result.sigma_bar,
                        ctrl.k, ctrl.p, ctrl.raw):
                    self.problems.append(f"{where}: {problem}")


class ReplayShipped(Workload):
    """The packaged 16 s scenario, once with QSL and once with RL lines.

    The inputs do not depend on the seed.
    """

    name = "replay-shipped"
    ops_per_round = 2
    EVENTS = ["t=4 plug_in dgu=6: accepted", "t=8 load_step dgu=6: applied",
              "t=12 unplug dgu=3: accepted"]
    ROWS = 160001

    def prepare(self):
        from gridforge import cli

        self.scenario_path = cli.packaged_scenario_path()
        self.scenario = checks.load_json(self.scenario_path)
        self.dirs = {"qsl": self.out / "qsl", "rl": self.out / "rl"}
        for path in self.dirs.values():
            path.mkdir(parents=True, exist_ok=True)
        self.stdouts = []

    def round(self):
        timings = {}
        for label in ("qsl", "rl"):
            argv = ["simulate", str(self.scenario_path), "--out",
                    str(self.dirs[label])]
            if label == "rl":
                argv += ["--line-model", "rl"]
            self.stdouts.append((label, self.command(label, argv, timings)))
        return timings

    def check(self, store, rounds_run):
        for label, stdout in self.stdouts:
            lines = stdout.splitlines()
            if lines[:3] != self.EVENTS or not lines[-1].startswith(
                    f"simulated 16 s, {self.ROWS} samples"):
                self.problems.append(f"{label}: unexpected output {lines}")
        gain_sets = store.get("synthesize_all", [])
        if len(gain_sets) != 2 * rounds_run:
            self.problems.append(f"{len(gain_sets)} synthesis results captured")
            return
        scen = self.scenario
        v_refs = {d["id"]: d["v_ref"] for d in scen["dgus"]}
        v_refs[6] = scen["events"][0]["params"]["v_ref"]
        ids = sorted(v_refs)
        data = {}
        for index, label in enumerate(("qsl", "rl")):
            log = [json.loads(line) for line in
                   (self.dirs[label] / "events.log").read_text().splitlines()]
            outcomes = [entry["outcome"] for entry in log]
            if outcomes != ["accepted", "applied", "accepted"]:
                self.problems.append(f"{label}: event outcomes {outcomes}")
            header, table = checks.read_trajectory(
                self.dirs[label] / "trajectory.csv")
            problems = checks.check_trajectory_grid(header, table, ids,
                                                    self.ROWS, 16.0)
            if problems:
                self.problems += [f"{label}: {p}" for p in problems]
                continue
            data[label] = table
            # the t = 12 s sample already follows the unplug of unit 3
            for window, present in (((10.0, 12.0 - 5e-5), ids),
                                    ((14.0, 16.0), [1, 2, 4, 5, 6])):
                self.problems += [f"{label}: {p}" for p in
                                  checks.check_voltage_window(
                                      header, table, v_refs, window,
                                      present, 1e-3)]
            gains = {i: c.k for i, c in gain_sets[-2 + index].items()}
            self.problems += [f"{label}: {p}" for p in
                              checks.check_exact_stretch(
                                  header, table, scen, gains,
                                  rl=(label == "rl"),
                                  rows=(10, 100, 1000, 10000, 39999))]
        if len(data) == 2:
            self.problems += checks.check_final_agreement(
                data["qsl"], data["rl"], 1e-6)


class CertifyMesh(Workload):
    """`gridforge certify` on meshed grids of 200 units and ~300 lines.

    The seed draws the topologies (a random recursive tree plus 100 extra
    lines), each unit's type from the pool, the line resistances and the
    loads.  The pool itself is fixed.
    """

    name = "certify-mesh"
    ops_per_round = MESH_TOPOLOGIES

    def prepare(self):
        self.out.mkdir(parents=True, exist_ok=True)
        pool = {"sigma_bar": SIGMA_BAR, "t_end": 1.0, "lines": [],
                "dgus": [{"id": i + 1, "r_t": r, "l_t": l, "c_t": c,
                          "load": {"type": "resistance", "value": 8.0},
                          "v_ref": 48.0}
                         for i, (r, l, c) in enumerate(POOL)]}
        pool_path = self.out / "pool-scenario.json"
        pool_bundle = self.out / "pool-bundle.json"
        pool_path.write_text(json.dumps(pool))
        code, _, stderr, _ = run_command(["synth", str(pool_path), "--out",
                                          str(pool_bundle)])
        if code != 0:
            raise RuntimeError(f"synth of the unit pool failed: {stderr}")
        pool_entries = checks.load_json(pool_bundle)
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for index in range(MESH_TOPOLOGIES):
            scenario, bundle = mesh_case(rng, pool_entries, MESH_UNITS)
            paths = tuple(self.out / f"{kind}-{index}.json"
                          for kind in ("scenario", "bundle", "certificate"))
            paths[0].write_text(json.dumps(scenario))
            paths[1].write_text(json.dumps(bundle))
            self.cases.append((scenario, bundle, paths))
        self.stdouts = []

    def round(self):
        timings = {}
        for index, (_, _, paths) in enumerate(self.cases):
            stdout = self.command(index, ["certify", str(paths[0]),
                                          str(paths[1]), "--out",
                                          str(paths[2])], timings)
            self.stdouts.append(stdout)
        return timings

    def check(self, store, rounds_run):
        for stdout in self.stdouts:
            if stdout.strip() != "theorem1: pass":
                self.problems.append(f"certify printed {stdout.strip()!r}")
        for index, (scenario, bundle, paths) in enumerate(self.cases):
            doc = checks.load_json(paths[2])
            self.problems += [f"grid {index}: {p}" for p in
                              checks.check_certificate(doc, MESH_UNITS)]
            a, _ = checks.closed_loop(checks.scenario_dgus(scenario),
                                      scenario["lines"],
                                      checks.bundle_gains(bundle),
                                      loads=False)
            self.problems += [f"grid {index}: {p}"
                              for p in checks.check_hurwitz(a)]


def mesh_case(rng, pool_bundle, n):
    """(scenario, bundle) of one meshed grid drawn from rng.

    A random recursive tree (unit i joins a uniformly drawn earlier unit)
    keeps the grid connected; 0.5 n further distinct lines make it
    meshed.  Line resistances are uniform on [0.02, 0.1] ohm, loads are
    resistive, uniform on [2, 10] ohm.
    """
    types = rng.integers(len(POOL), size=n)
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(i)), i))
    while len(edges) < n + n // 2:
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        edges.add((i, j))
    dgus = []
    for i in range(n):
        r, l, c = POOL[types[i]]
        dgus.append({"id": i + 1, "r_t": r, "l_t": l, "c_t": c,
                     "load": {"type": "resistance",
                              "value": float(rng.uniform(2.0, 10.0))},
                     "v_ref": 48.0})
    lines = [{"i": i + 1, "j": j + 1, "r": float(rng.uniform(0.02, 0.1)),
              "l": 2.0e-6} for i, j in sorted(edges)]
    scenario = {"sigma_bar": SIGMA_BAR, "t_end": 1.0, "dgus": dgus,
                "lines": lines}
    entries = pool_bundle["controllers"]
    bundle = {"sigma_bar": pool_bundle["sigma_bar"],
              "alphas": pool_bundle["alphas"],
              "controllers": [dict(entries[types[i]], dgu_id=i + 1)
                              for i in range(n)]}
    return scenario, bundle


WORKLOADS = {w.name: w for w in (DesignSweep, ReplayShipped, CertifyMesh)}
