"""Command-line interface: file formats, exit codes, artifacts."""

import importlib
import importlib.metadata
import json
import os
import pathlib
import shutil
import subprocess

import numpy as np
import pytest

from gridforge import baselines, cli
from gridforge.simulate import (LoadStep, PlugIn, RefStep, Scenario,
                                Unplug)
from test_certify import closed_form_controller

SMALL = {
    "sigma_bar": 10.0,
    "alphas": [1e-4, 1e-4, 1e-4, 1e-6, 1e-6],
    "t_end": 0.05, "dt": 1e-5, "record_dt": 1e-4, "line_model": "qsl",
    "dgus": [
        {"id": 1, "r_t": 0.1, "l_t": 1.8e-3, "c_t": 2.2e-3,
         "load": {"type": "resistance", "value": 10.0}, "v_ref": 47.9},
        {"id": 2, "r_t": 0.2, "l_t": 1.7e-3, "c_t": 2.0e-3,
         "load": {"type": "resistance", "value": 6.0}, "v_ref": 48.06},
    ],
    "lines": [{"i": 1, "j": 2, "r": 0.05, "l": 2.1e-6}],
    "events": [{"t": 0.02, "type": "ref_step", "dgu": 1, "v_ref": 48.0}],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(pathlib.Path(path).read_text())


def timing_stages(err):
    """The stage names of --timings lines on stderr, each line checked."""
    for line in err.splitlines():
        assert line.startswith("timing: ") and line.endswith(" s")
        assert float(line.split(": ")[2][:-2]) >= 0.0
    return [line.split(": ")[1] for line in err.splitlines()]


@pytest.fixture
def small_file(tmp_path):
    return write_json(tmp_path / "small.json", SMALL)


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundle")
    scenario = write_json(tmp / "small.json", SMALL)
    bundle = tmp / "bundle.json"
    assert cli.main(["synth", scenario, "--out", str(bundle)]) == 0
    return scenario, str(bundle)


class TestScenarioFormat:
    def test_round_trip_is_identity(self, small_file):
        first = cli.load_scenario(small_file)
        assert first.events == (RefStep(0.02, 1, 48.0),)
        again = cli.parse_scenario(cli.scenario_to_json(first))
        assert again == first

    def test_packaged_scenario_round_trips(self):
        sc = cli.load_scenario(cli.packaged_scenario_path())
        assert cli.parse_scenario(cli.scenario_to_json(sc)) == sc

    def test_packaged_scenario_timeline(self):
        sc = cli.load_scenario(cli.packaged_scenario_path())
        assert sorted(sc.initial_topology.ids) == [1, 2, 3, 4, 5]
        assert sc.sigma_bar == 10.0 and sc.t_end == 16.0 and sc.dt == 1e-5
        assert [type(ev) for ev in sc.events] == [PlugIn, LoadStep, Unplug]
        assert [ev.t for ev in sc.events] == [4.0, 8.0, 12.0]
        plug = sc.events[0]
        assert plug.dgu_id == 6 and len(plug.lines) == 2
        assert plug.params.r_t == 0.4
        assert sc.events[1].load.value == 4.0
        assert sc.events[2].dgu_id == 3

    def test_missing_field_is_a_value_error(self):
        broken = {k: v for k, v in SMALL.items() if k != "t_end"}
        with pytest.raises(ValueError, match="missing field"):
            cli.parse_scenario(broken)

    def test_omitted_knobs_take_scenario_defaults(self):
        knobs = ("dt", "record_dt", "line_model")
        sc = cli.parse_scenario({k: v for k, v in SMALL.items()
                                 if k not in knobs})
        assert sc == Scenario(sc.initial_topology, sc.sigma_bar, sc.events,
                              sc.t_end, alphas=sc.alphas)

    def test_unknown_event_type_rejected(self):
        payload = dict(SMALL)
        payload["events"] = [{"t": 0.01, "type": "teleport", "dgu": 1}]
        with pytest.raises(ValueError, match="unknown event type"):
            cli.parse_scenario(payload)

    def test_line_inductance_is_optional(self):
        payload = json.loads(json.dumps(SMALL))
        del payload["lines"][0]["l"]
        sc = cli.parse_scenario(payload)
        assert sc.initial_topology.lines[0].l is None
        assert "l" not in cli.scenario_to_json(sc)["lines"][0]

    def test_current_load_parses(self):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][0]["load"] = {"type": "current", "value": 5.0}
        sc = cli.parse_scenario(payload)
        assert sc.initial_topology.dgus[1].load.kind == "current"


class TestSynth:
    def test_bundle_written_and_structured(self, bundle_file):
        _, bundle = bundle_file
        payload = read_json(bundle)
        assert payload["sigma_bar"] == 10.0
        assert len(payload["controllers"]) == 2
        entry = payload["controllers"][0]
        for key in ("dgu_id", "K", "P", "eta", "delta", "diagnostics"):
            assert key in entry
        assert len(entry["K"]) == 3 and len(entry["P"]) == 3

    def test_bundle_carries_solver_diagnostics(self, bundle_file):
        _, bundle = bundle_file
        for entry in read_json(bundle)["controllers"]:
            solver = entry["diagnostics"]["solver"]
            assert set(solver) == {"status", "iterations_phase1",
                                   "iterations_phase2"}
            assert solver["status"] in ("Optimal", "Feasible")
            assert solver["iterations_phase1"] > 0

    def test_denied_dgu_exits_two_and_names_it(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][0]["c_t"] = 1e6
        code = cli.main(["synth", write_json(tmp_path / "d.json", payload)])
        assert code == 2
        err = capsys.readouterr().err
        assert "denied: dgu 1" in err and "infeasible" in err

    def test_negative_resistance_exits_one(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][0]["r_t"] = -1.0
        code = cli.main(["synth", write_json(tmp_path / "n.json", payload)])
        assert code == 1
        assert "r_t must be positive" in capsys.readouterr().err

    def test_sigma_bar_flag_keeps_scenario_alphas(self, small_file,
                                                  tmp_path):
        bundle = tmp_path / "b100.json"
        assert cli.main(["synth", small_file, "--sigma-bar", "100",
                         "--out", str(bundle)]) == 0
        payload = json.loads(bundle.read_text())
        assert payload["sigma_bar"] == 100.0
        assert payload["alphas"] == SMALL["alphas"]
        c_t = SMALL["dgus"][0]["c_t"]
        assert payload["controllers"][0]["eta"] == pytest.approx(100.0 * c_t)

    def test_timings_go_to_stderr(self, bundle_file, tmp_path, capsys):
        scenario, bundle = bundle_file
        timed = tmp_path / "bundle.json"
        assert cli.main(["synth", scenario, "--out", str(timed),
                         "--timings"]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert timing_stages(err) == ["load scenario", "synthesis", "write"]
        assert timed.read_bytes() == pathlib.Path(bundle).read_bytes()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["synth", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert cli.main(["synth", str(path)]) == 1


class TestCertify:
    def test_pass_line_and_certificate(self, bundle_file, tmp_path, capsys):
        scenario, bundle = bundle_file
        cert_path = tmp_path / "cert.json"
        code = cli.main(["certify", scenario, bundle,
                         "--out", str(cert_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "theorem1: pass"
        cert = json.loads(cert_path.read_text())
        assert cert["theorem1"]["verdict"] == "Pass"
        assert cert["lasalle_kernel"]["nullity"] == 3
        assert cert["checks"]["q_global_max_eig"] <= 1e-6

    def test_gain_only_baseline_bundle_fails(self, bundle_file, tmp_path,
                                             capsys):
        scenario, _ = bundle_file
        report = baselines.destabilization_demo(baselines.LQR)
        payload = {"sigma_bar": 10.0, "controllers": [
            {"dgu_id": 1, "K": report.gains[0].tolist()},
            {"dgu_id": 2, "K": report.gains[1].tolist()}]}
        path = write_json(tmp_path / "lqr.json", payload)
        code = cli.main(["certify", scenario, path])
        assert code == 2
        line = capsys.readouterr().out.strip()
        assert line.startswith("theorem1: fail, abscissa ≈ ")
        assert float(line.rsplit(" ", 1)[-1]) == pytest.approx(17.5, abs=0.1)

    def test_bundle_with_or_without_solver_diagnostics(self, bundle_file,
                                                        tmp_path, capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        top = cli.load_scenario(scenario).initial_topology
        _, with_solver = cli.load_bundle(bundle, top)
        for entry in payload["controllers"]:
            del entry["diagnostics"]["solver"]
        path = write_json(tmp_path / "older.json", payload)
        _, without = cli.load_bundle(path, top)
        for dgu_id, ctrl in with_solver.items():
            assert "solver" in ctrl.raw and "solver" not in without[dgu_id].raw
            assert (ctrl.k == without[dgu_id].k).all()
        assert cli.main(["certify", scenario, path,
                         "--out", str(tmp_path / "cert.json")]) == 0
        assert capsys.readouterr().out.strip() == "theorem1: pass"

    def test_incomplete_bundle_is_hard_error(self, bundle_file, tmp_path,
                                             capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"] = payload["controllers"][:1]
        path = write_json(tmp_path / "partial.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert "no controller" in capsys.readouterr().err

    def test_duplicate_entry_is_hard_error(self, bundle_file, tmp_path,
                                           capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"].append(dict(payload["controllers"][1]))
        path = write_json(tmp_path / "twice.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert ("error: bundle names DGU 2 twice"
                in capsys.readouterr().err)

    def test_large_gain_only_bundle_skips_the_spectrum(self, tmp_path,
                                                      capsys, monkeypatch):
        # above the spectrum's size cap a gain-only bundle fails at once:
        # no dense eigensolve of the 3N x 3N closed loop
        n = 201
        unit = {"r_t": 0.1, "l_t": 1.8e-3, "c_t": 2.2e-3,
                "load": {"type": "resistance", "value": 10.0}, "v_ref": 48.0}
        scenario = {"sigma_bar": 10.0, "t_end": 1.0,
                    "dgus": [dict(unit, id=i) for i in range(1, n + 1)],
                    "lines": [{"i": i, "j": i + 1, "r": 0.05}
                              for i in range(1, n)]}
        bundle = {"sigma_bar": 10.0, "controllers": [
            {"dgu_id": i, "K": [0.0, 0.0, 0.1 / (2 * 1.8e-3)]}
            for i in range(1, n + 1)]}
        calls = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name,
                                lambda a, _name=name: calls.append(_name))
        code = cli.main(["certify",
                         write_json(tmp_path / "chain.json", scenario),
                         write_json(tmp_path / "gains.json", bundle)])
        assert code == 2
        assert capsys.readouterr().out == "theorem1: fail\n"
        assert calls == []

    def test_mixed_sigma_bar_is_hard_error(self, bundle_file, tmp_path,
                                           capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"][0]["eta"] *= 2.0
        path = write_json(tmp_path / "mixed.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_header_sigma_bar_must_match_the_certificates(
            self, bundle_file, tmp_path, capsys):
        # every eta is 10 C_t, but the Laplacian would use the header's
        # sigma_bar and come out 10x too large
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["sigma_bar"] = 100.0
        path = write_json(tmp_path / "header.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: DGU 1: eta 0.022 is not sigma_bar * "
                              "C_t = 0.22")

    def test_disconnected_grid_is_hypothesis_unmet(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "apart.json", dict(SMALL, lines=[]))
        bundle = str(tmp_path / "bundle.json")
        assert cli.main(["synth", scenario, "--out", bundle]) == 0
        assert cli.main(["certify", scenario, bundle,
                         "--out", str(tmp_path / "cert.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "theorem1: hypothesis-unmet\n"
        assert "unmet: connected (margin None)" in err.splitlines()
        verdict = read_json(tmp_path / "cert.json")["theorem1"]
        assert verdict["verdict"] == "HypothesisUnmet"

    def test_vanishing_k3_fails_with_its_margin(self, bundle_file, tmp_path,
                                                capsys):
        # gains just inside the local design set, k3 = 1e-10, each with
        # its closed-form P: every certificate is valid, the k3 gate fails
        scenario, bundle = bundle_file
        top = cli.load_scenario(scenario).initial_topology
        payload = read_json(bundle)
        for entry in payload["controllers"]:
            ctrl = closed_form_controller(top.dgus[entry["dgu_id"]],
                                          [-1.0, 0.0, 1e-10], 10.0)
            entry.update(K=ctrl.k.tolist(), P=ctrl.p.tolist(), eta=ctrl.eta,
                         delta=ctrl.delta)
        path = write_json(tmp_path / "k3.json", payload)
        assert cli.main(["certify", scenario, path,
                         "--out", str(tmp_path / "cert.json")]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("theorem1: fail, abscissa ≈ ")
        assert err == "unmet: k3_nonzero (margin 1e-10)\n"


    @pytest.mark.parametrize("field, value, message", [
        ("P", [[1.0, 0.0], [0.0, 1.0]], "P must be a finite 3x3 array"),
        ("P", [1.0, 2.0, 3.0], "P must be a finite 3x3 array"),
        ("P", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.4, 1.0]],
         "P is not symmetric"),
        ("P", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
         "P must be a finite 3x3 array"),
        ("K", [1.0, 2.0], "gain K must be three finite numbers"),
        ("K", [1.0, float("inf"), 2.0], "gain K must be three finite numbers"),
        ("K", "k1 k2 k3", "gain K must be three finite numbers"),
    ])
    def test_malformed_entry_is_refused_by_name(self, bundle_file, tmp_path,
                                                capsys, field, value,
                                                message):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"][1][field] = value
        path = write_json(tmp_path / "malformed.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert f"error: DGU 2: controller {message}" in capsys.readouterr().err

    def test_indefinite_p_is_refused_by_name(self, bundle_file, tmp_path,
                                             capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        p = np.array(payload["controllers"][0]["P"])
        p[1:, 1:] *= -1.0
        payload["controllers"][0]["P"] = p.tolist()
        path = write_json(tmp_path / "indefinite.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert ("local certificate of DGU 1 fails structure checks"
                in capsys.readouterr().err)

    def test_timings_go_to_stderr(self, bundle_file, tmp_path, capsys):
        scenario, bundle = bundle_file
        assert cli.main(["certify", scenario, bundle, "--timings",
                         "--out", str(tmp_path / "cert.json")]) == 0
        out, err = capsys.readouterr()
        assert out == "theorem1: pass\n"
        assert timing_stages(err) == [
            "load scenario", "load bundle", "local checks", "Q pieces",
            "spectrum", "verdict and kernel", "JSON write"]


class TestSimulate:
    def test_writes_artifacts(self, small_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["simulate", small_file, "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,dgu1.V,dgu1.It,dgu1.v,dgu1.u")
        log = (out / "events.log").read_text().splitlines()
        assert [json.loads(line) for line in log] == [
            {"t": 0.02, "event": "ref_step dgu=1", "outcome": "applied"}]
        assert "simulated 0.05 s" in capsys.readouterr().out

    def test_timings_go_to_stderr(self, small_file, tmp_path, capsys):
        plain, timed = tmp_path / "plain", tmp_path / "timed"
        assert cli.main(["simulate", small_file, "--out", str(plain)]) == 0
        plain_out, plain_err = capsys.readouterr()
        assert cli.main(["simulate", small_file, "--out", str(timed),
                         "--timings"]) == 0
        out, err = capsys.readouterr()
        assert out.replace(str(timed), str(plain)) == plain_out
        assert plain_err == ""
        assert timing_stages(err) == [
            "synthesis", "simulate", "CSV write", "event log"]
        for name in ("trajectory.csv", "events.log"):
            assert ((timed / name).read_bytes()
                    == (plain / name).read_bytes())

    def test_no_child_process_outlives_the_command(self, small_file,
                                                   tmp_path):
        # 0.5 s at the 1e-4 s record grid: 5,001 rows, two CSV chunks
        path = write_json(tmp_path / "long.json", dict(SMALL, t_end=0.5))
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dt_and_line_model_flags(self, small_file, tmp_path):
        out = tmp_path / "rl"
        code = cli.main(["simulate", small_file, "--out", str(out),
                         "--dt", "2e-5", "--line-model", "rl"])
        assert code == 0

    def test_sigma_bar_flag_designs_at_that_sigma_bar(self, small_file,
                                                      tmp_path):
        flag, edited = tmp_path / "flag", tmp_path / "edited"
        path = write_json(tmp_path / "s20.json", dict(SMALL, sigma_bar=20.0))
        assert cli.main(["simulate", small_file, "--out", str(flag),
                         "--sigma-bar", "20"]) == 0
        assert cli.main(["simulate", path, "--out", str(edited)]) == 0
        assert cli.main(["simulate", small_file,
                         "--out", str(tmp_path)]) == 0
        table = (flag / "trajectory.csv").read_bytes()
        assert table == (edited / "trajectory.csv").read_bytes()
        assert table != (tmp_path / "trajectory.csv").read_bytes()

    def test_divergence_exits_one(self, small_file, tmp_path, capsys):
        # dt = 5e-4 is past RK4's stability limit for these gains
        assert cli.main(["simulate", small_file, "--out", str(tmp_path),
                         "--dt", "5e-4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged at t=0.0025 (|x| = ")
        log = (tmp_path / "events.log").read_text().splitlines()
        assert json.loads(log[-1])["event"] == "divergence"

    def test_denied_grid_exits_two(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][1]["c_t"] = 1e6
        path = write_json(tmp_path / "d.json", payload)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 2
        assert "denied: dgu 2" in capsys.readouterr().err


class TestReports:
    def test_appendix_a_reproduces_everything(self, capsys):
        assert cli.main(["appendix-a"]) == 0
        out = capsys.readouterr().out
        assert out.count("-> pass") == 7
        assert "FAIL" not in out
        assert "lqr coupled:" in out and "pole_placement coupled:" in out
        assert out.count("in the right half plane") == 2
        assert "pnp coupled:" in out

    def test_sweep_summary_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--points", "2", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"total": 8, "feasible": 8,
                           "infeasible": 0, "failures": 0}
        assert json.loads((out / "summary.json").read_text()) == summary
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 9

    def test_sweep_timings_go_to_stderr(self, tmp_path, capsys):
        args = ["sweep", "--points", "2"]
        assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0
        plain_out, plain_err = capsys.readouterr()
        assert cli.main(args + ["--out", str(tmp_path / "timed"),
                                "--timings"]) == 0
        out, err = capsys.readouterr()
        assert (out, plain_err) == (plain_out, "")
        assert timing_stages(err) == ["sweep", "write"]
        for name in ("sweep.csv", "summary.json"):
            assert ((tmp_path / "timed" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_sweep_box_flags(self, capsys):
        code = cli.main(["sweep", "--points", "1",
                         "--r-t", "0.1", "0.1", "--l-t", "2e-3", "2e-3",
                         "--c-t", "1e6", "1e6"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["infeasible"] == 1


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


SUBCOMMANDS = ("synth", "certify", "simulate", "appendix-a", "sweep")


class TestEntryPoint:
    @pytest.mark.skipif(not _distribution_installed("gridforge"),
                        reason="no installed gridforge distribution, so no "
                               "console script on PATH")
    def test_console_script_exists(self):
        exe = shutil.which("gridforge")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        for name in SUBCOMMANDS:
            assert name in proc.stdout

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_no_seed_flag(self, command, capsys):
        # nothing draws random numbers, so there is nothing to seed
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out and "--seed" not in out

    def test_declared_script_target_runs(self, capsys):
        # the half of the console script that the repo itself declares
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["gridforge"] == "gridforge.cli:main"
        module, attr = scripts["gridforge"].split(":")
        entry = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out
