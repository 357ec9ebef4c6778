"""Command-line interface: file formats, exit codes, artifacts."""

import ast
import importlib
import importlib.metadata
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gridforge import baselines, certify, cli, synthesis
from gridforge.certify import check_global
from gridforge.model import (DguParams, LineParams, LoadModel,
                             MicrogridTopology, unit_blocks)
from gridforge.simulate import (LoadStep, PlugIn, RefStep, Scenario,
                                Unplug)
from gridforge.synthesis import (local_certificate, local_dissipation,
                                 synthesize_all)

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


def set_path(payload, path, value):
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = value


def timing_stages(err):
    """The stage names of --timings lines on stderr, each line checked."""
    for line in err.splitlines():
        assert line.startswith("timing: ") and line.endswith(" s")
        assert float(line.split(": ")[2][:-2]) >= 0.0
    return [line.split(": ")[1] for line in err.splitlines()]


def strict_json(text):
    """text read as JSON with no NaN or Infinity token, which JSON itself
    does not have."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


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


@pytest.fixture(scope="module")
def packaged_bundle(tmp_path_factory):
    """(scenario, bundle) paths of the packaged scenario and its synth
    bundle."""
    scenario = str(cli.packaged_scenario_path())
    bundle = tmp_path_factory.mktemp("packaged") / "bundle.json"
    assert cli.main(["synth", scenario, "--out", str(bundle)]) == 0
    return scenario, str(bundle)


class TestScenarioFormat:
    def test_parse_gives_the_written_scenario(self, small_file):
        top = MicrogridTopology(
            {1: DguParams(0.1, 1.8e-3, 2.2e-3, LoadModel.resistive(10.0),
                          47.9),
             2: DguParams(0.2, 1.7e-3, 2.0e-3, LoadModel.resistive(6.0),
                          48.06)},
            (LineParams(1, 2, 0.05, 2.1e-6),))
        assert cli.load_scenario(small_file) == Scenario(
            top, 10.0, events=(RefStep(0.02, 1, 48.0),), t_end=0.05,
            dt=1e-5, line_model="qsl", alphas=(1e-4, 1e-4, 1e-4, 1e-6, 1e-6),
            record_dt=1e-4)

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
        assert sc.initial_topology.lines == (LineParams(1, 2, 0.05),)
        assert sc.initial_topology.lines[0].l is None

    def test_current_load_parses(self):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][0]["load"] = {"type": "current", "value": 5.0}
        sc = cli.parse_scenario(payload)
        assert sc.initial_topology.dgus[1].load.kind == "current"

    @pytest.mark.parametrize("value", [True, "4", float("inf"), None])
    @pytest.mark.parametrize("path", [
        ("sigma_bar",), ("t_end",), ("dt",), ("record_dt",),
        ("dgus", 0, "r_t"), ("dgus", 0, "l_t"), ("dgus", 0, "c_t"),
        ("dgus", 0, "v_ref"), ("dgus", 1, "load", "value"),
        ("lines", 0, "r"), ("lines", 0, "l"), ("events", 0, "t"),
        ("events", 0, "v_ref")], ids=lambda path: ".".join(
            str(key) for key in path if not isinstance(key, int)))
    def test_number_must_be_a_finite_json_number(self, tmp_path, capsys,
                                                 path, value):
        payload = json.loads(json.dumps(SMALL))
        set_path(payload, path, value)
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path[-1]} must be a finite number\n")

    @pytest.mark.parametrize("alphas", [
        "11111", [1e-4, 1e-4, 1e-4, 1e-6], [1e-4, 1e-4, 1e-4, 1e-6, True],
        [1e-4, 1e-4, "1e-4", 1e-6, 1e-6], None,
        [[1e-4, 1e-4, 1e-4, 1e-6, 1e-6]]],
        ids=["string", "four", "bool", "string-entry", "null", "nested"])
    def test_alphas_must_be_five_json_numbers(self, tmp_path, capsys,
                                              alphas):
        payload = dict(SMALL, alphas=alphas)
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: alphas must be five finite numbers\n")

    def test_int_numbers_read_as_floats(self):
        payload = json.loads(json.dumps(SMALL))
        payload.update(sigma_bar=10, t_end=1)
        payload["dgus"][0]["v_ref"] = 48
        sc = cli.parse_scenario(payload)
        assert (sc.sigma_bar, sc.t_end) == (10.0, 1.0)
        assert sc.initial_topology.dgus[1].v_ref == 48.0
        assert all(type(x) is float for x in
                   (sc.sigma_bar, sc.t_end, sc.initial_topology.dgus[1].v_ref))

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("path", [
        ("dgus", 1, "id"), ("lines", 0, "i"), ("lines", 0, "j"),
        ("events", 0, "dgu")], ids=["dgus.id", "lines.i", "lines.j",
                                    "events.dgu"])
    def test_id_must_be_a_whole_number(self, tmp_path, capsys, path, value):
        payload = json.loads(json.dumps(SMALL))
        set_path(payload, path, value)
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path[-1]} must be a whole number, not {value!r}\n")

    def test_whole_float_id_is_read_as_an_int(self):
        payload = json.loads(json.dumps(SMALL))
        payload["lines"][0]["j"] = 2.0
        assert cli.parse_scenario(payload).initial_topology.lines[0].j == 2

    @pytest.mark.parametrize("command, edit, message", [
        ("synth", lambda d: d.update(dgus=5), "dgus must be a JSON array"),
        ("synth", lambda d: d.update(dgus=[1]),
         "each entry of dgus must be a JSON object"),
        ("synth", lambda d: d.update(lines=[1]),
         "each entry of lines must be a JSON object"),
        ("synth", lambda d: d["dgus"][1].update(load=None),
         "load must be a JSON object"),
        ("synth", lambda d: d.update(events=[1]),
         "each entry of events must be a JSON object"),
        ("simulate", lambda d: d["events"][0].update(lines=None),
         "lines must be a JSON array"),
        ("simulate", lambda d: d["events"][0].update(params=5),
         "params must be a JSON object"),
        ("synth", lambda d: [1, 2], "scenario file must be a JSON object"),
    ], ids=["dgus", "dgus-entry", "lines-entry", "load", "events-entry",
            "plug-in-lines", "plug-in-params", "top-level"])
    def test_malformed_structure_is_refused_by_name(self, tmp_path, capsys,
                                                    command, edit, message):
        payload = read_json(with_plug_in(tmp_path, dict(NEWCOMER)))
        # an edit in place returns None; one that replaces the file's
        # whole content returns it
        path = write_json(tmp_path / "s.json", edit(payload) or payload)
        assert cli.main([command, path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update({"record-dt": 5e-4}),
         "scenario file field 'record-dt'"),
        (lambda d: d["dgus"][0].update(c_T=1e-3), "dgus entry field 'c_T'"),
        (lambda d: d["dgus"][1]["load"].update(kind="current"),
         "load field 'kind'"),
        (lambda d: d["lines"][0].update(L=2e-6), "lines entry field 'L'"),
        (lambda d: d["events"][0].update(time=0.3),
         "plug_in event field 'time'"),
        (lambda d: d["events"][0]["params"].update(id=3),
         "params field 'id'"),
        (lambda d: d["events"][0]["lines"][0].update(R=0.1),
         "lines entry field 'R'"),
        (lambda d: d["events"][1].update(load=NEWCOMER["load"]),
         "ref_step event field 'load'"),
        (lambda d: d["events"][2].update(v_ref=48.0),
         "load_step event field 'v_ref'"),
        (lambda d: d["events"][2]["load"].update(Value=5.0),
         "load field 'Value'"),
        (lambda d: d["events"][3].update(lines=[]),
         "unplug event field 'lines'"),
    ], ids=["file", "dgus-entry", "load", "lines-entry", "plug-in",
            "plug-in-params", "plug-in-lines", "ref-step", "load-step",
            "load-step-load", "unplug"])
    def test_unread_field_is_refused_by_name(self, tmp_path, capsys, edit,
                                             message):
        # one event of each type; each edit adds one key that no reader
        # of its level takes, where its default would otherwise run
        payload = json.loads(json.dumps(dict(SMALL, events=[
            {"t": 0.01, "type": "plug_in", "dgu": 3, "params": NEWCOMER,
             "lines": [{"i": 3, "j": 2, "r": 0.06}]},
            {"t": 0.02, "type": "ref_step", "dgu": 1, "v_ref": 48.0},
            {"t": 0.03, "type": "load_step", "dgu": 2,
             "load": {"type": "resistance", "value": 5.0}},
            {"t": 0.04, "type": "unplug", "dgu": 3}])))
        assert len(cli.parse_scenario(payload).events) == 4
        edit(payload)
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message} is not read\n")

    def test_repeated_dgu_is_refused(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"].append(dict(payload["dgus"][0], r_t=0.3))
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario names DGU 1 twice\n")

    @pytest.mark.parametrize("command", ["synth", "certify", "simulate"])
    def test_scenario_without_dgus_is_refused(self, bundle_file, tmp_path,
                                              capsys, command):
        # a unit that plugs in later does not make the initial grid
        params = {k: v for k, v in SMALL["dgus"][0].items() if k != "id"}
        plug_in = {"t": 0.5, "type": "plug_in", "dgu": 1, "params": params,
                   "lines": []}
        payload = {"sigma_bar": 10.0, "t_end": 1.0, "dgus": [], "lines": [],
                   "events": [plug_in]}
        args = {"synth": [], "certify": [bundle_file[1]],
                "simulate": ["--out", str(tmp_path / "out")]}[command]
        scenario = write_json(tmp_path / "empty.json", payload)
        assert cli.main([command, scenario, *args]) == 1
        assert capsys.readouterr() == (
            "", "error: initial topology must hold at least one DGU\n")


class TestSynth:
    def test_bundle_written_and_structured(self, bundle_file):
        _, bundle = bundle_file
        payload = read_json(bundle)
        assert payload["sigma_bar"] == 10.0
        assert len(payload["controllers"]) == 2
        for entry in payload["controllers"]:
            assert set(entry) == {"dgu_id", "K", "diagnostics"}
            assert len(entry["K"]) == 3

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

    @pytest.mark.parametrize("field, message", [
        ("dt", "dt 9.99989e-321 and record_dt 0.0001"),
        ("record_dt", "dt 1e-05 and record_dt 9.99989e-321")])
    def test_step_ratio_overflow_exits_one(self, tmp_path, capsys, field,
                                           message):
        payload = read_json(cli.packaged_scenario_path())
        payload[field] = 1e-320
        code = cli.main(["synth", write_json(tmp_path / "s.json", payload)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {message} are too far apart: their ratio overflows\n")

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
        top = cli.load_scenario(small_file).initial_topology
        sigma_bar, gains = cli.load_bundle(bundle, top)
        unit = top.dgus[1]
        p, _ = local_certificate(gains[1][None], unit.r_t, unit.l_t,
                                 unit.c_t, sigma_bar)
        c_t = SMALL["dgus"][0]["c_t"]
        assert sigma_bar == 100.0
        assert p[0, 0, 0] == pytest.approx(100.0 * c_t)

    def test_timings_go_to_stderr(self, bundle_file, tmp_path, capsys):
        scenario, bundle = bundle_file
        timed = tmp_path / "bundle.json"
        assert cli.main(["synth", scenario, "--out", str(timed),
                         "--timings"]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert timing_stages(err) == ["load scenario", "synthesis", "write"]
        assert timed.read_bytes() == pathlib.Path(bundle).read_bytes()

    def test_without_out_the_bundle_goes_to_stdout(self, bundle_file,
                                                   capsys):
        scenario, bundle = bundle_file
        assert cli.main(["synth", scenario]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (pathlib.Path(bundle).read_text(), "")
        strict_json(out)

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
        assert cert["kernel_dimension"] == 3
        assert cert["checks"]["q_global_max_eig"] <= 1e-6

    def test_gain_only_baseline_bundle_fails(self, bundle_file, tmp_path,
                                             capsys):
        # the LQR gain of DGU 1 lies in the local design set, DGU 2's
        # does not: its k3 is above (k1 - 1)(k2 - R_t)/L_t
        scenario, _ = bundle_file
        gains = baselines.destabilization_demo(baselines.LQR).gains
        payload = {"sigma_bar": 10.0, "controllers": [
            {"dgu_id": 1, "K": gains[0].tolist()},
            {"dgu_id": 2, "K": gains[1].tolist()}]}
        path = write_json(tmp_path / "lqr.json", payload)
        code = cli.main(["certify", scenario, path])
        assert code == 1
        k1, k2, k3 = gains[1]
        bound = (k1 - 1.0) * (k2 - 0.2) / 1.7e-3
        assert 650.0 < bound < 660.0 and k3 == pytest.approx(1000.0)
        assert capsys.readouterr() == ("", (
            f"error: DGU 2: gain outside the local design set: "
            f"k3 = {k3:g} is not below (k1 - 1)(k2 - R_t)/L_t = "
            f"{bound:g}\n"))

    def test_pole_placement_gains_are_refused_by_their_bound(
            self, bundle_file, tmp_path, capsys):
        scenario, _ = bundle_file
        gains = baselines.destabilization_demo(
            baselines.POLE_PLACEMENT).gains
        payload = {"sigma_bar": 10.0, "controllers": [
            {"dgu_id": 1, "K": gains[0].tolist()},
            {"dgu_id": 2, "K": gains[1].tolist()}]}
        path = write_json(tmp_path / "pole.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert gains[0][1] == pytest.approx(0.172, abs=1e-3)
        assert capsys.readouterr() == ("", (
            f"error: DGU 1: gain outside the local design set: "
            f"k2 = {gains[0][1]:g} is not below R_t = 0.1\n"))

    def test_load_bundle_and_check_global_refuse_with_one_text(
            self, bundle_file, tmp_path, capsys):
        # the bundle reads as its gains; check_global alone judges them,
        # and the CLI prints its text
        scenario, _ = bundle_file
        top = cli.load_scenario(scenario).initial_topology
        gains = baselines.destabilization_demo(baselines.LQR).gains
        path = write_json(tmp_path / "lqr.json", {
            "sigma_bar": 10.0, "controllers": [
                {"dgu_id": i, "K": k.tolist()} for i, k in enumerate(gains, 1)]})
        sigma_bar, read = cli.load_bundle(path, top)
        assert sigma_bar == 10.0 and sorted(read) == [1, 2]
        for dgu_id, k in enumerate(gains, 1):
            np.testing.assert_array_equal(read[dgu_id], k)
        with pytest.raises(ValueError) as loaded:
            check_global(read, top, sigma_bar)
        with pytest.raises(ValueError) as certifying:
            check_global(dict(enumerate(gains, 1)), top, 10.0)
        assert str(certifying.value) == str(loaded.value)
        assert str(loaded.value).startswith(
            "DGU 2: gain outside the local design set: k3 = ")
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == ("", f"error: {loaded.value}\n")

    def test_field_fault_is_reported_before_an_out_of_set_gain(
            self, bundle_file, tmp_path, capsys):
        # every entry is read before any gain is judged
        scenario, _ = bundle_file
        gains = baselines.destabilization_demo(baselines.LQR).gains
        path = write_json(tmp_path / "lqr.json", {
            "sigma_bar": 10.0, "controllers": [
                {"dgu_id": 2, "K": gains[1].tolist()},
                {"dgu_id": 1, "K": gains[0].tolist(), "P": 1.0}]})
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == ("", (
            "error: DGU 1: bundle entry field 'P' is not read: an entry "
            "is its gain K\n"))

    def test_certify_derives_every_certificate_in_one_call(
            self, packaged_bundle, tmp_path, monkeypatch, capsys):
        # one stacked local_certificate in check_global, and no
        # LocalController built along the way
        scenario, bundle = packaged_bundle
        calls, builds = [], []
        spy = synthesis.local_certificate

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return spy(*args, **kwargs)

        build = synthesis.LocalController.__post_init__
        monkeypatch.setattr(synthesis, "local_certificate", counted)
        monkeypatch.setattr(certify, "local_certificate", counted)
        monkeypatch.setattr(synthesis.LocalController, "__post_init__",
                            lambda self: builds.append(1) or build(self))
        assert cli.main(["certify", scenario, bundle,
                         "--out", str(tmp_path / "cert.json")]) == 0
        assert capsys.readouterr().out == "theorem1: pass\n"
        units = len(cli.load_scenario(scenario).initial_topology.dgus)
        assert (calls, builds) == ([units], [])

    def test_gain_only_timings_list_the_spectrum(self, bundle_file,
                                                  tmp_path, capsys):
        # a gain-only bundle takes the route of a full one, stage by stage
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"] = [{"dgu_id": entry["dgu_id"],
                                   "K": entry["K"]}
                                  for entry in payload["controllers"]]
        path = write_json(tmp_path / "gains.json", payload)
        assert cli.main(["certify", scenario, path, "--timings",
                         "--out", str(tmp_path / "cert.json")]) == 0
        out, err = capsys.readouterr()
        assert out == "theorem1: pass\n"
        assert timing_stages(err) == [
            "load scenario", "load bundle", "local checks", "Q pieces",
            "spectrum", "verdict and kernel", "JSON write"]

    def test_gain_only_packaged_bundle_gives_the_same_certificate(
            self, packaged_bundle, tmp_path, capsys):
        # a bundle entry is its gain: K loads read-only and bit for bit,
        # the closed form gives back the designed P, eta, delta and
        # q_local from it, and the diagnostics do not reach the
        # certificate
        scenario, bundle = packaged_bundle
        loaded = cli.load_scenario(scenario)
        designed = synthesize_all(loaded.initial_topology,
                                  loaded.synthesis_config())
        sigma_bar, read = cli.load_bundle(bundle, loaded.initial_topology)
        assert sigma_bar == loaded.sigma_bar
        assert sorted(read) == sorted(designed)
        for dgu_id, k in read.items():
            assert (k.dtype, k.shape, k.flags.writeable) == (
                np.float64, (3,), False)
            unit = loaded.initial_topology.dgus[dgu_id]
            p, delta = local_certificate(k[None], unit.r_t, unit.l_t,
                                         unit.c_t, sigma_bar)
            a, b, _ = unit_blocks([unit])
            ctrl = designed[dgu_id]
            np.testing.assert_array_equal(k, ctrl.k)
            np.testing.assert_array_equal(p[0], ctrl.p)
            np.testing.assert_array_equal(
                local_dissipation(a[0], b[0], k, p[0]), ctrl.q_local)
            assert (p[0, 0, 0], delta[0]) == (ctrl.eta, ctrl.delta)
        payload = read_json(bundle)
        payload["controllers"] = [{"dgu_id": entry["dgu_id"],
                                   "K": entry["K"]}
                                  for entry in payload["controllers"]]
        gains = write_json(tmp_path / "gains.json", payload)
        full, cut = tmp_path / "full.json", tmp_path / "cut.json"
        assert cli.main(["certify", scenario, bundle, "--out", str(full)]) == 0
        assert cli.main(["certify", scenario, gains, "--out", str(cut)]) == 0
        assert capsys.readouterr().out == "theorem1: pass\n" * 2
        assert cut.read_bytes() == full.read_bytes()
        # the line weights are in line_weights and the laplacian only
        assert "eta_tilde" not in read_json(full)

    def test_mixed_bundle_passes(self, bundle_file, tmp_path, capsys):
        # one entry with its diagnostics, one with its gain alone
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        entry = payload["controllers"][1]
        payload["controllers"][1] = {"dgu_id": entry["dgu_id"],
                                     "K": entry["K"]}
        path = write_json(tmp_path / "mixed.json", payload)
        cert = tmp_path / "cert.json"
        assert cli.main(["certify", scenario, path, "--out", str(cert)]) == 0
        assert capsys.readouterr().out == "theorem1: pass\n"
        assert read_json(cert)["theorem1"]["verdict"] == "Pass"

    @pytest.mark.parametrize("extra", [
        {"eta": 999.0, "delta": -5.0},
        {"delta": 2.0},
        {"P": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        {"sigma_bar": 10.0},
        {"gain": [0.0, 0.0, 1.0]},
    ], ids=["eta-and-delta", "delta", "P", "sigma_bar", "unknown"])
    def test_unread_entry_field_is_refused_by_name(
            self, packaged_bundle, tmp_path, capsys, extra):
        scenario, bundle = packaged_bundle
        payload = read_json(bundle)
        payload["controllers"][0].update(extra)
        path = write_json(tmp_path / "extra.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == ("", (
            f"error: DGU 1: bundle entry field {next(iter(extra))!r} is not "
            "read: an entry is its gain K\n"))

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
        assert sorted(with_solver) == sorted(without) == [1, 2]
        for dgu_id, k in with_solver.items():
            np.testing.assert_array_equal(k, without[dgu_id])
        for given in (bundle, path):
            assert cli.main(["certify", scenario, given,
                             "--out", str(tmp_path / "cert.json")]) == 0
        assert capsys.readouterr().out == "theorem1: pass\n" * 2

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

    def test_entry_for_an_absent_dgu_is_hard_error(self, bundle_file,
                                                   tmp_path, capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"].append(dict(payload["controllers"][1],
                                           dgu_id=9))
        path = write_json(tmp_path / "stranger.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr().err == (
            "error: bundle names DGU 9, absent from the scenario\n")

    def test_without_out_the_certificate_goes_to_stdout(
            self, bundle_file, tmp_path, capsys):
        scenario, bundle = bundle_file
        cert = tmp_path / "cert.json"
        assert cli.main(["certify", scenario, bundle, "--out", str(cert)]) == 0
        assert capsys.readouterr().out == "theorem1: pass\n"
        assert cli.main(["certify", scenario, bundle]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (cert.read_text() + "theorem1: pass\n", "")
        strict_json(out.splitlines()[0])

    def test_large_gain_only_bundle_skips_the_spectrum(self, tmp_path,
                                                      capsys, monkeypatch):
        # above the spectrum's size cap a gain-only bundle in the design
        # set is proved from its closed-form certificates, with no dense
        # eigensolve of the 3N x 3N closed loop
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
                         write_json(tmp_path / "gains.json", bundle),
                         "--out", str(tmp_path / "cert.json")])
        assert code == 0
        assert capsys.readouterr().out == "theorem1: pass\n"
        assert calls == []

    def test_header_sigma_bar_is_a_scale(self, packaged_bundle, tmp_path,
                                          capsys):
        # P, Q and the Laplacian are all linear in sigma_bar, so a header
        # of 100 for gains designed at 10 scales the certificate and
        # keeps its verdict
        scenario, bundle = packaged_bundle
        payload = read_json(bundle)
        assert payload["sigma_bar"] == 10.0
        payload["sigma_bar"] = 100.0
        path = write_json(tmp_path / "header.json", payload)
        cert, scaled = tmp_path / "cert.json", tmp_path / "scaled.json"
        assert cli.main(["certify", scenario, bundle, "--out", str(cert)]) == 0
        assert cli.main(["certify", scenario, path, "--out", str(scaled)]) == 0
        assert capsys.readouterr() == ("theorem1: pass\n" * 2, "")
        checks, scaled_checks = (read_json(cert)["checks"],
                                 read_json(scaled)["checks"])
        assert scaled_checks["p_min_eig"] == pytest.approx(
            10.0 * checks["p_min_eig"], rel=1e-12)
        assert scaled_checks["closed_loop_norm"] == checks["closed_loop_norm"]

    @pytest.mark.parametrize("sigma_bar", [0.0, -10.0])
    def test_sigma_bar_must_be_positive(self, bundle_file, tmp_path, capsys,
                                        sigma_bar):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["sigma_bar"] = sigma_bar
        path = write_json(tmp_path / "sigma.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == (
            "", "error: sigma_bar must be positive\n")

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
        # gains just inside the local design set, k3 = 1e-10, each given
        # its closed-form P: every certificate is valid, the k3 gate fails
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        for entry in payload["controllers"]:
            entry["K"] = [-1.0, 0.0, 1e-10]
        path = write_json(tmp_path / "k3.json", payload)
        assert cli.main(["certify", scenario, path,
                         "--out", str(tmp_path / "cert.json")]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("theorem1: fail, abscissa ≈ ")
        assert err == "unmet: k3_nonzero (margin 1e-10)\n"


    @pytest.mark.parametrize("field, value, message", [
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

    @pytest.mark.parametrize("value", [1.7, True])
    def test_bundle_id_must_be_a_whole_number(self, bundle_file, tmp_path,
                                              capsys, value):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"][0]["dgu_id"] = value
        path = write_json(tmp_path / "id.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr().err == (
            f"error: dgu_id must be a whole number, not {value!r}\n")

    def test_whole_float_id_names_the_unit_as_an_int(self, bundle_file,
                                                      tmp_path, capsys):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        payload["controllers"][0].update(dgu_id=1.0, K=[0.0, 0.0, "1"])
        path = write_json(tmp_path / "id.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr().err == (
            "error: DGU 1: controller gain K must be three finite numbers\n")

    @pytest.mark.parametrize("path, value, message", [
        (("sigma_bar",), "10", "sigma_bar must be a finite number"),
        (("sigma_bar",), True, "sigma_bar must be a finite number"),
        (("controllers", 1, "K"), ["-11.5", "-0.89", "0.061"],
         "DGU 2: controller gain K must be three finite numbers"),
        (("controllers", 0, "diagnostics", "gamma"), "000",
         "DGU 1: controller gamma must be three finite numbers"),
        (("controllers", 0, "diagnostics", "gamma"), [1.0, 2.0],
         "DGU 1: controller gamma must be three finite numbers"),
        (("controllers", 0, "diagnostics", "beta"), True,
         "DGU 1: controller beta must be a finite number"),
        (("controllers", 0, "diagnostics", "zeta"), "1",
         "DGU 1: controller zeta must be a finite number"),
        (("sigmabar",), 10.0, "bundle file field 'sigmabar' is not read"),
        (("alphas",), [math.nan] * 5, "alphas must be five finite numbers"),
        (("alphas",), "x", "alphas must be five finite numbers"),
        (("controllers", 0, "diagnostics", "gamm"), [1.0, 2.0, 3.0],
         "DGU 1: controller diagnostics field 'gamm' is not read"),
        (("controllers", 0, "diagnostics", "gain_norm"), math.nan,
         "DGU 1: controller gain_norm must be a finite number"),
        (("controllers", 0, "diagnostics", "gain_norm_bound"), "1",
         "DGU 1: controller gain_norm_bound must be a finite number"),
        (("controllers", 0, "diagnostics", "solver", "status"), math.nan,
         "DGU 1: controller solver status must be a JSON string"),
        (("controllers", 0, "diagnostics", "solver", "iterations_phase1"),
         None, "DGU 1: controller iterations_phase1 must be a finite number"),
        (("controllers", 0, "diagnostics", "solver", "gap"), 0.0,
         "DGU 1: controller diagnostics solver field 'gap' is not read"),
        (("controllers", 0, "K"), [1.0, 2.0, 3.0, 4.0],
         "DGU 1: controller gain K must be three finite numbers"),
        (("controllers", 0, "K"), [[1.0], [2.0], [3.0]],
         "DGU 1: controller gain K must be three finite numbers"),
        (("controllers", 0, "diagnostics", "solver", "iterations_phase2"),
         None, "DGU 1: controller iterations_phase2 must be a finite number"),
        (("alphas",), [1e-4] * 4, "alphas must be five finite numbers"),
    ], ids=["sigma_bar-string", "sigma_bar-bool", "K", "gamma",
            "gamma-short", "beta", "zeta", "unread-header", "alphas-nan",
            "alphas-string", "unread-diagnostics", "gain_norm",
            "gain_norm_bound", "solver-status", "solver-iterations",
            "unread-solver", "K-four", "K-nested", "solver-iterations2",
            "alphas-four"])
    def test_bundle_number_must_be_a_finite_json_number(
            self, bundle_file, tmp_path, capsys, path, value, message):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        set_path(payload, path, value)
        path = write_json(tmp_path / "numbers.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(controllers=5),
         "controllers must be a JSON array"),
        (lambda d: d.update(controllers=[1]),
         "each entry of controllers must be a JSON object"),
        (lambda d: d["controllers"][0].update(diagnostics=5),
         "DGU 1: controller diagnostics must be a JSON object"),
        (lambda d: d["controllers"][0].update(diagnostics={"solver": 5}),
         "DGU 1: controller diagnostics solver must be a JSON object"),
        (lambda d: [1, 2], "bundle file must be a JSON object"),
    ], ids=["controllers", "controllers-entry", "diagnostics", "solver",
            "top-level"])
    def test_malformed_structure_is_refused_by_name(
            self, bundle_file, tmp_path, capsys, edit, message):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        path = write_json(tmp_path / "malformed.json", edit(payload) or payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("sigma_bar"),
         "bundle file is missing field 'sigma_bar'"),
        (lambda d: d.pop("controllers"),
         "bundle file is missing field 'controllers'"),
        (lambda d: d["controllers"][1].pop("dgu_id"),
         "bundle file is missing field 'dgu_id'"),
        (lambda d: d["controllers"][1].pop("K"),
         "DGU 2: bundle entry is missing field 'K'"),
    ], ids=["sigma_bar", "controllers", "dgu_id", "K"])
    def test_missing_field_is_refused_by_name(self, bundle_file, tmp_path,
                                              capsys, edit, message):
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        edit(payload)
        path = write_json(tmp_path / "missing.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("faults, message", [
        ({("K",): [1.0, 2.0], ("diagnostics", "gam"): 0.0},
         "gain K must be three finite numbers"),
        ({("diagnostics", "gamma"): [1.0, None, 2.0],
          ("diagnostics", "solver", "gap"): 0.0},
         "gamma must be three finite numbers"),
        ({("diagnostics", "beta"): math.inf,
          ("diagnostics", "gamma"): [1.0, 2.0]},
         "gamma must be three finite numbers"),
        ({("diagnostics", "zeta"): True,
          ("diagnostics", "solver", "status"): 0},
         "zeta must be a finite number"),
        ({("diagnostics", "solver", "iterations_phase1"): "12",
          ("diagnostics", "solver", "iterations_phase2"): math.nan},
         "iterations_phase1 must be a finite number"),
    ], ids=["K-then-field", "gamma-then-solver", "beta-and-gamma",
            "zeta-then-status", "both-iterations"])
    def test_entry_refusal_names_its_first_fault(
            self, bundle_file, tmp_path, capsys, faults, message):
        # an entry is read field by field, K first, then the diagnostics,
        # then their solver
        scenario, bundle = bundle_file
        payload = read_json(bundle)
        for path, value in faults.items():
            set_path(payload, ("controllers", 0, *path), value)
        path = write_json(tmp_path / "faults.json", payload)
        assert cli.main(["certify", scenario, path]) == 1
        assert capsys.readouterr() == (
            "", f"error: DGU 1: controller {message}\n")

    def test_packaged_outputs_are_strict_json(self, tmp_path):
        # no NaN or Infinity token, which JSON itself does not have
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        scenario = str(cli.packaged_scenario_path())
        bundle, cert = tmp_path / "bundle.json", tmp_path / "cert.json"
        assert cli.main(["synth", scenario, "--out", str(bundle)]) == 0
        assert cli.main(["certify", scenario, str(bundle),
                         "--out", str(cert)]) == 0
        for path in (bundle, cert):
            json.loads(path.read_text(), parse_constant=refuse)

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
            "load scenario", "synthesis", "simulate", "CSV write",
            "event log"]
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

    def test_dt_off_the_record_grid_exits_one(self, small_file, tmp_path,
                                              capsys):
        assert cli.main(["simulate", small_file, "--out", str(tmp_path),
                         "--dt", "3e-5"]) == 1
        assert capsys.readouterr().err == (
            "error: dt 3e-05 and record_dt 0.0001 must be whole multiples"
            " of one another\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_divergence_exits_one(self, small_file, tmp_path, capsys):
        # dt = 5e-4 is past RK4's stability limit for these gains
        assert cli.main(["simulate", small_file, "--out", str(tmp_path),
                         "--dt", "5e-4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged at t=0.0025 (|x| = ")
        log = (tmp_path / "events.log").read_text().splitlines()
        assert json.loads(log[-1])["event"] == "divergence"

    def test_divergence_at_a_plug_in_exits_one(self, tmp_path, capsys):
        # the newcomer's own operating point is past the divergence limit,
        # so the run ends on the sample recorded at its event
        path = with_plug_in(tmp_path, dict(NEWCOMER, v_ref=1e10), t=0.005)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "t=0.005 plug_in dgu=3: accepted\n"
        assert err.startswith("diverged at t=0.005 (|x| = ")
        log = (tmp_path / "events.log").read_text().splitlines()
        assert [json.loads(line)["event"] for line in log] == [
            "plug_in dgu=3", "divergence"]
        assert json.loads(log[-1])["t"] == 0.005

    def test_denied_grid_exits_two(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][1]["c_t"] = 1e6
        path = write_json(tmp_path / "d.json", payload)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 2
        assert "denied: dgu 2" in capsys.readouterr().err


def with_plug_in(tmp_path, params, t=0.02, dgu=3, unplug=None):
    """SMALL with a plug-in of `dgu` wired to unit 1 at t, after an
    unplug of that unit at `unplug` when given."""
    payload = json.loads(json.dumps(SMALL))
    payload["events"] = [] if unplug is None else [
        {"t": unplug, "type": "unplug", "dgu": dgu}]
    payload["events"].append(
        {"t": t, "type": "plug_in", "dgu": dgu, "params": params,
         "lines": [{"i": dgu, "j": 1, "r": 0.05, "l": 2e-6}]})
    return write_json(tmp_path / "plug.json", payload)


NEWCOMER = {"r_t": 0.3, "l_t": 2e-3, "c_t": 2.2e-3,
            "load": {"type": "resistance", "value": 4.0}, "v_ref": 47.95}


class TestSimulateDesigns:
    """simulate designs the initial units and every plug-in newcomer in
    one synthesis batch, before it integrates."""

    @pytest.fixture(scope="class")
    def packaged_run(self, tmp_path_factory):
        from gridforge import synthesis
        # the package re-exports the function under the module's name
        simulate_module = importlib.import_module("gridforge.simulate")
        calls, received = [], []
        solve_batch, simulate = synthesis.solve_batch, cli.simulate

        def counted(programs):
            calls.append(1)
            return solve_batch(programs)

        def kept(*args, **kwargs):
            received.append(kwargs)
            return simulate(*args, **kwargs)

        def forbidden(*args):
            raise AssertionError("a plug-in was designed at its event")

        out = tmp_path_factory.mktemp("packaged")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "solve_batch", counted)
            mp.setattr(cli, "simulate", kept)
            mp.setattr(simulate_module, "synthesize", forbidden)
            code = cli.main(["simulate", str(cli.packaged_scenario_path()),
                             "--out", str(out)])
        return code, out, calls, received

    def test_one_batch_and_no_design_at_the_event(self, packaged_run):
        code, out, calls, received = packaged_run
        assert code == 0
        assert len(calls) == 1
        assert [json.loads(line)["outcome"] for line in
                (out / "events.log").read_text().splitlines()] == [
            "accepted", "applied", "accepted"]
        # simulate gets exactly the initial units' controllers
        assert sorted(received[0]["controllers"]) == [1, 2, 3, 4, 5]

    def test_newcomer_is_its_own_design(self, packaged_run):
        from gridforge.model import augmented_dgu
        from gridforge.synthesis import synthesize
        received = packaged_run[3]
        scenario = cli.load_scenario(cli.packaged_scenario_path())
        (event,) = [ev for ev in scenario.events if isinstance(ev, PlugIn)]
        p = event.params
        (design,) = received[0]["designs"].values()
        alone = synthesize(augmented_dgu(p), p, scenario.synthesis_config())
        for name in ("k", "p", "q_local"):
            assert (getattr(design, name).tobytes()
                    == getattr(alone, name).tobytes())
        assert (design.eta, design.delta) == (alone.eta, alone.delta)
        assert design.raw["solver"] == alone.raw["solver"]

    def test_refused_newcomer_is_an_event_outcome(self, tmp_path, capsys):
        path = with_plug_in(tmp_path, dict(NEWCOMER, c_t=1e6))
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "t=0.02 plug_in dgu=3: denied: local LMI infeasible")
        assert json.loads((tmp_path / "events.log").read_text()) == {
            "t": 0.02, "event": "plug_in dgu=3",
            "outcome": "denied: local LMI infeasible"}

    def test_replug_of_an_initial_unit_is_accepted(self, tmp_path, capsys):
        own = {k: v for k, v in SMALL["dgus"][1].items() if k != "id"}
        path = with_plug_in(tmp_path, own, dgu=2, unplug=0.01)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "t=0.01 unplug dgu=2: accepted",
            "t=0.02 plug_in dgu=2: accepted"]

    def test_newcomer_breakdown_stops_before_integration(
            self, tmp_path, monkeypatch, capsys):
        from gridforge import synthesis
        decide, newcomer = synthesis._decide, cli._params_from_json(NEWCOMER)

        def newcomer_breaks_down(sol, params, cfg):
            if params == newcomer:
                return synthesis.NumericalFailure("LMI solver did not"
                                                  " converge")
            return decide(sol, params, cfg)

        def integrate(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(synthesis, "_decide", newcomer_breaks_down)
        monkeypatch.setattr(cli, "simulate", integrate)
        path = with_plug_in(tmp_path, NEWCOMER)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: LMI solver did not converge\n")
        assert not (tmp_path / "trajectory.csv").exists()


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


class TestTimings:
    def test_stages_print_last_on_a_refusal_and_an_error(
            self, bundle_file, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL))
        payload["dgus"][1]["c_t"] = 1e6
        denied = write_json(tmp_path / "d.json", payload)
        assert cli.main(["synth", denied, "--timings"]) == 2
        out, err = capsys.readouterr()
        first, *rest = err.splitlines()
        assert out == "" and first.startswith("denied: dgu 2: ")
        assert timing_stages("\n".join(rest)) == ["load scenario",
                                                  "synthesis"]

        scenario, _ = bundle_file
        absent = str(tmp_path / "absent.json")
        assert cli.main(["certify", scenario, absent, "--timings"]) == 1
        out, err = capsys.readouterr()
        first, *rest = err.splitlines()
        assert out == "" and first.startswith("error: ")
        assert timing_stages("\n".join(rest)) == ["load scenario"]


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

    def test_third_party_imports_are_declared(self):
        declared, imported = third_party_imports("src/gridforge")
        assert "numpy" in imported
        assert imported <= declared

    def test_test_and_benchmark_imports_are_declared(self):
        # each is in the dependencies or in the `test` extra
        declared, imported = third_party_imports("tests", "perfbench",
                                                 extra="test")
        assert {"pytest", "hypothesis", "scipy", "sympy"} <= imported
        assert imported <= declared


def third_party_imports(*folders, extra=None):
    """(declared, imported): the distributions that pyproject.toml
    declares as dependencies, and in `extra` when given, and the
    third-party modules that the .py files in folders import, by an
    import statement anywhere or by pytest.importorskip.  Modules of
    those folders and gridforge are not third-party."""
    # parsed, not grepped: docstrings hold lines that start with "from"
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + (
        project["optional-dependencies"][extra] if extra else [])
    declared = {re.match(r"[A-Za-z0-9._-]+", dep)[0].lower()
                .replace("_", "-") for dep in requirements}
    paths = [path for folder in folders
             for path in (root / folder).glob("*.py")]
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                imported.add(node.args[0].value)
    local = {path.stem for path in paths} | {"gridforge"}
    third_party = {name.split(".")[0] for name in imported} - set(
        sys.stdlib_module_names) - local
    return declared, {name.lower().replace("_", "-")
                      for name in third_party}
