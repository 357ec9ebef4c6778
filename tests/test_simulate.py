import csv
import json

import numpy as np
import pytest
from scipy.linalg import block_diag

from gridforge.model import (DguParams, LineParams, LoadModel,
                             MicrogridTopology, TopologyError)
from gridforge.simulate import (QSL, RL, DivergedAt, LoadStep, PlugIn,
                                RefStep, Scenario, Unplug, _build_ode,
                                _remap_state, attempt_plug_in,
                                attempt_unplug, event_log_lines, simulate,
                                steady_state, trajectory_to_csv)
from gridforge.synthesis import Denied, SynthesisConfig, synthesize_all

CFG = SynthesisConfig(10.0)
# light beta/zeta weights buy aggressive gains, so transients die quickly
FAST = SynthesisConfig(10.0, (1e-4, 1e-4, 1e-4, 1e-6, 1e-6))


def dgu(r_t=0.2, l_t=2e-3, c_t=2.2e-3, v_ref=48.0, r_load=10.0):
    return DguParams(r_t, l_t, c_t, LoadModel.resistive(r_load), v_ref)


@pytest.fixture(scope="module")
def pair():
    top = MicrogridTopology(
        {1: dgu(0.1, 1.8e-3, 2.2e-3, 47.9),
         2: dgu(0.2, 1.7e-3, 2.0e-3, 48.06, 6.0)},
        (LineParams(1, 2, 0.05, 2.1e-6),),
    )
    return top, synthesize_all(top, FAST)


class TestScenarioValidation:
    def test_event_outside_window(self, pair):
        top, _ = pair
        ev = (LoadStep(2.0, 1, LoadModel.resistive(5.0)),)
        with pytest.raises(ValueError, match="strictly inside"):
            Scenario(top, 10.0, events=ev, t_end=1.0)

    def test_unsorted_events(self, pair):
        top, _ = pair
        ev = (RefStep(0.6, 1, 48.0), RefStep(0.3, 2, 48.0))
        with pytest.raises(ValueError, match="sorted"):
            Scenario(top, 10.0, events=ev, t_end=1.0)

    def test_rl_needs_inductance(self):
        top = MicrogridTopology({1: dgu(), 2: dgu()},
                                (LineParams(1, 2, 0.05),))
        with pytest.raises(ValueError, match="inductance"):
            Scenario(top, 10.0, t_end=1.0, line_model=RL)

    def test_unknown_line_model(self, pair):
        top, _ = pair
        with pytest.raises(ValueError, match="line_model"):
            Scenario(top, 10.0, t_end=1.0, line_model="pi")

    def test_disconnected_initial_topology(self):
        top = MicrogridTopology({1: dgu(), 2: dgu()}, ())
        with pytest.raises(TopologyError, match="connected"):
            simulate(Scenario(top, 10.0, t_end=0.01), controllers={1: np.zeros(3), 2: np.zeros(3)})


class TestTracking:
    def test_solo_voltage_reaches_reference(self):
        top = MicrogridTopology({1: dgu()}, ())
        ctrls = synthesize_all(top, CFG)
        tr = simulate(Scenario(top, 10.0, t_end=0.5), controllers=ctrls)
        assert tr.diverged is None
        assert abs(tr.column(1, "V")[-1] - 48.0) < 1e-3
        # two-path check: endpoint against the linear equilibrium solve
        xbar = steady_state(top, ctrls)
        assert np.linalg.norm(tr.final_state - xbar) <= 1e-6 * np.linalg.norm(xbar)

    def test_coupled_voltages_reach_band(self, pair):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, t_end=2.0), controllers=ctrls)
        assert tr.diverged is None
        for i in top.ids:
            ref = top.dgus[i].v_ref
            assert abs(tr.column(i, "V")[-1] - ref) < 1e-3 * ref

    def test_zero_everything_stays_zero(self, pair):
        _, ctrls = pair
        quiet = DguParams(0.1, 1.8e-3, 2.2e-3, LoadModel.constant_current(0.0), 0.0)
        top = MicrogridTopology({1: quiet}, ())
        tr = simulate(Scenario(top, 10.0, t_end=0.01), controllers={1: ctrls[1]},
                      initial_state=np.zeros(3))
        assert np.abs(tr.series[1]).max() == 0.0

    def test_record_grid(self, pair):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, t_end=0.01), controllers=ctrls)
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 0.01
        np.testing.assert_allclose(np.diff(tr.times), 1e-4, rtol=1e-9)

    def test_u_is_gain_times_state(self, pair):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, t_end=0.01), controllers=ctrls)
        k = ctrls[1].k
        expected = tr.series[1][:, :3] @ k
        np.testing.assert_allclose(tr.column(1, "u"), expected, rtol=1e-12)


class TestSteadyState:
    def test_equilibrium_voltage_is_reference(self, pair):
        top, ctrls = pair
        xbar = steady_state(top, ctrls)
        assert xbar[0] == pytest.approx(47.9, abs=1e-9)
        assert xbar[3] == pytest.approx(48.06, abs=1e-9)

    def test_load_double_shifts_current_not_voltage(self, pair):
        top, ctrls = pair
        xbar = steady_state(top, ctrls)
        halved = top.replace_params(1, dgu(0.1, 1.8e-3, 2.2e-3, 47.9, 5.0))
        xbar2 = steady_state(halved, ctrls)
        assert xbar2[0] == pytest.approx(xbar[0], abs=1e-9)
        assert xbar2[1] > xbar[1] + 1.0  # extra load current

    def test_singular_closed_loop(self, pair):
        top, _ = pair
        gains = {1: np.array([0.5, 0.5, 0.0]), 2: np.array([0.5, 0.5, 0.0])}
        with pytest.raises(ValueError, match="singular"):
            steady_state(top, gains)  # k3 = 0 decouples the integrators


class TestEvents:
    def test_event_split_is_exact(self, pair):
        top, ctrls = pair
        stepped = (LoadStep(0.2, 2, LoadModel.resistive(3.0)),)
        run_a = simulate(Scenario(top, 10.0, events=stepped, t_end=0.4),
                         controllers=ctrls)
        cut = np.searchsorted(run_a.times, 0.2)
        assert run_a.times[cut] == 0.2
        state = np.concatenate([run_a.series[i][cut, :3] for i in (1, 2)])
        post = top.replace_params(2, dgu(0.2, 1.7e-3, 2.0e-3, 48.06, 3.0))
        run_b = simulate(Scenario(post, 10.0, t_end=0.2), controllers=ctrls,
                         initial_state=state)
        for i in (1, 2):
            np.testing.assert_array_equal(run_a.series[i][cut:, :3],
                                          run_b.series[i][:, :3])

    def test_ref_step_applied_and_tracked(self, pair):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, events=(RefStep(0.1, 1, 48.3),),
                               t_end=4.0), controllers=ctrls)
        assert tr.events[0].outcome == "applied"
        assert abs(tr.column(1, "V")[-1] - 48.3) < 1e-3 * 48.3

    def test_plug_in_accepted_masks_and_preserves(self, pair):
        top, ctrls = pair
        before = {i: ctrls[i].k.copy() for i in top.ids}
        newcomer = dgu(0.3, 2.0e-3, 2.2e-3, 47.95, 4.0)
        ev = (PlugIn(0.1, 3, newcomer, (LineParams(3, 2, 0.06, 2.3e-6),)),)
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.3), controllers=ctrls)
        assert tr.events[0].outcome == "accepted"
        for i, k in before.items():
            np.testing.assert_array_equal(ctrls[i].k, k)
        v3 = tr.column(3, "V")
        joined = np.searchsorted(tr.times, 0.1)
        assert np.isnan(v3[:joined]).all()
        assert np.isfinite(v3[joined:]).all()
        # newcomer arrives pre-charged at its own operating point
        assert abs(v3[joined] - 47.95) < 1e-9

    def test_plug_in_denied_infeasible(self, pair):
        top, ctrls = pair
        monster = DguParams(0.2, 2e-3, 1e6, LoadModel.resistive(10.0), 48.0)
        ev = (PlugIn(0.05, 3, monster, (LineParams(3, 1, 0.05, 2e-6),)),)
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.1), controllers=ctrls)
        assert tr.events[0].outcome.startswith("denied")
        assert 3 not in tr.ids
        assert tr.final_topology.ids == (1, 2)

    def test_event_on_absent_dgu_skipped(self, pair):
        top, ctrls = pair
        ev = (LoadStep(0.05, 9, LoadModel.resistive(4.0)),)
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.1), controllers=ctrls)
        assert tr.events[0].outcome == "skipped: DGU 9 not present"

    def test_unplug_leaf_then_readd(self, pair):
        top, ctrls = pair
        newcomer = dgu(0.3, 2.0e-3, 2.2e-3, 47.95, 4.0)
        ev = (Unplug(0.05, 2),
              PlugIn(0.1, 2, top.dgus[2], (LineParams(2, 1, 0.05, 2.1e-6),)))
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.2), controllers=ctrls)
        assert [r.outcome for r in tr.events] == ["accepted", "accepted"]
        assert tr.final_topology.ids == (1, 2)

    def test_unplug_cut_vertex_denied(self):
        chain = MicrogridTopology(
            {1: dgu(), 2: dgu(), 3: dgu()},
            (LineParams(1, 2, 0.05, 2e-6), LineParams(2, 3, 0.05, 2e-6)),
        )
        ctrls = synthesize_all(chain, CFG)
        tr = simulate(Scenario(chain, 10.0, events=(Unplug(0.05, 2),), t_end=0.1),
                      controllers=ctrls)
        assert tr.events[0].outcome == "denied: disconnects the remaining grid"
        assert tr.final_topology.ids == (1, 2, 3)


class TestProtocolOps:
    def test_plug_duplicate_id_raises(self, pair):
        top, _ = pair
        with pytest.raises(TopologyError, match="already present"):
            attempt_plug_in(top, 1, dgu(), (LineParams(1, 2, 0.05),), CFG)

    def test_plug_dangling_line_raises(self, pair):
        top, _ = pair
        with pytest.raises(TopologyError, match="unknown DGU"):
            attempt_plug_in(top, 3, dgu(), (LineParams(3, 7, 0.05),), CFG)

    def test_plug_no_lines_denied(self, pair):
        top, _ = pair
        result = attempt_plug_in(top, 3, dgu(), (), CFG)
        assert isinstance(result, Denied)
        assert "isolated" in result.reason

    def test_unplug_unknown_raises(self, pair):
        top, _ = pair
        with pytest.raises(TopologyError, match="unknown"):
            attempt_unplug(top, 17)

    def test_unplug_last_denied(self):
        solo = MicrogridTopology({1: dgu()}, ())
        assert isinstance(attempt_unplug(solo, 1), Denied)


class TestIntegratorQuality:
    def test_observed_order_at_least_three_and_a_half(self, pair):
        top, ctrls = pair
        ref = simulate(Scenario(top, 10.0, t_end=0.01, dt=1e-5 / 16),
                       controllers=ctrls)
        errs = []
        for dt in (1e-5, 5e-6, 2.5e-6):
            tr = simulate(Scenario(top, 10.0, t_end=0.01, dt=dt),
                          controllers=ctrls)
            errs.append(max(np.abs(tr.series[i] - ref.series[i]).max()
                            for i in (1, 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.5)

    def test_lyapunov_function_nonincreasing(self, pair):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, t_end=0.05), controllers=ctrls)
        p = block_diag(ctrls[1].p, ctrls[2].p)
        x = np.hstack([tr.series[i][:, :3] for i in (1, 2)])
        x = x - steady_state(top, ctrls)
        v = np.einsum("ki,ij,kj->k", x, p, x)
        dv = np.diff(v)
        bound = 1e-8 * np.einsum("ki,ki->k", x, x)[:-1]
        assert np.all(dv <= bound + 1e-18)

    def test_divergence_reported_not_raised(self, pair):
        top, _ = pair
        runaway = {1: np.array([5000.0, 50.0, 1.0]),
                   2: np.array([5000.0, 50.0, 1.0])}
        tr = simulate(Scenario(top, 10.0, t_end=0.5), controllers=runaway,
                      initial_state=np.array([47.9, 4.8, 0.0, 48.06, 8.0, 0.0]))
        assert isinstance(tr.diverged, DivergedAt)
        assert tr.times[-1] <= tr.diverged.t
        for i in (1, 2):
            assert np.isfinite(tr.series[i]).all()


class TestLineModels:
    def test_rl_steady_current_matches_ohm(self, pair):
        top, ctrls = pair
        xbar = steady_state(top, ctrls, line_model=RL)
        v1, v2 = xbar[0], xbar[3]
        assert xbar[6] == pytest.approx((v1 - v2) / 0.05, rel=1e-9)

    def test_qsl_rl_agree_at_steady_state(self, pair):
        top, ctrls = pair
        xq = steady_state(top, ctrls)
        xr = steady_state(top, ctrls, line_model=RL)
        assert np.abs(xq - xr[:6]).max() <= 1e-9 * np.abs(xq).max()
        tr_q = simulate(Scenario(top, 10.0, t_end=3.0), controllers=ctrls)
        tr_r = simulate(Scenario(top, 10.0, t_end=3.0, line_model=RL),
                        controllers=ctrls)
        for i in (1, 2):
            a, b = tr_q.series[i][-1, :3], tr_r.series[i][-1, :3]
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)


class TestArtifacts:
    def test_csv_layout(self, pair, tmp_path):
        top, ctrls = pair
        newcomer = dgu(0.3, 2.0e-3, 2.2e-3, 47.95, 4.0)
        ev = (PlugIn(0.05, 3, newcomer, (LineParams(3, 2, 0.06, 2.3e-6),)),)
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.1),
                      controllers=ctrls)
        path = tmp_path / "run.csv"
        trajectory_to_csv(tr, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"] + [f"dgu{i}.{c}" for i in (1, 2, 3)
                                   for c in ("V", "It", "v", "u")]
        assert len(rows) - 1 == len(tr.times)
        assert rows[1][9] == "nan"  # DGU 3 absent at t = 0
        assert float(rows[-1][1]) == tr.series[1][-1, 0]

    def test_event_log_is_json_lines(self, pair):
        top, ctrls = pair
        ev = (LoadStep(0.05, 2, LoadModel.resistive(3.0)),)
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.1),
                      controllers=ctrls)
        lines = event_log_lines(tr)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0] == {"t": 0.05, "event": "load_step dgu=2",
                             "outcome": "applied"}


def stamped_ode(top, gains, line_model):
    """x' = Ax + c stamped from the circuit equations, unit by unit and
    line by line, independently of the global assembly."""
    ids = top.ids
    base = 3 * len(ids)
    dim = base + (len(top.lines) if line_model == RL else 0)
    a = np.zeros((dim, dim))
    c = np.zeros(dim)
    start = {dgu_id: 3 * k for k, dgu_id in enumerate(ids)}
    for dgu_id in ids:
        p = top.dgus[dgu_id]
        s = start[dgu_id]
        # C V' = I_t - I_L (+ lines), L I_t' = -R I_t + u - V, v' = v_ref - V
        local = np.array([[0.0, 1.0 / p.c_t, 0.0],
                          [-1.0 / p.l_t, -p.r_t / p.l_t, 0.0],
                          [-1.0, 0.0, 0.0]])
        b = np.array([0.0, 1.0 / p.l_t, 0.0])
        a[s:s + 3, s:s + 3] = local + np.outer(b, gains[dgu_id])
        c[s + 2] = p.v_ref
        if p.load.kind == "resistance":
            a[s, s] -= 1.0 / (p.load.value * p.c_t)
        else:
            c[s] -= p.load.value / p.c_t
    for m, ln in enumerate(top.lines):
        si, sj = start[ln.i], start[ln.j]
        ci, cj = top.dgus[ln.i].c_t, top.dgus[ln.j].c_t
        if line_model == QSL:
            a[si, si] -= 1.0 / (ln.r * ci)
            a[si, sj] += 1.0 / (ln.r * ci)
            a[sj, sj] -= 1.0 / (ln.r * cj)
            a[sj, si] += 1.0 / (ln.r * cj)
        else:
            row = base + m
            a[row, si] = 1.0 / ln.l
            a[row, sj] = -1.0 / ln.l
            a[row, row] = -ln.r / ln.l
            a[si, row] -= 1.0 / ci
            a[sj, row] += 1.0 / cj
    return a, c


class TestAssembly:
    RING = MicrogridTopology(
        {1: dgu(0.1, 1.8e-3, 2.2e-3, 47.9, 10.0),
         2: DguParams(0.2, 1.7e-3, 2.0e-3, LoadModel.constant_current(3.5),
                      48.06),
         3: dgu(0.15, 2.1e-3, 1.9e-3, 48.2, 6.0)},
        # the closing line is given against the ring's direction
        (LineParams(1, 2, 0.05, 2.1e-6), LineParams(2, 3, 0.07, 1.8e-6),
         LineParams(3, 1, 0.04, 2.4e-6)),
    )
    GAINS = {1: np.array([-2.5, -0.7, 11.0]),
             2: np.array([-1.1, -0.4, 9.0]),
             3: np.array([-3.2, -0.9, 14.0])}

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_matches_stamped_circuit_equations(self, line_model):
        a, c = _build_ode(self.RING, self.GAINS, line_model)
        a_ref, c_ref = stamped_ode(self.RING, self.GAINS, line_model)
        assert a.shape == a_ref.shape and c.shape == c_ref.shape
        assert np.max(np.abs(a - a_ref)) <= 1e-12 * np.max(np.abs(a_ref))
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))


class TestStateRemap:
    def test_rl_plug_in_then_unplug(self):
        line13 = LineParams(3, 1, 0.05, 2e-6)
        old = MicrogridTopology({1: dgu(), 3: dgu()}, (line13,))
        grown = old.with_dgu(2, dgu(), (LineParams(1, 2, 0.06, 2e-6),
                                        LineParams(2, 3, 0.07, 2e-6)))
        state = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0, -4.5])
        fresh = np.array([4.0, 5.0, 6.0])
        out = _remap_state(state, old, grown, RL, {2: fresh})
        # units in id order, the newcomer in the middle; lines in
        # topology order with the surviving (1, 3) current kept
        np.testing.assert_array_equal(
            out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                  -4.5, 0.0, 0.0])
        out[-2:] = [0.25, 0.5]
        shrunk = _remap_state(out, grown, grown.without_dgu(1), RL)
        np.testing.assert_array_equal(shrunk, [4.0, 5.0, 6.0, 7.0, 8.0,
                                               9.0, 0.5])
