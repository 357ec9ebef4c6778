import csv
import dataclasses
import importlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from gridforge.model import (DguParams, LineParams, LoadModel,
                             MicrogridTopology, TopologyError)
from gridforge.simulate import (QSL, RL, DivergedAt, LoadStep, PlugIn,
                                RefStep, Scenario, Trajectory, Unplug,
                                _build_ode, _remap_state, attempt_plug_in,
                                attempt_unplug, event_log_lines, simulate,
                                steady_state, trajectory_to_csv,
                                write_event_log)
from gridforge.synthesis import Denied, SynthesisConfig, synthesize_all

# the package re-exports the function `simulate` under the module's name
simulate_module = importlib.import_module("gridforge.simulate")
CFG = SynthesisConfig(10.0)
# light beta/zeta weights buy aggressive gains, so transients die quickly
FAST = SynthesisConfig(10.0, (1e-4, 1e-4, 1e-4, 1e-6, 1e-6))

# How far the block form may move a replayed value from the scalar loop,
# as a share of the largest magnitude in its row (or in the final state).
# A block row fl(S^j) [x; 1] and the loop's j-th step from the same x,
# for a slot map S acting on [x; 1], each lie within about j (n + 1) u
# |S|^j |[x; 1]| of the exact S^j [x; 1] (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., sec. 3.5: each product adds
# gamma_n |A| |B|).  In these runs j <= CHECK_ROWS = 1024, n + 1 <= 12 and
# u = 2^-53, so the two differ by at most 2 * 1024 * 12 * u = 2.7e-12 of
# that magnitude, which is the row's own size times the growth of |S|^j
# over |S^j|.  A block
# also starts from the last row of the one before, and the map carries
# that row's difference on: a decaying map shrinks it, a runaway one grows
# it with the row it rides on.  The bound leaves a factor of 37 for the
# growth; the worst row measured in one run of these tests was 9.0e-15 of
# its row.
BLOCK_FORM_TOL = 1e-10


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

    def test_dt_and_record_dt_must_be_whole_multiples(self, pair):
        top, _ = pair
        with pytest.raises(ValueError, match="^dt 3e-05 and record_dt 0.0001"
                           " must be whole multiples of one another$"):
            Scenario(top, 10.0, t_end=1.0, dt=3e-5)
        with pytest.raises(ValueError, match="dt 0.0001 and record_dt 3e-05"):
            Scenario(top, 10.0, t_end=1.0, dt=1e-4, record_dt=3e-5)

    @pytest.mark.parametrize("dt", [1e-5, 2e-5, 5e-6, 2.5e-6, 1e-5 / 16,
                                    1e-4, 5e-4])
    def test_steps_in_use_fit_the_record_grid(self, pair, dt):
        top, _ = pair
        assert Scenario(top, 10.0, t_end=1.0, dt=dt).dt == dt

    def test_unknown_line_model(self, pair):
        top, _ = pair
        with pytest.raises(ValueError, match="line_model"):
            Scenario(top, 10.0, t_end=1.0, line_model="pi")

    @pytest.mark.parametrize("line_model, length", [
        (QSL, 5), (QSL, 7), (RL, 6), (RL, 8)])
    def test_initial_state_length(self, pair, line_model, length):
        # three entries per unit, and under RL one current per line
        top, ctrls = pair
        expected = 6 if line_model == QSL else 7
        sc = Scenario(top, 10.0, t_end=0.01, line_model=line_model)
        with pytest.raises(ValueError, match=f"must have length {expected}$"):
            simulate(sc, controllers=ctrls, initial_state=np.zeros(length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_initial_state_must_be_finite(self, pair, bad):
        top, ctrls = pair
        state = np.zeros(6)
        state[4] = bad
        with pytest.raises(ValueError, match="must be finite"):
            simulate(Scenario(top, 10.0, t_end=0.01), controllers=ctrls,
                     initial_state=state)

    @pytest.mark.parametrize("ids", [[1], [1, 2, 3]],
                             ids=["missing", "extra"])
    def test_controllers_must_cover_the_initial_grid(self, pair, ids):
        top, ctrls = pair
        gains = {i: ctrls[1] for i in ids}
        with pytest.raises(ValueError, match="^controllers must cover "
                           "exactly the initial topology$"):
            simulate(Scenario(top, 10.0, t_end=0.01), gains)

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
        ev = (LoadStep(0.05, 9, LoadModel.resistive(4.0)), Unplug(0.06, 9))
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.1), controllers=ctrls)
        assert [r.outcome for r in tr.events] == ["skipped: DGU 9 not present"] * 2

    def test_off_grid_event_keeps_the_record_grid(self, pair):
        top, ctrls = pair
        t_event = 0.0123456789  # 4.3 us short of the dt grid at 1e-5
        plain = simulate(Scenario(top, 10.0, t_end=0.03), controllers=ctrls)
        runs = [simulate(Scenario(top, 10.0, events=(RefStep(t_event, 1, 48.3),),
                                  t_end=0.03, dt=dt), controllers=ctrls)
                for dt in (1e-5, 1e-5 / 16)]
        for tr in runs:
            # the event time is one extra sample; the others stay on the
            # record grid of the event-free run
            k = np.searchsorted(tr.times, t_event)
            assert tr.times[k] == t_event
            np.testing.assert_allclose(np.delete(tr.times, k), plain.times,
                                       rtol=0.0, atol=1e-15)
        # so a coarse and a fine run compare row by row
        np.testing.assert_allclose(runs[0].table, runs[1].table, rtol=0.0,
                                   atol=1e-6)

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

    def test_plug_line_must_touch_the_newcomer(self, pair):
        top, _ = pair
        with pytest.raises(TopologyError,
                           match=r"^line \(1, 2\) does not touch DGU 3$"):
            attempt_plug_in(top, 3, dgu(), (LineParams(1, 2, 0.05),), CFG)

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

    @staticmethod
    def run_warning_free(top, gain):
        # a divergence check that overflows would raise here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return simulate(
                Scenario(top, 10.0, t_end=0.5),
                controllers={1: np.array(gain), 2: np.array(gain)},
                initial_state=np.array([47.9, 4.8, 0.0, 48.06, 8.0, 0.0]))

    @staticmethod
    def assert_cut_at(tr, samples, t, max_abs):
        assert isinstance(tr.diverged, DivergedAt)
        # the first sample over the limit is kept and ends the run
        assert len(tr.times) == samples
        assert tr.times[-1] == tr.diverged.t == t
        # the stepping's power stack moves the cut row by rounding only
        assert tr.diverged.max_abs == pytest.approx(max_abs,
                                                    rel=BLOCK_FORM_TOL)
        np.testing.assert_array_equal(
            tr.final_state, np.concatenate([tr.series[i][-1, :3]
                                            for i in (1, 2)]))
        for i in (1, 2):
            assert np.isfinite(tr.series[i]).all()

    def test_divergence_reported_not_raised(self, pair):
        top, _ = pair
        tr = self.run_warning_free(top, (5000.0, 50.0, 1.0))
        self.assert_cut_at(tr, 4, 0.00030000000000000003, 24461295890.194813)

    def test_slow_runaway_cut_past_first_check(self, pair):
        top, _ = pair
        # 1,103 samples: the cut falls past the first CHECK_ROWS stretch
        tr = self.run_warning_free(top, (1.2, 0.0, 1.0))
        self.assert_cut_at(tr, 1103, 0.1102, 1010926296.3619192)

    def test_non_finite_sample_dropped(self, pair):
        top, _ = pair
        # a finite gain of 1e30 overflows the ten-step map to inf and NaN
        # within the first record interval, without a floating-point warning
        tr = self.run_warning_free(top, (1e30, 0.0, 1.0))
        assert tr.diverged == DivergedAt(0.0001, math.inf)
        assert tr.times.tolist() == [0.0]
        assert not np.isfinite(tr.final_state).any()
        assert event_log_lines(tr)[-1] == json.dumps(
            {"t": 0.0001, "event": "divergence",
             "outcome": "|state| reached inf"})

    def test_divergence_on_the_sample_at_an_event(self, pair):
        # the newcomer's own operating point is past DIVERGENCE_LIMIT, so
        # the sample recorded at its plug-in ends the run and is kept
        top, ctrls = pair
        params = dgu(0.3, 2.0e-3, 2.2e-3, 1e10, 4.0)
        design = synthesize_all(MicrogridTopology({3: params}, ()), FAST)[3]
        ev = PlugIn(0.005, 3, params, (LineParams(3, 2, 0.06, 2.3e-6),))
        tr = simulate(Scenario(top, 10.0, events=(ev,), t_end=0.01), ctrls,
                      designs={params: design})
        fresh = simulate_module._isolated_steady(params, design)
        assert tr.diverged == DivergedAt(0.005, np.abs(fresh).max())
        assert tr.diverged.max_abs > simulate_module.DIVERGENCE_LIMIT
        assert [r.outcome for r in tr.events] == ["accepted"]
        assert len(tr.times) == 51 and tr.times[-1] == 0.005
        assert tr.final_state[-3:].tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(tr.series[3][-1, :3], fresh)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, pair, bad):
        top, _ = pair
        with pytest.raises(ValueError, match="gain must be finite"):
            self.run_warning_free(top, (bad, 0.0, 1.0))


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


def csv_writer_reference(traj, path):
    """trajectory_to_csv as a csv.writer loop over numpy scalars."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"dgu{i}.{col}" for i in traj.ids
                                 for col in Trajectory.COLUMNS])
        for k in range(len(traj.times)):
            row = [repr(float(traj.times[k]))]
            for i in traj.ids:
                row.extend(repr(float(x)) for x in traj.series[i][k])
            writer.writerow(row)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(
        lambda m: -m[0] if m[1] else m[0])


# cells _write_rows hands to orjson: NaN, signed zeros, [1e-4, 1e16)
ORDINARY = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 1e-4, 1e15,
                     math.nextafter(1e16, 0.0)]),
    signed(st.floats(1e-4, 1e16, exclude_max=True)),
    st.integers(-10**15, 10**15).map(float))
# any double: the above and the odd cells, which keep their repr() line
CELLS = st.one_of(
    st.floats(),  # the whole double range, NaN, inf and subnormals included
    ORDINARY,
    st.sampled_from([math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
    signed(st.floats(1e-5, 1e-4, exclude_max=True)),
    signed(st.floats(1e16, allow_infinity=False)),
    st.integers(-2**63, 2**63).map(float))


def table_trajectory(rows, gain=(-2.5, -0.75, 12.0)):
    """A Trajectory of one DGU around a given four-column sample table
    (t, V, It, v), run under one gain row."""
    gains = np.array([gain], dtype=float)
    return Trajectory(np.array(rows, dtype=float).reshape(-1, 4),
                      ((0, gains),), (1,), (), MicrogridTopology({}, ()),
                      np.zeros(0))


def csv_writer_lines(rows):
    """csv.writer's lines of rows, each cell as repr() writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue().encode()


def assert_rows_match_csv_writer(rows):
    """_write_rows of five-column rows against csv.writer's lines."""
    rows = np.array(rows, dtype=float).reshape(-1, 5)
    buf = io.BytesIO()
    simulate_module._write_rows(buf, rows)
    assert buf.getvalue() == csv_writer_lines(rows)
    return buf.getvalue()


def assert_csv_matches_csv_writer(traj, tmp_path):
    trajectory_to_csv(traj, tmp_path / "run.csv")
    csv_writer_reference(traj, tmp_path / "reference.csv")
    written = (tmp_path / "run.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    return written


def run_with_plug_in(pair, t_end, line_model=QSL, t_plug=0.05):
    top, ctrls = pair
    newcomer = dgu(0.3, 2.0e-3, 2.2e-3, 47.95, 4.0)
    ev = (PlugIn(t_plug, 3, newcomer, (LineParams(3, 2, 0.06, 2.3e-6),)),)
    return simulate(Scenario(top, 10.0, events=ev, t_end=t_end,
                             line_model=line_model), controllers=ctrls)


class TestArtifacts:
    def test_csv_layout(self, pair, tmp_path):
        tr = run_with_plug_in(pair, 0.1)
        path = tmp_path / "run.csv"
        trajectory_to_csv(tr, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"] + [f"dgu{i}.{c}" for i in (1, 2, 3)
                                   for c in ("V", "It", "v", "u")]
        assert len(rows) - 1 == len(tr.times)
        assert rows[1][9] == "nan"  # DGU 3 absent at t = 0
        assert float(rows[-1][1]) == tr.series[1][-1, 0]

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_csv_bytes_match_csv_writer(self, pair, tmp_path, line_model):
        # 5,001 rows: more than one block of 4,096 rows per write
        tr = run_with_plug_in(pair, 0.5, line_model)
        trajectory_to_csv(tr, tmp_path / "run.csv")
        csv_writer_reference(tr, tmp_path / "reference.csv")
        written = (tmp_path / "run.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        rows = written.decode().split("\r\n")
        assert rows[-1] == ""
        cells = np.array([[float(c) for c in row.split(",")]
                          for row in rows[1:-1]])
        table = np.column_stack([tr.times] + [tr.series[i] for i in tr.ids])
        # every cell reads back bit for bit, NaN and signed zeros included
        assert cells.shape == table.shape
        assert cells.tobytes() == table.tobytes()

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_table_is_the_one_sample_array(self, pair, line_model):
        # the table holds t and each unit's (V, It, v); u is derived
        tr = run_with_plug_in(pair, 0.1, line_model)
        assert tr.table.shape == (len(tr.times), 1 + 3 * len(tr.ids))
        views = [tr.times, *(tr.column(3, name) for name in ("V", "It",
                                                             "v"))]
        for view in views:
            assert np.shares_memory(view, tr.table)
        for array in (tr.table, *views):
            assert not array.flags.writeable
        for gains in (gains for _, gains in tr.segments):
            assert gains.shape == (3, 3) and not gains.flags.writeable
        derived = [tr.column(3, "u"), *tr.series.values()]
        for array in derived:
            assert not np.shares_memory(array, tr.table)
            assert not array.flags.writeable
        joined = np.column_stack([tr.times] + [tr.series[i][:, :3]
                                               for i in tr.ids])
        assert tr.table.tobytes() == joined.tobytes()
        for i in tr.ids:
            for j, name in enumerate(Trajectory.COLUMNS):
                assert (tr.column(i, name).tobytes()
                        == np.ascontiguousarray(tr.series[i][:, j]).tobytes())
        # RL line currents are in the final state only
        assert len(tr.final_state) == 9 + (2 if line_model == RL else 0)

    @pytest.fixture(scope="class")
    def late_plug_in(self, pair, tmp_path_factory):
        """5,001 rows with DGU 3 NaN in rows 0-2,999, and csv.writer's
        bytes of them."""
        tr = run_with_plug_in(pair, 0.5, t_plug=0.3)
        path = tmp_path_factory.mktemp("reference") / "reference.csv"
        csv_writer_reference(tr, path)
        return tr, path.read_bytes()

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("ranges", [1, 2, 3, 5])
    def test_row_ranges_keep_the_bytes(self, late_plug_in, tmp_path,
                                       monkeypatch, ranges):
        tr, reference = late_plug_in
        rows = len(tr.table)
        # the ranges split the rows evenly; their inner boundaries are
        bounds = [rows * k // ranges for k in range(1, ranges)]
        if ranges > 1:
            # a boundary inside a CSV_CHUNK-row chunk and one where DGU 3
            # is NaN
            assert any(b % simulate_module.CSV_CHUNK for b in bounds)
            assert any(np.isnan(tr.column(3, "V")[b - 1:b + 1]).all()
                       for b in bounds)
        monkeypatch.setattr(simulate_module, "_range_count",
                            lambda rows: ranges)
        trajectory_to_csv(tr, tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == reference
        self.assert_no_child_left()

    @pytest.mark.parametrize("where, error, message", [
        ("child", RuntimeError, "failed with status 1"),
        ("parent", OSError, "no space left")])
    def test_failure_raises_and_reaps(self, late_plug_in, tmp_path,
                                      monkeypatch, where, error, message):
        tr, _ = late_plug_in
        parent, write_rows = os.getpid(), simulate_module._write_rows

        def fail_in_one_process(fh, rows):
            if (os.getpid() == parent) == (where == "parent"):
                raise OSError("no space left")
            write_rows(fh, rows)

        monkeypatch.setattr(simulate_module, "_range_count", lambda rows: 3)
        monkeypatch.setattr(simulate_module, "_write_rows",
                            fail_in_one_process)
        with pytest.raises(error, match=message):
            trajectory_to_csv(tr, tmp_path / "run.csv")
        self.assert_no_child_left()

    @staticmethod
    def assert_first_rows_unforked(tr, reference, rows, path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        trajectory_to_csv(dataclasses.replace(tr, table=tr.table[:rows]),
                          path)
        lines = reference.split(b"\r\n")[:1 + rows]
        assert path.read_bytes() == b"".join(line + b"\r\n"
                                             for line in lines)

    def test_one_row_forks_nothing(self, late_plug_in, tmp_path,
                                   monkeypatch):
        tr, reference = late_plug_in
        self.assert_first_rows_unforked(tr, reference, 1,
                                        tmp_path / "run.csv", monkeypatch)

    def test_csv_range_rows_fork_nothing(self, late_plug_in, tmp_path,
                                         monkeypatch):
        # nor do CSV_RANGE rows, four CSV_CHUNK-row chunks; one more row
        # makes two ranges where there are two CPUs
        tr, reference = late_plug_in
        most = simulate_module.CSV_RANGE
        assert most == 4 * simulate_module.CSV_CHUNK
        self.assert_first_rows_unforked(tr, reference, most,
                                        tmp_path / "run.csv", monkeypatch)
        assert simulate_module._range_count(most) == 1
        assert simulate_module._range_count(
            most + 1) == simulate_module._forks.range_count(2)

    def test_without_fork_one_range(self, late_plug_in, tmp_path,
                                    monkeypatch):
        tr, reference = late_plug_in
        monkeypatch.delattr(os, "fork")
        assert simulate_module._range_count(len(tr.table)) == 1
        trajectory_to_csv(tr, tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == reference

    @pytest.mark.parametrize("ranges", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.one_of(st.lists(ORDINARY, min_size=5,
                                            max_size=5),
                                   st.lists(CELLS, min_size=5, max_size=5)),
                         max_size=12),
           gain=st.one_of(st.lists(ORDINARY, min_size=3, max_size=3),
                          st.lists(CELLS, min_size=3, max_size=3)),
           chunk=st.integers(1, 4))
    def test_any_doubles_match_csv_writer(self, tmp_path_factory, ranges,
                                          rows, gain, chunk):
        # odd and ordinary rows interleave inside chunks and across their
        # boundaries: in _write_rows' own rows, and in every row range of
        # a trajectory of their first four cells, whose u is derived
        with mock.patch.object(simulate_module, "CSV_CHUNK", chunk), \
                mock.patch.object(simulate_module, "_range_count",
                                  lambda rows: ranges):
            assert_rows_match_csv_writer(rows)
            assert_csv_matches_csv_writer(
                table_trajectory([row[:4] for row in rows], gain),
                tmp_path_factory.mktemp("csv"))
        self.assert_no_child_left()

    def test_odd_rows_across_a_chunk_boundary(self, tmp_path):
        chunk = simulate_module.CSV_CHUNK
        rows = np.tile([1.0, 48.0, -0.0, math.nan, 0.25], (chunk + 4, 1))
        odd = {0: 1e-5, 2: math.inf, 3: 1e16, chunk - 1: -5e-324,
               chunk: 7.754432846917344e-05, chunk + 2: -math.inf}
        for k, cell in odd.items():
            rows[k, 1 + k % 4] = cell
        rows[:, 0] = np.arange(chunk + 4) * 0.5
        written = assert_rows_match_csv_writer(rows)
        lines = written.split(b"\r\n")[chunk:]
        start = repr(chunk * 0.5).encode()
        assert lines[:2] == [start + b",7.754432846917344e-05,-0.0,nan,0.25",
                             repr(chunk * 0.5 + 0.5).encode()
                             + b",48.0,-0.0,nan,0.25"]
        # a trajectory of those cells, u derived, across the same boundary
        assert_csv_matches_csv_writer(table_trajectory(rows[:, :4]),
                                      tmp_path)

    @pytest.mark.parametrize("rows, line", [
        ([], None),
        ([[0.0, 1.0, math.nan, -0.0, 1e15]],
         b"0.0,1.0,nan,-0.0,1000000000000000.0"),
        ([[0.0, 1.0, math.nan, -0.0, 1e-7]], b"0.0,1.0,nan,-0.0,1e-07"),
    ], ids=["no-row", "ordinary-row", "odd-row"])
    def test_short_tables(self, tmp_path, rows, line):
        written = assert_rows_match_csv_writer(rows)
        assert written == (b"" if line is None else line + b"\r\n")
        # a trajectory of their first four cells: the header, then the
        # rows with u derived
        traj = table_trajectory(np.reshape(rows, (-1, 5))[:, :4])
        written = assert_csv_matches_csv_writer(traj, tmp_path)
        header = b"t,dgu1.V,dgu1.It,dgu1.v,dgu1.u\r\n"
        assert written == header + csv_writer_lines(traj.rows(0, len(rows)))

    @pytest.mark.parametrize("rows", [
        [[0.5, 48.0, 1.5, -2.0, 0.25]],
        [[0.0, math.nan, 1.0, 2.0, 3.0], [1e-4, 2.0, 3.0, 4.0, math.nan]],
        [[0.5, math.nan, math.nan, math.nan, math.nan]] * 3,
        [[0.0, -0.0, 0.0, -0.0, -1.5], [-0.0, 0.0, -0.0, 0.0, 1e15]],
    ], ids=["one-row", "nan-first-and-last", "nan-but-t", "signed-zeros"])
    def test_orjson_lines_are_csv_writer_lines(self, rows):
        # the NaN cases end on "null]]", the outer "]" after a null
        rows = np.array(rows)
        written = assert_rows_match_csv_writer(rows)
        assert simulate_module._orjson_lines(rows) == written

    def test_odd_rows_cut_a_chunk_into_runs_of_one(self):
        rows = np.tile([0.0, 48.0, -0.0, math.nan, 0.25], (9, 1))
        rows[:, 0] = np.arange(9) * 0.5
        rows[1::2, 2] = 1e-7  # every other row is odd
        rows[8, 4] = math.nan
        written = assert_rows_match_csv_writer(rows)
        assert written.split(b"\r\n")[:3] == [
            b"0.0,48.0,-0.0,nan,0.25", b"0.5,48.0,1e-07,nan,0.25",
            b"1.0,48.0,-0.0,nan,0.25"]

    @pytest.mark.parametrize("link", ["hard", "symbolic"])
    def test_writers_replace_the_file(self, pair, tmp_path, link):
        top, ctrls = pair
        tr = simulate(Scenario(top, 10.0, t_end=0.01, events=(
            RefStep(0.005, 1, 48.3),)), controllers=ctrls)
        writers = {"run.csv": trajectory_to_csv, "events.log": write_event_log}
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name, write in writers.items():
            write(tr, fresh / name)
        old = b"x" * (2 * len((fresh / "run.csv").read_bytes()))
        for name, write in writers.items():
            path, other = tmp_path / name, tmp_path / f"old-{name}"
            other.write_bytes(old)
            if link == "hard":
                os.link(other, path)
            else:
                path.symlink_to(other)
            write(tr, path)
            # the old file keeps its bytes; the path holds the new ones only
            assert other.read_bytes() == old
            assert not path.is_symlink()
            assert path.read_bytes() == (fresh / name).read_bytes()

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
        m = _build_ode(self.RING, self.GAINS, line_model)
        # the generator [[A, c], [0, 0]] acts on [x; 1]
        assert not m[-1].any()
        a, c = m[:-1, :-1], m[:-1, -1]
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


def scalar_run_reference(seg, state, t0, t1, record_dt):
    """_Segment.run as a slot-by-slot loop: slot j ends at step j * per of
    the dt grid, each slot's steps go through the power of the step map
    with `@` on [state; 1], and the samples reach seg.record CHECK_ROWS
    at a time."""
    state = np.append(state, 1.0)
    dt = seg.dt
    per = max(1, round(record_dt / dt))
    end = t1 - 1e-9 * max(1.0, t1)
    chunks = {}
    times, pending = [], []

    def check():
        cut = seg.record(np.array(times), np.array(pending))
        times.clear()
        pending.clear()
        return cut

    slot = math.floor(t0 / (per * dt) + 1e-6) + 1
    cut = None
    with np.errstate(over="ignore", invalid="ignore"):
        grid = math.ceil(t0 / dt - 1e-6) * dt
        if grid - t0 > 1e-6 * dt and grid < end:
            state, t0 = seg.short_step(state, grid - t0), grid
        first = round(t0 / dt)
        k = 0  # steps taken from t0
        while cut is None:
            sample = slot * per * dt < end
            to = (slot * per - first if sample
                  else math.floor((t1 - t0) / dt + 1e-6))
            steps, k = to - k, to
            if steps:
                if steps not in chunks:
                    chunks[steps] = np.linalg.matrix_power(seg.step, steps)
                state = chunks[steps] @ state
            if not sample:
                break
            slot += 1
            times.append(t0 + k * dt)
            pending.append(state[:-1])
            if len(pending) >= simulate_module.CHECK_ROWS:
                cut = check()
        cut = cut or check()
        if cut is not None:
            return cut[0], cut[1].t, cut[1]
        t_cur = t0 + k * dt
        if t1 - t_cur > 1e-9 * dt:
            state = seg.short_step(state, t1 - t_cur)
    return state[:-1], t1, None


def replay_packaged(line_model):
    """The packaged scenario's replay under line_model; returns its
    segments, each with the power stacks run() used by step count (the
    deepest of each), the length of each state run() returned and the
    widths of the states record() was given."""
    from gridforge import cli
    scenario = dataclasses.replace(
        cli.load_scenario(cli.packaged_scenario_path()),
        line_model=line_model)
    segments = []

    class Kept(simulate_module._Segment):
        def __init__(self, *args):
            super().__init__(*args)
            self.stacks, self.returned, self.widths = {}, [], set()
            segments.append(self)

        def record(self, times, states):
            self.widths.add(states.shape[1])
            return super().record(times, states)

        def powers(self, stacks, count, depth):
            p = self.stacks[count] = super().powers(stacks, count, depth)
            return p

        def run(self, *args):
            out = super().run(*args)
            self.returned.append(len(out[0]))
            return out

    ctrls = synthesize_all(scenario.initial_topology,
                           scenario.synthesis_config())
    with mock.patch.object(simulate_module, "_Segment", Kept):
        tr = simulate(scenario, ctrls)
    assert tr.diverged is None
    return segments


NEWCOMER = dgu(0.3, 2.0e-3, 2.2e-3, 47.95, 4.0)
# where the runaway gains of TestIntegratorQuality start
RUNAWAY_START = np.array([47.9, 4.8, 0.0, 48.06, 8.0, 0.0])


@pytest.fixture(scope="module")
def newcomer_design():
    top = MicrogridTopology({3: NEWCOMER}, ())
    return {NEWCOMER: synthesize_all(top, FAST)[3]}


def assert_runs_match_the_reference(scenario, controllers, designs=None,
                                    initial_state=None):
    """The replay against scalar_run_reference: bit for bit with the power
    stack capped to one row, and under the real cap the same sample times,
    events and cut, with values within BLOCK_FORM_TOL."""
    def replay(run):
        with mock.patch.object(simulate_module._Segment, "run", run):
            return simulate(scenario, controllers, initial_state, designs)

    want = replay(scalar_run_reference)
    with mock.patch.object(simulate_module, "_STACK_BYTES", 0):
        one_row = replay(simulate_module._Segment.run)
    assert one_row.table.tobytes() == want.table.tobytes()
    assert one_row.ids == want.ids and one_row.events == want.events
    assert one_row.final_state.tobytes() == want.final_state.tobytes()
    assert one_row.diverged == want.diverged
    got = replay(simulate_module._Segment.run)
    # equal times are equal row counts, so the cut is at the same sample
    assert got.times.tobytes() == want.times.tobytes()
    assert got.ids == want.ids and got.events == want.events
    assert (got.diverged is None) == (want.diverged is None)
    if want.diverged is not None:
        assert got.diverged.t == want.diverged.t
        assert got.diverged.max_abs == pytest.approx(
            want.diverged.max_abs, rel=BLOCK_FORM_TOL)
    cells, ref = got.table[:, 1:], want.table[:, 1:]
    np.testing.assert_array_equal(np.isnan(cells), np.isnan(ref))
    scale = np.nanmax(np.abs(ref), axis=1, initial=0.0)[:, None]
    moved = np.abs(np.nan_to_num(cells - ref))
    assert (moved <= BLOCK_FORM_TOL * scale).all()
    # non-finite entries (a first slot that overflowed) in the same places
    finite = np.isfinite(want.final_state)
    np.testing.assert_array_equal(np.isfinite(got.final_state), finite)
    assert not finite.any() or np.abs(
        got.final_state - want.final_state)[finite].max() <= (
            BLOCK_FORM_TOL * np.abs(want.final_state[finite]).max())
    return got


class TestStepping:
    @settings(max_examples=40, deadline=None)
    @given(ratio=st.sampled_from([1.0, 0.1, 4.0]),
           record_dt=st.sampled_from([2.5e-5, 1e-4]),
           t_end=st.floats(0.004, 0.02),
           marks=st.lists(st.tuples(st.floats(0.05, 0.95), st.sampled_from(
               [None, 0.0, 1e-11, -1e-11, 3e-11, -3e-11])),
               min_size=2, max_size=2),
           plug_in=st.booleans(), line_model=st.sampled_from([QSL, RL]),
           check_rows=st.sampled_from([1, 3, 1024]))
    # a plug-in off the dt grid, then an unplug on it, under RL lines
    @example(ratio=0.1, record_dt=1e-4, t_end=0.01,
             marks=[(0.31234567, None), (0.6, 0.0)], plug_in=True,
             line_model=RL, check_rows=3)
    def test_matches_the_scalar_loop(self, pair, newcomer_design, ratio,
                                     record_dt, t_end, marks, plug_in,
                                     line_model, check_rows):
        top, ctrls = pair
        dt = ratio * record_dt
        # two event times, each off the dt grid (None) or at that offset
        # from its nearest point; within 1e-6 dt, run() takes it as on it
        times = sorted(f * t_end if off is None
                       else round(f * t_end / dt) * dt + off
                       for f, off in marks)
        times = [min(max(t, dt / 3), t_end - dt / 3) for t in times]
        if plug_in:
            events = (PlugIn(times[0], 3, NEWCOMER,
                             (LineParams(3, 2, 0.06, 2.3e-6),)),
                      Unplug(times[1], 3))
        else:
            events = (RefStep(times[0], 1, 48.3),
                      LoadStep(times[1], 2, LoadModel.resistive(3.0)))
        scenario = Scenario(top, 10.0, events=events, t_end=t_end, dt=dt,
                            record_dt=record_dt, line_model=line_model)
        with mock.patch.object(simulate_module, "CHECK_ROWS", check_rows):
            assert_runs_match_the_reference(scenario, ctrls,
                                            newcomer_design)

    @pytest.mark.parametrize("gain, t_end, check_rows", [
        ((1.2, 0.0, 1.0), 0.5, 1024),  # cut past the first stretch
        ((1.2, 0.0, 1.0), 0.5, 7),
        ((1e30, 0.0, 1.0), 0.5, 1024),  # non-finite first slot
        ((5000.0, 50.0, 1.0), 0.5, 2)])
    def test_divergent_runs_match_the_scalar_loop(self, pair, gain, t_end,
                                                  check_rows):
        top, _ = pair
        gains = {1: np.array(gain), 2: np.array(gain)}
        with mock.patch.object(simulate_module, "CHECK_ROWS", check_rows):
            tr = assert_runs_match_the_reference(
                Scenario(top, 10.0, t_end=t_end), gains,
                initial_state=RUNAWAY_START)
        assert tr.diverged is not None

    @pytest.mark.parametrize("ratio", [0.1, 4.0])
    @pytest.mark.parametrize("offset", [1e-11, -1e-11, 3e-11, -3e-11])
    def test_near_grid_events_keep_the_record_grid(self, ratio, offset):
        # events within 3e-11 s of a dt grid point (10 dt, a record point,
        # and 537 dt, not one when dt < record_dt) are taken as on it or
        # short-stepped onto it by run(); either way every later sample
        # stays within about 1e-6 dt of the record grid
        p = DguParams(0.1, 1.8e-3, 2.2e-3, LoadModel.resistive(10.0), 48.0)
        top = MicrogridTopology({1: p, 2: p}, (LineParams(1, 2, 0.05, 2e-6),))
        dt = 1e-5
        record_dt = dt / ratio
        events = (RefStep(10 * dt + offset, 1, 47.0),
                  RefStep(537 * dt + offset, 2, 48.5))
        scenario = Scenario(top, 10.0, t_end=0.01, dt=dt, events=events,
                            record_dt=record_dt)
        tr = assert_runs_match_the_reference(scenario,
                                             synthesize_all(top, CFG))
        times = tr.times[~np.isin(tr.times, [0.01, *(e.t for e in events)])]
        off = np.abs(times - np.round(times / record_dt) * record_dt)
        assert len(times) > 40 and off.max() <= 2e-6 * dt

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_first_segment_follows_the_exact_flow(self, line_model):
        # perfbench's check_exact_stretch on the shipped scenario, before
        # its first event at 4 s: each row against the exact flow
        # exp(tM) of M = [[A, c], [0, 0]] from the t = 0 sample, within
        # four times RK4's own error there plus 1e-10 of the state's size
        from gridforge import cli
        scenario = dataclasses.replace(
            cli.load_scenario(cli.packaged_scenario_path()),
            line_model=line_model)
        top = scenario.initial_topology
        ctrls = synthesize_all(top, scenario.synthesis_config())
        tr = simulate(scenario, ctrls)
        assert scenario.events[0].t == 4.0 and tr.times[40000] == 4.0
        a, c = stamped_ode(top, {i: ctrls[i].k for i in top.ids}, line_model)
        n = len(c)
        m = np.zeros((n + 1, n + 1))
        m[:n, :n], m[:n, n] = a, c
        # one RK4 step on a linear system is exp(dt M)'s quartic Taylor
        # polynomial
        taylor = np.eye(n + 1)
        term = np.eye(n + 1)
        for j in range(1, 5):
            term = term @ (scenario.dt * m) / j
            taylor = taylor + term
        units = 3 * len(top.ids)

        def unit_states(row):
            return np.concatenate([tr.series[i][row, :3] for i in top.ids])

        x0 = np.zeros(n + 1)
        x0[:units], x0[n] = unit_states(0), 1.0
        for row in (10, 1000, 39999):
            t = tr.times[row]
            steps = round(t / scenario.dt)
            assert t == row * scenario.record_dt and steps == 10 * row
            exact = (expm(t * m) @ x0)[:units]
            rk4 = (np.linalg.matrix_power(taylor, steps) @ x0)[:units]
            got = unit_states(row)
            allowed = (4.0 * np.abs(rk4 - exact).max()
                       + 1e-10 * np.abs(exact).max())
            assert np.abs(got - exact).max() <= allowed

    @staticmethod
    def assert_dot_is_matmul(m, x):
        dot = m.dot
        for _ in range(1000):
            x, y = dot(x), m @ x
            assert x.tobytes() == y.tobytes()

    @staticmethod
    def homogeneous(r, w):
        m = np.zeros((len(w) + 1, len(w) + 1))
        m[:-1, :-1], m[:-1, -1], m[-1, -1] = r, w, 1.0
        return m

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_dot_is_matmul_on_the_packaged_maps(self, line_model):
        # a one-deep power stack steps with ndarray.dot; a numpy that
        # routed it apart from `@` would move the trajectories of grids
        # too large for a deeper stack
        segments = replay_packaged(line_model)
        assert len(segments) == 4
        rng = np.random.default_rng(7)
        for seg in segments:
            assert 10 in seg.stacks
            for m in [seg.step, *(p[0] for p in seg.stacks.values())]:
                x = np.append(rng.normal(48.0, 5.0, len(m) - 1), 1.0)
                self.assert_dot_is_matmul(m, x)

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_maps_keep_the_one_and_run_drops_it(self, line_model):
        # every map acts on [x; 1] and keeps its 1 exactly, while the
        # state run() returns and the states record() sees are x alone
        segments = replay_packaged(line_model)
        for seg in segments:
            n = len(seg.m) - 1
            one = np.eye(n + 1)[-1]
            assert not seg.m[-1].any()
            for m in [seg.step, *(e for p in seg.stacks.values() for e in p)]:
                assert m.shape == (n + 1, n + 1)
                assert m[-1].tobytes() == one.tobytes()
            assert seg.returned == [n]
            assert seg.widths == {n}

    @pytest.mark.parametrize("units", range(1, 9))
    def test_dot_is_matmul_on_random_maps(self, units):
        rng = np.random.default_rng(units)
        n = 3 * units
        r = rng.normal(size=(n, n))
        r *= 0.999 / np.max(np.abs(np.linalg.eigvals(r)))
        self.assert_dot_is_matmul(self.homogeneous(r, rng.normal(size=n)),
                                  np.append(rng.normal(size=n), 1.0))

    @pytest.mark.parametrize("gain, t1", [
        (None, 0.0123),  # ends on a final slot's steps
        (None, 0.01234567),  # and a short step
        ((1.2, 0.0, 1.0), 0.5)])  # cut at a kept row over the limit
    def test_returned_state_is_no_recorded_row(self, pair, gain, t1):
        top, ctrls = pair
        state = RUNAWAY_START.copy()
        if gain is not None:
            ctrls = {1: np.array(gain), 2: np.array(gain)}
        table = np.full((5002, 7), np.nan)
        seg = simulate_module._Segment(top, ctrls, QSL, 1e-5, table, (1, 2),
                                       0)
        seg.record(np.array([0.0]), np.array([state]))
        state, _, cut = seg.run(state, 0.0, t1, 1e-4)
        assert (cut is None) == (gain is None)
        assert np.isfinite(table[:seg.pos]).all()
        kept = table.copy()
        state[:] = 7.0
        assert kept.tobytes() == table.tobytes()

    def test_dot_into_a_row_is_matmul(self):
        # a one-deep power stack's step: dot(state, row)
        rng = np.random.default_rng(3)
        r = rng.normal(size=(18, 18))
        r *= 0.999 / np.max(np.abs(np.linalg.eigvals(r)))
        m = self.homogeneous(r, rng.normal(size=18))
        x = np.append(rng.normal(size=18), 1.0)
        block = np.empty((1000, 19))
        state = x
        for row in block:
            m.dot(state, row)
            state = row
        for row in block:
            x = m @ x
            assert row.tobytes() == x.tobytes()


def table_owner(table):
    """The array that owns the buffer table is a view of."""
    while table.base is not None:
        table = table.base
    return table


class TestRecording:
    """simulate() allocates the table once and each sample is written
    into it once; a copy is made only to drop columns or unused rows."""

    def test_cut_on_the_first_row_keeps_none_of_the_stretch(self, pair):
        top, ctrls = pair
        table = np.full((6, 7), np.nan)
        seg = simulate_module._Segment(top, ctrls, QSL, 1e-5, table, (1, 2),
                                       0)
        state = RUNAWAY_START
        assert seg.record(np.array([0.0]), np.array([state])) is None
        assert seg.record(np.zeros(0), np.zeros((0, 6))) is None
        assert seg.pos == 1
        rows = np.array([state, state, state])
        rows[0, 4] = math.nan
        cut, at = seg.record(np.array([1e-4, 2e-4, 3e-4]), rows)
        assert at == DivergedAt(1e-4, math.inf) and np.isnan(cut[4])
        assert seg.pos == 1 and np.isnan(table[1:]).all()
        # a first row over the limit is kept, and only it
        rows[0, 4] = 2 * simulate_module.DIVERGENCE_LIMIT
        cut, at = seg.record(np.array([1e-4, 2e-4, 3e-4]), rows)
        assert at == DivergedAt(1e-4, 2 * simulate_module.DIVERGENCE_LIMIT)
        assert seg.pos == 2 and np.isnan(table[2:]).all()
        np.testing.assert_array_equal(table[1, [0, 4, 5, 6]],
                                      [1e-4, *rows[0, 3:]])

    @pytest.mark.parametrize("t_end, copied", [(0.5, True), (0.2, False)])
    def test_early_divergence_holds_only_its_rows(self, pair, t_end,
                                                  copied):
        # the runaway of TestIntegratorQuality is cut at its 1,103rd
        # sample, of 5,002 rows allocated at t_end 0.5 and 2,002 at 0.2
        top, _ = pair
        gain = np.array((1.2, 0.0, 1.0))
        tr = simulate(Scenario(top, 10.0, t_end=t_end), {1: gain, 2: gain},
                      initial_state=RUNAWAY_START)
        assert len(tr.times) == 1103 and tr.diverged is not None
        owner = table_owner(tr.table)
        assert (owner is tr.table) == copied
        assert owner.nbytes <= 2 * tr.table.nbytes
        assert tr.table.flags.c_contiguous and not tr.table.flags.writeable

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_early_divergence_touches_only_its_rows(self, pair):
        # the same runaway at t_end 160 s: its table of 1,600,002 rows
        # (115 MB) is allocated, and only the 1,103 rows written may reach
        # the resident set.  The run gets a fresh process, whose VmHWM is
        # its own peak; its ru_maxrss would start at this process's peak,
        # which it keeps across exec
        top, _ = pair
        gain = np.array((1.2, 0.0, 1.0))
        args = (Scenario(top, 10.0, t_end=160.0), {1: gain, 2: gain},
                RUNAWAY_START)
        child = (
            "import pickle, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from gridforge.simulate import simulate\n"
            "args = pickle.load(sys.stdin.buffer)\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            "before = peak_kib()\n"
            "tr = simulate(*args)\n"
            "print(len(tr.times), peak_kib() - before)\n")
        src = os.path.dirname(os.path.dirname(simulate_module.__file__))
        done = subprocess.run([sys.executable, "-c", child, src],
                              input=pickle.dumps(args), capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        samples, grown_kib = map(int, done.stdout.split())
        assert samples == 1103
        assert grown_kib < 16 * 1024

    def test_denied_plug_in_gets_no_columns(self, pair, tmp_path):
        # a denial changes no segment, so the run is the one with a no-op
        # reference step at the same instant, and the newcomer's columns
        # are dropped from the table allocated with them
        top, ctrls = pair
        monster = DguParams(0.2, 2e-3, 1e6, LoadModel.resistive(10.0), 48.0)
        denied, same = (
            simulate(Scenario(top, 10.0, events=(ev,), t_end=0.1), ctrls)
            for ev in (PlugIn(0.05, 3, monster,
                              (LineParams(3, 1, 0.05, 2e-6),)),
                       RefStep(0.05, 1, top.dgus[1].v_ref)))
        assert denied.events[0].outcome.startswith("denied")
        assert denied.ids == same.ids == (1, 2)
        assert denied.table.tobytes() == same.table.tobytes()
        assert [gains.shape for _, gains in denied.segments] == [(2, 3)]
        assert denied.table.flags.c_contiguous
        assert not denied.table.flags.writeable
        written = assert_csv_matches_csv_writer(denied, tmp_path)
        assert written.startswith(b"t,dgu1.V,dgu1.It,dgu1.v,dgu1.u,dgu2.V,"
                                  b"dgu2.It,dgu2.v,dgu2.u\r\n")
        trajectory_to_csv(same, tmp_path / "same.csv")
        assert written == (tmp_path / "same.csv").read_bytes()

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_replug_with_other_parameters_derives_u_per_segment(
            self, pair, tmp_path, line_model):
        # DGU 2 leaves and rejoins as another unit, designed at its event:
        # each segment keeps its own gain rows, and every u cell is that
        # segment's einsum of them with the row's states, NaN while DGU 2
        # is out
        top, ctrls = pair
        ev = (Unplug(0.05, 2),
              PlugIn(0.1, 2, NEWCOMER, (LineParams(2, 1, 0.05, 2.1e-6),)))
        tr = simulate(Scenario(top, 10.0, events=ev, t_end=0.2,
                               line_model=line_model), ctrls)
        assert [r.outcome for r in tr.events] == ["accepted", "accepted"]
        redesign = synthesize_all(MicrogridTopology({2: NEWCOMER}, ()),
                                  CFG)[2]
        assert not np.array_equal(redesign.k, ctrls[2].k)
        out = np.full(3, np.nan)
        stacks = [[ctrls[1].k, ctrls[2].k], [ctrls[1].k, out],
                  [ctrls[1].k, redesign.k]]
        starts = [0, *np.searchsorted(tr.times, [0.05, 0.1]).tolist()]
        assert [first for first, _ in tr.segments] == starts
        for (_, gains), want in zip(tr.segments, stacks):
            assert gains.tobytes() == np.array(want).tobytes()
        x = tr.table[:, 1:].reshape(-1, 2, 3)
        u = np.column_stack([tr.column(i, "u") for i in tr.ids])
        for (first, gains), end in zip(tr.segments,
                                       [*starts[1:], len(tr.times)]):
            for row in range(first, end):
                want = np.einsum("ij,tij->ti", gains, x[row:row + 1])
                assert u[row].tobytes() == want[0].tobytes()
        assert np.isnan(u[starts[1]:starts[2], 1]).all()
        assert np.isfinite(np.delete(u, np.s_[starts[1]:starts[2]], 0)).all()
        for k, i in enumerate(tr.ids):
            assert tr.series[i][:, 3].tobytes() == u[:, k].tobytes()
        # the CSV is _write_rows of the rows assembled from them
        rows = np.column_stack([tr.times, x[:, 0], u[:, 0], x[:, 1],
                                u[:, 1]])
        body = io.BytesIO()
        simulate_module._write_rows(body, rows)
        trajectory_to_csv(tr, tmp_path / "run.csv")
        written = (tmp_path / "run.csv").read_bytes().split(b"\r\n", 1)[1]
        assert written == body.getvalue()

    @pytest.mark.parametrize("t_end", [0.01, 0.0123456])
    @pytest.mark.parametrize("ratio", [0.1, 4.0])
    @pytest.mark.parametrize("offset", [None, 0.0, 1e-11, -1e-11])
    def test_samples_fit_the_allocation(self, pair, t_end, ratio, offset):
        # events off the record grid (None), on it, or 1e-11 s off a
        # record point, a tie among them, the first one record step in
        # and the last one record step before t_end
        top, ctrls = pair
        dt = 1e-5
        record_dt = dt / ratio
        marks = (1, 21, 21, 57, round(t_end / record_dt) - 1)
        times = [k * record_dt + (offset if offset is not None
                                  else 0.37 * record_dt) for k in marks]
        events = tuple(RefStep(t, 1 + k % 2, 48.0 + k / 100)
                       for k, t in enumerate(times))
        tr = simulate(Scenario(top, 10.0, events=events, t_end=t_end, dt=dt,
                               record_dt=record_dt), ctrls)
        assert tr.diverged is None
        # simulate()'s bound: ceil(t_end / (per dt)) - 1 slots, one sample
        # after each of at most len(events) + 1 runs and the one at t = 0;
        # it is tight, as each event time and t_end takes at most one
        # slot's place and only ties take fewer runs
        per = max(1, round(record_dt / dt))
        bound = math.ceil(t_end / (per * dt)) + len(events) + 1
        assert bound - len(events) - 1 <= len(tr.times) <= bound
        owner = table_owner(tr.table)
        assert owner.shape == (bound, 7) and owner is not tr.table


class TestMemory:
    # tracemalloc peak of this call before sample times were held as
    # arrays, one stretch each: a list of 160,001 floats took 5 MB
    PEAK_BEFORE = 58_506_061

    def test_packaged_run_peak(self):
        from gridforge import cli
        scenario = cli.load_scenario(cli.packaged_scenario_path())
        ctrls = synthesize_all(scenario.initial_topology,
                               scenario.synthesis_config())
        tracemalloc.start()
        try:
            tr = simulate(scenario, ctrls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr.times) == 160001
        assert peak <= self.PEAK_BEFORE

    @pytest.mark.parametrize("line_model", [QSL, RL])
    def test_packaged_run_holds_one_table(self, line_model):
        # each sample is written once, straight into the table of t and
        # each unit's (V, It, v), u derived on reading: the peak is the
        # table and the stepping's blocks and stacks, 0.7-0.8 MB, where
        # keeping each checked stretch too took 22.5 MB more
        from gridforge import cli
        scenario = dataclasses.replace(
            cli.load_scenario(cli.packaged_scenario_path()),
            line_model=line_model)
        ctrls = synthesize_all(scenario.initial_topology,
                               scenario.synthesis_config())
        tracemalloc.start()
        try:
            tr = simulate(scenario, ctrls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.table.shape == (160001, 19)
        assert peak <= tr.table.nbytes + 2 * 2**20
