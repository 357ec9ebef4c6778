import dataclasses
import os
import pickle
import types

import numpy as np
import pytest

import gridforge.synthesis as synth
import test_simulate
from gridforge.cli import controller_to_json
from gridforge.lmi import MAX_ITER, LmiSolution
from gridforge.model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    augmented_dgu,
)
from gridforge.synthesis import (
    Denied,
    LocalController,
    NumericalFailure,
    SynthesisConfig,
    assemble_problem,
    synthesize,
    synthesize_all,
    synthesize_batch,
    verify_k1_identity,
)


def dgu(r_t=0.1, l_t=1.8e-3, c_t=2.2e-3):
    return DguParams(r_t, l_t, c_t, LoadModel.constant_current(0.0), 48.0)


def in_design_set(k, r_t, l_t):
    """k1 < 1, k2 < R_t and 0 < k3 < (k1 - 1)(k2 - R_t)/L_t, strictly."""
    k1, k2, k3 = k
    return bool(k1 < 1.0 and k2 < r_t
                and 0.0 < k3 < (k1 - 1.0) * (k2 - r_t) / l_t)


CFG = SynthesisConfig(10.0)


@pytest.fixture(scope="module")
def table_controller():
    p = dgu()
    out = synthesize(augmented_dgu(p), p, CFG)
    assert isinstance(out, LocalController)
    return p, out


class TestAssemble:
    def test_variable_and_block_counts(self):
        p = dgu()
        prog = assemble_problem(augmented_dgu(p), p, CFG)
        assert prog.num_vars == 11
        assert len(prog.blocks) == 8
        sizes = sorted(b.size for b in prog.blocks)
        assert sizes == [1, 1, 1, 1, 1, 4, 6, 6]

    def test_pinned_y_entry(self):
        p = dgu(c_t=2.2e-3)
        prog = assemble_problem(augmented_dgu(p), p, CFG)
        conditioning = prog.blocks[2]
        assert conditioning.constant[0, 0] == pytest.approx(45.4545454545, rel=1e-10)
        # pinned entries never move with any variable
        for f in conditioning.coeffs:
            assert f[0, 0] == 0.0 and f[0, 1] == 0.0 and f[0, 2] == 0.0

    def test_eta_scales_with_capacitance(self):
        p_small = dgu(c_t=2.2e-3)
        p_big = dgu(c_t=2.2e-2)
        y_small = assemble_problem(augmented_dgu(p_small), p_small, CFG)
        y_big = assemble_problem(augmented_dgu(p_big), p_big, CFG)
        ratio = y_small.blocks[2].constant[0, 0] / y_big.blocks[2].constant[0, 0]
        assert ratio == pytest.approx(10.0, rel=1e-12)

    def test_objective_weights(self):
        cfg = SynthesisConfig(10.0, (1.0, 2.0, 3.0, 4.0, 5.0))
        p = dgu()
        prog = assemble_problem(augmented_dgu(p), p, cfg)
        np.testing.assert_array_equal(prog.objective[:6], 0.0)
        np.testing.assert_array_equal(prog.objective[6:], [1, 2, 3, 4, 5])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sigma_bar"):
            SynthesisConfig(0.0)
        with pytest.raises(ValueError, match="alphas"):
            SynthesisConfig(10.0, (1e-4, 1e-4, 1e-4, 0.0, 1e-2))


class TestSynthesize:
    def test_invariants_hold(self, table_controller):
        p, ctrl = table_controller
        eta = 10.0 * p.c_t
        assert ctrl.eta == pytest.approx(eta, rel=1e-12)
        assert ctrl.p[0, 0] == pytest.approx(eta, rel=1e-12)
        assert ctrl.p[0, 1] == 0.0 and ctrl.p[0, 2] == 0.0
        w_p = np.linalg.eigvalsh(ctrl.p)
        assert w_p[0] > 0.0
        q = ctrl.q_local
        w_q = np.linalg.eigvalsh(0.5 * (q + q.T))
        assert w_q[-1] <= 1e-8 * (1.0 + np.linalg.norm(q))
        assert np.max(np.abs(q[0])) <= 1e-8 * np.linalg.norm(q)
        assert np.max(np.abs(q[:, 0])) <= 1e-8 * np.linalg.norm(q)

    def test_tail_null_direction(self, table_controller):
        _, ctrl = table_controller
        q_tail = ctrl.q_local[1:, 1:]
        resid = q_tail @ np.array([1.0, ctrl.delta])
        assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(q_tail)
        assert abs(ctrl.p[1, 1] + ctrl.delta * ctrl.p[1, 2]) <= 1e-6 * ctrl.p[1, 1]

    def test_gain_norm_bound(self, table_controller):
        _, ctrl = table_controller
        assert np.linalg.norm(ctrl.k) < ctrl.norm_bound()

    def test_delta_definition(self, table_controller):
        p, ctrl = table_controller
        assert ctrl.delta == pytest.approx(-(ctrl.k[1] - p.r_t) / ctrl.k[2])

    def test_line_independence_is_bitwise(self):
        dgus = {1: dgu(0.1), 2: dgu(0.2, 1.7e-3, 2.0e-3),
                3: dgu(0.3, 2.5e-3, 1.9e-3), 4: dgu(0.5)}
        lines = (LineParams(1, 2, 0.05, 1.8e-6), LineParams(2, 3, 0.08),
                 LineParams(3, 4, 0.06), LineParams(4, 1, 0.07),
                 LineParams(1, 3, 0.04))
        wired = synthesize_all(MicrogridTopology(dgus, lines), CFG)
        bare = synthesize_all(MicrogridTopology(dgus, ()), CFG)
        for dgu_id in dgus:
            np.testing.assert_array_equal(bare[dgu_id].k, wired[dgu_id].k)
            np.testing.assert_array_equal(bare[dgu_id].p, wired[dgu_id].p)
            np.testing.assert_array_equal(bare[dgu_id].q_local,
                                          wired[dgu_id].q_local)

    @pytest.mark.parametrize("r_t,l_t,c_t", [
        (0.05, 1e-3, 1e-3),
        (1.0, 1e-2, 5e-3),
        (0.3, 3e-3, 2e-3),
    ])
    def test_box_samples_never_denied(self, r_t, l_t, c_t):
        p = dgu(r_t, l_t, c_t)
        out = synthesize(augmented_dgu(p), p, CFG)
        assert isinstance(out, LocalController)

    def test_oversized_capacitance_denied(self):
        p = dgu(c_t=1e6)
        out = synthesize(augmented_dgu(p), p, CFG)
        assert isinstance(out, Denied)
        assert "infeasible" in out.reason

    def test_k3_gate(self, monkeypatch):
        # a solution crafted so g·Y^-1 has zero third entry trips the gate
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 4.0, 10.0])
        fake = LmiSolution("Optimal", x, 0.0, np.ones(8))
        monkeypatch.setattr(synth, "solve_batch",
                            lambda progs: [fake for _ in progs])
        p = dgu()
        out = synthesize(augmented_dgu(p), p, CFG)
        assert isinstance(out, Denied)
        assert "k3" in out.reason

    def test_grant_lies_inside_the_design_set(self, table_controller):
        params, ctrl = table_controller
        assert in_design_set(ctrl.k, params.r_t, params.l_t)

    def test_negative_k3_is_outside_the_design_set(self, monkeypatch):
        # Y's trailing block is I, so k = (g1 eta, g2, g3) = (0, 0, -1):
        # |k3| is far above the k3 gate, but no structured P exists
        x = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0, 1.0, 1.0, 4.0, 10.0])
        fake = LmiSolution("Optimal", x, 0.0, np.ones(8))
        monkeypatch.setattr(synth, "solve_batch",
                            lambda progs: [fake for _ in progs])
        p = dgu()
        with pytest.raises(NumericalFailure, match=r"^extracted controller "
                           r"invalid: gain outside the local design set$"):
            synthesize(augmented_dgu(p), p, CFG)

    def test_tiny_filter_gain_is_outside_the_design_set(self):
        # the solver stops Feasible at this point with k3 < 0
        p = dgu(r_t=1e-3, l_t=1e-5, c_t=1e-5)
        with pytest.raises(NumericalFailure, match=r"^extracted controller "
                           r"invalid: gain outside the local design set$"):
            synthesize(augmented_dgu(p), p, CFG)

    def test_solver_breakdown_raises(self, monkeypatch):
        fake = LmiSolution("NumericalFailure", None, None, None)
        monkeypatch.setattr(synth, "solve_batch",
                            lambda progs: [fake for _ in progs])
        p = dgu()
        with pytest.raises(NumericalFailure):
            synthesize(augmented_dgu(p), p, CFG)

    def test_invalid_extraction_is_a_breakdown(self, monkeypatch):
        # beta = 0 leaves the gain above its norm cap sqrt(beta) * zeta
        real = synth.solve_batch

        def no_beta(progs):
            (sol,) = real(progs)
            x = sol.x.copy()
            x[9] = 0.0
            return [dataclasses.replace(sol, x=x)]

        monkeypatch.setattr(synth, "solve_batch", no_beta)
        p = dgu()
        with pytest.raises(NumericalFailure, match=r"^extracted controller "
                           r"invalid: gain norm bound violated$"):
            synthesize(augmented_dgu(p), p, CFG)

    def test_solver_diagnostics_in_raw(self, table_controller):
        _, ctrl = table_controller
        solver = ctrl.raw["solver"]
        assert solver["status"] in ("Optimal", "Feasible")
        assert solver["iterations_phase1"] > 0
        assert solver["iterations_phase2"] >= 0
        assert (solver["iterations_phase1"] + solver["iterations_phase2"]
                <= MAX_ITER)


def doctored(ctrl, target):
    """_verify_invariants' arguments for a granted design, changed so that
    only the check that returns `target` fails (None: unchanged)."""
    k, p, q = ctrl.k.copy(), ctrl.p.copy(), ctrl.q_local.copy()
    delta, raw = ctrl.delta, dict(ctrl.raw)
    if target == "p not positive definite":
        p[1:, 1:] *= -1.0
    elif target == "q_local not negative semidefinite":
        q *= -1.0
    elif target == "q_local first row not zero":
        q[0, 0] = -1e-6 * np.linalg.norm(q)  # still semidefinite
    elif target == "local certificate check failed":
        # a first column off q_tail's kernel: still semidefinite
        off_kernel = np.array([delta, -1.0]) / np.hypot(1.0, delta)
        q[1:, 0] = 1e-6 * np.linalg.norm(q) * off_kernel
    elif target == "q_tail does not annihilate [1, delta]":
        q[1, 1] -= 1e-3 * np.linalg.norm(q)  # still semidefinite
    elif target == "p22 = -delta*p23 violated":
        p[1, 1] *= 1.01  # still positive definite
    elif target == "gain norm bound violated":
        raw["beta"] = 0.0
    return k, p, q, delta, raw


class TestVerifyInvariants:
    # in the order the checks run
    @pytest.mark.parametrize("target", [
        None,
        "p not positive definite",
        "q_local not negative semidefinite",
        "q_local first row not zero",
        "local certificate check failed",
        "q_tail does not annihilate [1, delta]",
        "p22 = -delta*p23 violated",
        "gain norm bound violated",
    ])
    def test_each_check_refuses_its_own_fault(self, table_controller,
                                              target):
        _, ctrl = table_controller
        assert synth._verify_invariants(*doctored(ctrl, target)) == target


class TestLocalController:
    def test_pickle_round_trips_bit_for_bit(self, table_controller):
        # forked synthesis ranges send their verdicts back pickled
        _, ctrl = table_controller
        back = pickle.loads(pickle.dumps(ctrl))
        for name in ("k", "p", "q_local"):
            assert getattr(back, name).tobytes() == getattr(ctrl,
                                                             name).tobytes()
            assert not getattr(back, name).flags.writeable
        assert (back.eta, back.delta, back.sigma_bar, back.params) == (
            ctrl.eta, ctrl.delta, ctrl.sigma_bar, ctrl.params)
        assert back.raw["solver"] == ctrl.raw["solver"]

    @pytest.mark.parametrize("name", ["p", "eta", "delta", "q_local"])
    def test_derived_fields_are_not_set(self, table_controller, name):
        # they follow from (k, params, sigma_bar); a new gain re-derives
        _, ctrl = table_controller
        with pytest.raises((TypeError, ValueError)):
            dataclasses.replace(ctrl, **{name: getattr(ctrl, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctrl, name, getattr(ctrl, name))
        half_k3 = dataclasses.replace(ctrl, k=ctrl.k * [1.0, 1.0, 0.5])
        assert half_k3.delta == pytest.approx(2.0 * ctrl.delta, rel=1e-15)

    def test_gain_outside_the_set_is_refused(self, table_controller):
        params, ctrl = table_controller
        with pytest.raises(ValueError, match="^gain outside the local design "
                           "set: k3 = .* is not positive$"):
            LocalController(ctrl.k * [1.0, 1.0, -1.0], {}, params, 10.0)


class TestSynthesizeBatch:
    def test_breakdown_is_returned_for_its_unit_only(self, monkeypatch):
        real = synth.solve_batch
        units = [(augmented_dgu(p), p) for p in (dgu(0.1), dgu(0.3))]
        whole = synthesize_batch(units, CFG)

        def second_breaks(progs):
            sols = real(progs)
            return sols[:1] + [LmiSolution("NumericalFailure", None, None,
                                           None)]

        monkeypatch.setattr(synth, "solve_batch", second_breaks)
        first, second = synthesize_batch(units, CFG)
        assert isinstance(second, NumericalFailure)
        np.testing.assert_array_equal(first.k, whole[0].k)
        np.testing.assert_array_equal(first.p, whole[0].p)

    def test_lockstep_batches_change_no_verdict(self, monkeypatch):
        units = [(augmented_dgu(p), p)
                 for p in (dgu(0.1 + 0.1 * i) for i in range(5))]
        whole = synthesize_batch(units, CFG)
        monkeypatch.setattr(synth, "_LOCKSTEP_UNITS", 2)
        split = synthesize_batch(units, CFG)
        for a, b in zip(whole, split):
            np.testing.assert_array_equal(a.k, b.k)
            np.testing.assert_array_equal(a.p, b.p)
            assert a.raw["solver"] == b.raw["solver"]

    def test_verdicts_follow_unit_order(self):
        units = [(augmented_dgu(p), p) for p in (dgu(c_t=1e6), dgu())]
        denied, granted = synthesize_batch(units, CFG)
        assert isinstance(denied, Denied)
        assert isinstance(granted, LocalController)
        assert synthesize_batch([], CFG) == []

    def test_synthesize_all_raises_first_breakdown(self, monkeypatch):
        fake = LmiSolution("NumericalFailure", None, None, None)
        monkeypatch.setattr(synth, "solve_batch",
                            lambda progs: [fake for _ in progs])
        with pytest.raises(NumericalFailure):
            synthesize_all(TestSynthesizeAll().topology(2), CFG)


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork call."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRanges:
    """With two CPUs, 65 units (three lockstep batches) go to two ranges:
    units 0-31 solved here, 32-64 in one forked process."""

    @pytest.fixture(scope="class")
    def units(self):
        return [(augmented_dgu(p), p)
                for p in (dgu(r, l) for r in np.linspace(0.05, 1.0, 13)
                          for l in (1e-3, 3e-3, 5.5e-3, 8e-3, 1e-2))]

    @pytest.fixture(scope="class")
    def one_range(self, units):
        with pytest.MonkeyPatch.context() as mp:
            on_cpus(mp, 1)
            forks = count_forks(mp)
            verdicts = synthesize_batch(units, CFG)
        assert forks == []
        return verdicts

    def test_verdicts_are_bitwise_those_of_one_range(self, units, one_range,
                                                     monkeypatch):
        on_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        # wake the BLAS thread pool before the fork
        a = np.full((1500, 1500), 1e-3)
        assert np.isfinite(a @ a).all()
        verdicts = synthesize_batch(units, CFG)
        test_simulate.TestArtifacts.assert_no_child_left()
        assert len(forks) == 1 and len(verdicts) == len(units) == 65
        for a, b in zip(one_range, verdicts):
            assert isinstance(a, LocalController)
            assert isinstance(b, LocalController)
            for name in ("k", "p", "q_local"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name))
                assert not getattr(b, name).flags.writeable
            assert (a.eta, a.delta) == (b.eta, b.delta)
            assert a.raw.keys() == b.raw.keys()
            for key in ("y", "g", "gamma", "margins"):
                np.testing.assert_array_equal(a.raw[key], b.raw[key])
            for key in ("beta", "zeta", "solver"):
                assert a.raw[key] == b.raw[key]

    @pytest.mark.parametrize("error", [
        ValueError("unit 40 is bad"),
        np.linalg.LinAlgError("Singular matrix")])
    def test_an_error_in_a_forked_range_reaches_the_caller(
            self, units, monkeypatch, error):
        on_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        real, bad = synth.assemble_problem, units[40][1]

        def fail_on_unit_40(dgu, params, cfg):
            if params is bad:
                raise error
            return real(dgu, params, cfg)

        monkeypatch.setattr(synth, "assemble_problem", fail_on_unit_40)
        with pytest.raises(type(error)) as raised:
            synthesize_batch(units, CFG)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        assert len(forks) == 1
        test_simulate.TestArtifacts.assert_no_child_left()

    def test_a_dying_worker_raises(self, units, monkeypatch):
        on_cpus(monkeypatch, 2)
        parent, real = os.getpid(), synth._solve_range

        def die_in_the_child(units, cfg):
            if os.getpid() != parent:
                os._exit(3)
            return real(units, cfg)

        monkeypatch.setattr(synth, "_solve_range", die_in_the_child)
        with pytest.raises(RuntimeError, match="failed with status 3"):
            synthesize_batch(units, CFG)
        test_simulate.TestArtifacts.assert_no_child_left()

    def test_one_batch_forks_nothing(self, units, monkeypatch):
        on_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        fake = LmiSolution("NumericalFailure", None, None, None)
        monkeypatch.setattr(synth, "solve_batch",
                            lambda progs: [fake for _ in progs])
        verdicts = synthesize_batch(units[:synth._LOCKSTEP_UNITS], CFG)
        assert len(verdicts) == 32 and forks == []
        assert len(synthesize_batch(units[:33], CFG)) == 33
        assert len(forks) == 1


class TestK1Identity:
    def test_synthesized_residual_small(self, table_controller):
        p, ctrl = table_controller
        res = verify_k1_identity(ctrl, p, CFG)
        assert res <= 1e-6 * (1.0 + abs(ctrl.k[0]))

    # a LocalController's p and delta are its gain's closed form, so the
    # faults go in through a stand-in with the fields the identity reads
    def test_violating_p_gives_large_residual(self, table_controller):
        p, ctrl = table_controller
        bad_p = np.array(ctrl.p)
        bad_p[1, 1] *= 3.0  # breaks the q12 = 0 equality
        bad = types.SimpleNamespace(k=ctrl.k, p=bad_p, delta=ctrl.delta)
        res = verify_k1_identity(bad, p, CFG)
        assert res > 1e-3 * (1.0 + abs(ctrl.k[0]))


class TestSynthesizeAll:
    def topology(self, n):
        dgus = {i: dgu(0.1 + 0.05 * i, 2e-3, 2.2e-3) for i in range(1, n + 1)}
        lines = tuple(LineParams(i, i + 1, 0.05) for i in range(1, n))
        return MicrogridTopology(dgus, lines)

    def test_matches_sequential(self):
        top = self.topology(6)
        result = synthesize_all(top, CFG)
        assert list(result) == list(top.ids)
        for dgu_id, ctrl in result.items():
            params = top.dgus[dgu_id]
            single = synthesize(augmented_dgu(params), params, CFG)
            np.testing.assert_array_equal(ctrl.k, single.k)
            np.testing.assert_array_equal(ctrl.p, single.p)
            np.testing.assert_array_equal(ctrl.q_local, single.q_local)
            assert ctrl.delta == single.delta

    @staticmethod
    def spy_on_programs(monkeypatch):
        """A list that gets each program solve_batch is given."""
        real, programs = synth.solve_batch, []

        def spy(progs):
            progs = list(progs)
            programs.extend(progs)
            return real(progs)

        monkeypatch.setattr(synth, "solve_batch", spy)
        return programs

    def test_one_solve_per_distinct_unit(self, monkeypatch):
        # 40 units of 4 types (R_t, L_t, C_t), each with its own load and
        # reference: 4 programs are solved, and each unit's verdict is the
        # one per-unit synthesis gives it, bit for bit, with its own params
        types = [dgu(0.1, 1.8e-3, 2.2e-3), dgu(0.2, 1.7e-3, 2.0e-3),
                 dgu(0.3, 2.5e-3, 1.9e-3), dgu(0.05, 4e-3, 3.5e-3)]
        dgus = {i: dataclasses.replace(types[i % 4], v_ref=47.0 + i / 10,
                                       load=LoadModel.resistive(5.0 + i))
                for i in range(1, 41)}
        top = MicrogridTopology(dgus, tuple(LineParams(i, i + 1, 0.05)
                                            for i in range(1, 40)))
        programs = self.spy_on_programs(monkeypatch)
        result = synthesize_all(top, CFG)
        assert len(programs) == 4
        monkeypatch.undo()
        for dgu_id, ctrl in result.items():
            params = top.dgus[dgu_id]
            single = synthesize(augmented_dgu(params), params, CFG)
            assert ctrl.params is params
            for name in ("k", "p", "q_local"):
                assert (getattr(ctrl, name).tobytes()
                        == getattr(single, name).tobytes())
                assert not getattr(ctrl, name).flags.writeable
            assert (ctrl.eta, ctrl.delta) == (single.eta, single.delta)
            assert ctrl.raw.keys() == single.raw.keys()
            for key in ("y", "g", "gamma", "margins"):
                assert ctrl.raw[key].tobytes() == single.raw[key].tobytes()
            for key in ("beta", "zeta", "solver"):
                assert ctrl.raw[key] == single.raw[key]

    def test_a_shared_denial(self, monkeypatch):
        units = [(augmented_dgu(p), p)
                 for p in (dgu(c_t=1e6), dgu(), dgu(c_t=1e6))]
        programs = self.spy_on_programs(monkeypatch)
        verdicts = synthesize_batch(units, CFG)
        assert len(programs) == 2
        assert verdicts[0] == verdicts[2] == Denied("local LMI infeasible")
        assert isinstance(verdicts[1], LocalController)

    def test_small_grid_sequential_path(self):
        top = self.topology(2)
        result = synthesize_all(top, CFG)
        assert all(isinstance(c, LocalController) for c in result.values())


class TestExport:
    def test_json_round_trip_fields(self, table_controller):
        p, ctrl = table_controller
        doc = controller_to_json(3, ctrl)
        assert doc["dgu_id"] == 3
        # sigma_bar is the bundle header's, written once
        assert "sigma_bar" not in doc
        # P, eta and delta are the gain's closed form, not written
        assert set(doc) == {"dgu_id", "K", "diagnostics"}
        assert len(doc["K"]) == 3
        assert doc["diagnostics"]["gain_norm"] < doc["diagnostics"]["gain_norm_bound"]
        assert doc["diagnostics"]["solver"] == ctrl.raw["solver"]

    def test_json_without_solver_diagnostics(self, table_controller):
        _, ctrl = table_controller
        raw = {k: v for k, v in ctrl.raw.items() if k != "solver"}
        bare = LocalController(ctrl.k, raw, ctrl.params, ctrl.sigma_bar)
        assert "solver" not in controller_to_json(3, bare)["diagnostics"]
