"""Parameter-box sweep: statuses, determinism, artifacts."""

import itertools
import json
import math

import numpy as np
import pytest

from gridforge import sweep as sw
from gridforge.sweep import GREEN_BOX, SweepGrid, run_sweep
from gridforge.synthesis import (NumericalFailure, SynthesisConfig,
                                 check_local_stacks, synthesize)
from test_synthesis import in_design_set

# 2x2x2 corners strictly inside the default box keep the suite quick
SMALL = SweepGrid(r_t=(0.1, 0.8), l_t=(2e-3, 8e-3), c_t=(1.5e-3, 4e-3),
                  points=2)


def solve_point(r_t, l_t, c_t, cfg):
    """One point on its own: the row `run_sweep` gives it in any batch."""
    unit = sw._unit(r_t, l_t, c_t)
    if isinstance(unit, sw.SweepPoint):
        return unit
    try:
        outcome = synthesize(*unit, cfg)
    except NumericalFailure as exc:
        outcome = exc
    return sw._row(r_t, l_t, c_t, outcome)


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(SMALL)


class TestGrid:
    def test_default_box(self):
        assert GREEN_BOX.r_t == (0.05, 1.0)
        assert GREEN_BOX.l_t == (1e-3, 10e-3)
        assert GREEN_BOX.c_t == (1e-3, 5e-3)
        assert GREEN_BOX.points == 5

    def test_axes_hit_the_corners(self):
        r, l, c = SMALL.axes()
        assert r[0] == 0.1 and r[-1] == 0.8
        assert len(l) == 2 and c[-1] == 4e-3

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            SweepGrid(r_t=(1.0, 0.05))

    def test_points_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            SweepGrid(points=0)
        with pytest.raises(ValueError):
            SweepGrid(points=2.5)


class TestRunSweep:
    def test_box_fully_feasible(self, small_result):
        assert small_result.summary() == {
            "total": 8, "feasible": 8, "infeasible": 0, "failures": 0}

    def test_table_follows_product_order(self, small_result):
        coords = [(p.r_t, p.l_t, p.c_t) for p in small_result.points]
        assert coords == list(itertools.product(
            *(ax.tolist() for ax in SMALL.axes())))

    def test_feasible_rows_carry_margin_and_gain(self, small_result):
        for pt in small_result.points:
            assert pt.min_margin > -1e-8
            assert pt.k3 > 0.0
            assert pt.controller is not None

    def test_feasible_controllers_are_certified(self, small_result):
        for pt in small_result.feasible_points():
            ctrl = pt.controller
            assert check_local_stacks(ctrl.q_local[None],
                                      ctrl.p[None])["passed"][0]
            gain = np.linalg.norm(pt.controller.k, 2)
            assert gain < pt.controller.norm_bound()

    def test_grants_lie_inside_the_design_set(self, small_result):
        for pt in small_result.feasible_points():
            assert in_design_set(pt.controller.k, pt.r_t, pt.l_t)

    def test_rerun_is_identical(self, small_result):
        again = run_sweep(SMALL)
        assert again.points == small_result.points

    def test_batched_run_matches_serial(self, small_result):
        # the batch table equals point-by-point solves in product order
        cfg = SynthesisConfig(sigma_bar=10.0)
        coords = itertools.product(*(ax.tolist() for ax in SMALL.axes()))
        serial = [solve_point(*coord, cfg) for coord in coords]
        assert list(small_result.points) == serial
        for got, want in zip(small_result.points, serial):
            np.testing.assert_array_equal(got.controller.k, want.controller.k)
            np.testing.assert_array_equal(got.controller.p, want.controller.p)

    def test_zero_resistance_recorded_not_raised(self):
        res = run_sweep(SweepGrid(r_t=(0.0, 0.0), l_t=(2e-3, 2e-3),
                                  c_t=(2e-3, 2e-3), points=1))
        (pt,) = res.points
        assert pt.status == sw.INVALID
        assert "r_t" in pt.detail
        assert math.isnan(pt.min_margin) and math.isnan(pt.k3)
        assert res.summary()["failures"] == 1

    def test_oversized_capacitance_denied(self):
        res = run_sweep(SweepGrid(r_t=(0.1, 0.1), l_t=(2e-3, 2e-3),
                                  c_t=(1e6, 1e6), points=1))
        (pt,) = res.points
        assert pt.status == sw.DENIED
        assert pt.detail != ""
        assert res.summary() == {
            "total": 1, "feasible": 0, "infeasible": 1, "failures": 0}

    def test_solver_breakdown_is_a_row_not_an_abort(self, monkeypatch):
        real = sw.synthesize_batch
        bad = SMALL.axes()[0][0]

        def flaky(units, cfg):
            return [NumericalFailure("injected") if params.r_t == bad
                    else outcome for (_, params), outcome
                    in zip(units, real(units, cfg))]

        monkeypatch.setattr(sw, "synthesize_batch", flaky)
        res = run_sweep(SMALL)
        failed = [p for p in res.points if p.status == sw.FAILED]
        assert len(failed) == 4
        assert all(p.detail == "injected" for p in failed)
        assert res.summary()["feasible"] == 4

    def test_solver_status_and_iterations_pinned(self, small_result):
        # every SMALL point spends the whole 400-iteration budget and ends
        # Feasible, split between the phases as below
        phases = [(100, 300), (101, 299), (99, 301), (100, 300),
                  (100, 300), (100, 300), (99, 301), (100, 300)]
        got = [pt.controller.raw["solver"] for pt in small_result.points]
        assert [g["status"] for g in got] == ["Feasible"] * 8
        assert [(g["iterations_phase1"], g["iterations_phase2"])
                for g in got] == phases


class TestArtifacts:
    def test_csv_shape_and_values(self, small_result):
        text = sw.sweep_to_csv(small_result)
        lines = text.strip().split("\n")
        assert lines[0] == "r_t,l_t,c_t,status,min_margin,k3"
        assert len(lines) == 1 + 8
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.1
        assert cells[3] == sw.FEASIBLE
        assert float(cells[4]) == small_result.points[0].min_margin

    def test_csv_nan_for_refused_point(self):
        res = run_sweep(SweepGrid(r_t=(0.1, 0.1), l_t=(2e-3, 2e-3),
                                  c_t=(1e6, 1e6), points=1))
        row = sw.sweep_to_csv(res).strip().split("\n")[1]
        assert row.split(",")[4] == "nan"

    def test_csv_file_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        sw.write_sweep_csv(small_result, str(path))
        data = np.genfromtxt(path, delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert data.shape == (8,)
        assert all(data["status"] == sw.FEASIBLE)

    def test_summary_json(self, small_result):
        payload = json.loads(sw.summary_json(small_result))
        assert payload == {"total": 8, "feasible": 8,
                           "infeasible": 0, "failures": 0}
