import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforge.model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    TopologyError,
    assemble_global,
    augmented_dgu,
    closed_loop,
    closed_loop_blocks,
    controllability_matrix,
)


def dgu(r_t=0.1, l_t=1.8e-3, c_t=2.2e-3, v_ref=48.0, load=None):
    return DguParams(r_t, l_t, c_t, load or LoadModel.constant_current(0.0), v_ref)


def two_dgu_topology():
    dgus = {
        1: dgu(0.1, 1.8e-3, 2.2e-3),
        2: dgu(0.2, 1.7e-3, 2.0e-3),
    }
    return MicrogridTopology(dgus, (LineParams(1, 2, 0.05, 1.8e-6),))


params_strategy = st.builds(
    dgu,
    r_t=st.floats(0.01, 10.0),
    l_t=st.floats(1e-4, 1e-1),
    c_t=st.floats(1e-4, 1e-1),
    v_ref=st.floats(1.0, 400.0),
)


class TestValidation:
    def test_rejects_nonpositive_filter_params(self):
        with pytest.raises(ValueError, match="r_t must be positive"):
            dgu(r_t=0.0)
        with pytest.raises(ValueError, match="l_t must be positive"):
            dgu(l_t=-1e-3)
        with pytest.raises(ValueError, match="c_t must be positive"):
            dgu(c_t=float("nan"))

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError, match="r must be positive"):
            LineParams(1, 2, 0.0)
        with pytest.raises(ValueError, match="endpoints must differ"):
            LineParams(3, 3, 0.05)

    def test_load_models(self):
        with pytest.raises(ValueError, match="r_l must be positive"):
            LoadModel.resistive(-1.0)
        with pytest.raises(ValueError, match="unknown load kind"):
            LoadModel("impedance", 1.0)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: LoadModel.constant_current(float("inf")), ValueError,
         "i_l must be finite"),
        (lambda: dgu(v_ref=-1.0), ValueError, "v_ref must be nonnegative"),
        (lambda: two_dgu_topology().replace_params(3, dgu()), TopologyError,
         "unknown DGU 3"),
        # a non-number is a caller's type error, not a bad value
        (lambda: dgu(r_t="1"), TypeError, "must be real number, not str"),
        (lambda: LoadModel("current", "1"), TypeError,
         "must be real number, not str"),
        (lambda: dgu(v_ref=None), TypeError,
         "must be real number, not NoneType"),
    ], ids=["non-finite-current", "negative-v-ref", "replace-unknown-dgu",
            "string-r-t", "string-current", "null-v-ref"])
    def test_input_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build()

    def test_topology_rejects_dangling_and_duplicate_lines(self):
        dgus = {1: dgu(), 2: dgu()}
        with pytest.raises(TopologyError, match="missing DGU"):
            MicrogridTopology(dgus, (LineParams(1, 3, 0.05),))
        with pytest.raises(TopologyError, match="duplicate line"):
            MicrogridTopology(
                dgus, (LineParams(1, 2, 0.05), LineParams(2, 1, 0.07))
            )


class TestDguMatrices:
    def test_reference_values(self):
        hat = augmented_dgu(dgu())
        np.testing.assert_allclose(
            hat.a_hat_ii[:2, :2],
            [[0.0, 454.5454545454545], [-555.5555555555555, -55.55555555555556]],
            rtol=1e-12,
        )
        np.testing.assert_allclose(hat.b_hat[:2], [[0.0], [555.5555555555555]],
                                   rtol=1e-12)
        np.testing.assert_allclose(hat.m_hat[:2, :1], [[-454.5454545454545], [0.0]],
                                   rtol=1e-12)
        np.testing.assert_allclose(hat.h_hat[:, :2], [[1.0, 0.0]])
        # the local block itself carries no line term
        assert hat.a_hat_ii[0, 0] == 0.0

    @given(params_strategy)
    @settings(max_examples=50, deadline=None)
    def test_augmented_pair_is_controllable(self, p):
        hat = augmented_dgu(p)
        ctrb = controllability_matrix(hat.a_hat_ii, hat.b_hat)
        assert np.linalg.matrix_rank(ctrb) == 3

    def test_integrator_row(self):
        hat = augmented_dgu(dgu())
        np.testing.assert_array_equal(hat.a_hat_ii[2], [-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(hat.b_hat[:, 0], [0.0, 555.5555555555555, 0.0])
        # disturbance columns: load current into V', reference into v'
        np.testing.assert_allclose(hat.m_hat[:, 0], [-454.5454545454545, 0.0, 0.0])
        np.testing.assert_array_equal(hat.m_hat[:, 1], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(hat.h_hat, [[1.0, 0.0, 0.0]])


def zero_gains(system):
    return {dgu_id: np.zeros(3) for dgu_id in system.ids}


def coupling(system):
    """The dense QSL line part of the grid: each unit's self term on its
    voltage diagonal, the line conductances between voltage slots."""
    stamp = np.zeros_like(system.unit_a)
    stamp[:, 0, 0] = system.self_terms
    return system.expand(stamp)


class TestGlobalAssembly:
    def test_two_dgu_split(self):
        g = assemble_global(two_dgu_topology())
        assert g.ids == (1, 2)
        np.testing.assert_allclose(g.self_terms,
                                   [-9090.909090909092, -10000.0], rtol=1e-12)
        np.testing.assert_array_equal(g.line_i, [0])
        np.testing.assert_array_equal(g.line_j, [1])
        np.testing.assert_allclose(g.g_i, [9090.909090909092], rtol=1e-12)
        np.testing.assert_allclose(g.g_j, [10000.0], rtol=1e-12)
        # the line part touches nothing but the voltage rows
        c = coupling(g)
        assert np.all(c[1:3] == 0.0) and np.all(c[4:] == 0.0)
        np.testing.assert_allclose(c[[0, 3]][:, [0, 3]],
                                   [[-9090.909090909092, 9090.909090909092],
                                    [10000.0, -10000.0]], rtol=1e-12)

    def test_decomposition_is_exact(self):
        g = assemble_global(two_dgu_topology())
        local = np.zeros((6, 6))
        local[:3, :3], local[3:, 3:] = g.unit_a
        np.testing.assert_array_equal(closed_loop(g, zero_gains(g)),
                                      local + coupling(g))

    def test_voltage_rows_of_coupling_sum_to_zero(self):
        dgus = {k: dgu(0.1 * k, 2e-3, 2.2e-3) for k in range(1, 5)}
        lines = (
            LineParams(1, 2, 0.05),
            LineParams(2, 3, 0.07),
            LineParams(3, 4, 0.04),
            LineParams(4, 1, 0.06),
        )
        g = assemble_global(MicrogridTopology(dgus, lines))
        c = coupling(g)
        rows = c.sum(axis=1)
        assert np.max(np.abs(rows)) < 1e-12 * np.abs(g.self_terms).max()

    def test_block_shapes(self):
        top = two_dgu_topology()
        g = assemble_global(top)
        assert g.unit_a.shape == (2, 3, 3)
        assert g.unit_b.shape == (2, 3)
        assert g.unit_c.shape == (2, 3)
        assert g.load_g.shape == (2,)
        assert g.line_i.shape == g.line_j.shape == (1,)
        assert g.g_i.shape == g.g_j.shape == (1,)
        assert g.line_r.shape == g.line_l.shape == (1,)
        assert closed_loop(g, zero_gains(g)).shape == (6, 6)
        # each unit's output is its voltage, the first slot of its block
        for params in top.dgus.values():
            np.testing.assert_array_equal(augmented_dgu(params).h_hat,
                                          [[1.0, 0.0, 0.0]])

    def test_matrices_are_read_only(self):
        g = assemble_global(two_dgu_topology())
        with pytest.raises(ValueError):
            g.unit_a[0, 0, 0] = 1.0
        for name in ("unit_b", "unit_c", "load_g", "line_i", "line_j", "g_i",
                     "g_j", "line_r", "line_l", "self_terms"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 1

    def test_loads_references_and_lines_are_read_once(self):
        # a resistive load is a conductance on the voltage diagonal, a
        # current load and the reference are the constant term; a line
        # without an inductance holds NaN
        top = MicrogridTopology(
            {1: dgu(c_t=2e-3, v_ref=48.0, load=LoadModel.resistive(8.0)),
             2: dgu(c_t=4e-3, v_ref=0.0,
                    load=LoadModel.constant_current(3.0)),
             3: dgu(v_ref=47.0)},
            (LineParams(2, 1, 0.5, 2e-6), LineParams(1, 3, 0.25)))
        g = assemble_global(top)
        np.testing.assert_allclose(g.load_g, [62.5, 0.0, 0.0], rtol=1e-15)
        np.testing.assert_allclose(
            g.unit_c, [[0.0, 0.0, 48.0], [-750.0, 0.0, 0.0],
                       [0.0, 0.0, 47.0]], rtol=1e-15)
        np.testing.assert_array_equal(g.line_r, [0.5, 0.25])
        np.testing.assert_array_equal(g.line_l, [2e-6, np.nan])

    def test_arrays_stay_per_unit_or_per_line(self):
        # no array the system holds may grow like N^2: at most the 9N
        # entries of the unit_a stack, or one entry per line
        dgus = {k: dgu(0.1 * k, 2e-3, 2.2e-3) for k in range(1, 7)}
        lines = [LineParams(k, k % 6 + 1, 0.05) for k in range(1, 7)]
        lines += [LineParams(1, 4, 0.07), LineParams(2, 5, 0.03),
                  LineParams(3, 6, 0.04)]
        for top in (MicrogridTopology(dgus, lines),
                    MicrogridTopology(dgus, lines[:5])):
            g = assemble_global(top)
            for name, attr in vars(type(g)).items():
                if isinstance(attr, functools.cached_property):
                    getattr(g, name)
            assert "self_terms" in vars(g)
            arrays = [a for a in vars(g).values() if isinstance(a, np.ndarray)]
            n = len(top.ids)
            for a in arrays:
                assert a.size <= max(9 * n, len(top.lines))


class TestAppendixBlocks:
    @pytest.mark.parametrize("gain, message", [
        ([np.nan, 0.0, 1.0], "a controller gain must be finite"),
        ([0.0, 1.0], "a controller must provide a 3-entry gain row"),
    ])
    def test_bad_gain_row_refused(self, gain, message):
        # the message simulate gives, from the one gain-row rule
        g = assemble_global(two_dgu_topology())
        with pytest.raises(ValueError, match=f"^{message}$"):
            closed_loop_blocks(g, {**zero_gains(g), 1: gain})

    def test_self_term_folding(self):
        g = assemble_global(two_dgu_topology())
        blocks = closed_loop_blocks(g, zero_gains(g))
        np.testing.assert_allclose(blocks[0, 0, 0], -9090.909090909092,
                                   rtol=1e-12)
        np.testing.assert_allclose(blocks[1, 0, 0], -10000.0, rtol=1e-12)

    def test_coupled_sum_matches_assembly(self):
        # the two-converter benchmark's bookkeeping: each unit's block with
        # its line's self conductance folded into the (1,1) entry, plus
        # the conductances between the voltage slots
        top = two_dgu_topology()
        line = top.lines[0]
        g = assemble_global(top)
        coupled = np.zeros((6, 6))
        for k, dgu_id in enumerate(top.ids):
            a = augmented_dgu(top.dgus[dgu_id]).a_hat_ii.copy()
            a[0, 0] -= 1.0 / (line.r * top.dgus[dgu_id].c_t)
            coupled[3 * k:3 * k + 3, 3 * k:3 * k + 3] = a
        coupled[0, 3] = 1.0 / (line.r * top.dgus[1].c_t)
        coupled[3, 0] = 1.0 / (line.r * top.dgus[2].c_t)
        np.testing.assert_allclose(coupled, closed_loop(g, zero_gains(g)),
                                   rtol=0, atol=1e-12)


class TestTopologyQueries:
    def test_connectivity(self):
        top = two_dgu_topology()
        assert top.is_connected()
        assert not MicrogridTopology({1: dgu(), 2: dgu()}, ()).is_connected()
        assert MicrogridTopology({7: dgu()}, ()).is_connected()

    def test_plug_and_unplug_helpers(self):
        top = two_dgu_topology()
        grown = top.with_dgu(3, dgu(), [LineParams(3, 1, 0.08)])
        assert grown.neighbors(1) == (2, 3)
        shrunk = grown.without_dgu(1)
        assert shrunk.ids == (2, 3)
        assert shrunk.lines == ()
        with pytest.raises(TopologyError, match="already present"):
            top.with_dgu(2, dgu(), [])
        with pytest.raises(TopologyError, match="unknown DGU"):
            top.without_dgu(9)
