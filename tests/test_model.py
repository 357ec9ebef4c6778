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
    appendix_a_matrices,
    assemble_global,
    augmented_dgu,
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
        assert LoadModel.resistive(4.0).current_at(48.0) == 12.0
        assert LoadModel.constant_current(7.5).current_at(10.0) == 7.5
        with pytest.raises(ValueError, match="r_l must be positive"):
            LoadModel.resistive(-1.0)
        with pytest.raises(ValueError, match="unknown load kind"):
            LoadModel("impedance", 1.0)

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


class TestGlobalAssembly:
    def test_two_dgu_split(self):
        g = assemble_global(two_dgu_topology())
        assert g.ids == (1, 2)
        np.testing.assert_allclose(g.a_xi[0, 0], -9090.909090909092, rtol=1e-12)
        np.testing.assert_allclose(g.a_xi[3, 3], -10000.0, rtol=1e-12)
        np.testing.assert_allclose(g.a_c[0, 3], 9090.909090909092, rtol=1e-12)
        np.testing.assert_allclose(g.a_c[3, 0], 10000.0, rtol=1e-12)
        # a_xi and a_c touch nothing but the voltage rows
        assert np.all(g.a_xi[1:3] == 0.0) and np.all(g.a_c[1:3] == 0.0)
        assert np.all(g.a_xi[4:] == 0.0) and np.all(g.a_c[4:] == 0.0)

    def test_decomposition_is_exact(self):
        g = assemble_global(two_dgu_topology())
        np.testing.assert_array_equal(g.a_hat, g.a_d + g.a_xi + g.a_c)

    def test_voltage_rows_of_coupling_sum_to_zero(self):
        dgus = {k: dgu(0.1 * k, 2e-3, 2.2e-3) for k in range(1, 5)}
        lines = (
            LineParams(1, 2, 0.05),
            LineParams(2, 3, 0.07),
            LineParams(3, 4, 0.04),
            LineParams(4, 1, 0.06),
        )
        g = assemble_global(MicrogridTopology(dgus, lines))
        rows = (g.a_xi + g.a_c).sum(axis=1)
        assert np.max(np.abs(rows)) < 1e-12 * np.abs(g.a_xi).max()

    def test_block_shapes(self):
        g = assemble_global(two_dgu_topology())
        assert g.a_hat.shape == (6, 6)
        assert g.b_hat.shape == (6, 2)
        assert g.m_hat.shape == (6, 4)
        assert g.h_hat.shape == (2, 6)
        assert g.h_hat[1, 3] == 1.0 and g.h_hat[0, 0] == 1.0

    def test_matrices_are_read_only(self):
        g = assemble_global(two_dgu_topology())
        with pytest.raises(ValueError):
            g.a_hat[0, 0] = 1.0


class TestAppendixBlocks:
    def test_self_term_folding(self):
        top = two_dgu_topology()
        line = top.lines[0]
        a1 = appendix_a_matrices(top.dgus[1], line)
        a2 = appendix_a_matrices(top.dgus[2], line)
        np.testing.assert_allclose(a1[0, 0], -9090.909090909092, rtol=1e-12)
        np.testing.assert_allclose(a2[0, 0], -10000.0, rtol=1e-12)

    def test_coupled_sum_matches_assembly(self):
        top = two_dgu_topology()
        line = top.lines[0]
        g = assemble_global(top)
        coupled = np.zeros((6, 6))
        coupled[:3, :3] = appendix_a_matrices(top.dgus[1], line)
        coupled[3:, 3:] = appendix_a_matrices(top.dgus[2], line)
        coupled[0, 3] = 1.0 / (line.r * top.dgus[1].c_t)
        coupled[3, 0] = 1.0 / (line.r * top.dgus[2].c_t)
        np.testing.assert_allclose(coupled, g.a_hat, rtol=0, atol=1e-12)


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
