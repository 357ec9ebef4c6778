import dataclasses

import numpy as np
import pytest

import gridforge.certify as certify
from gridforge.certify import (
    FAIL,
    HYPOTHESIS_UNMET,
    PASS,
    GlobalCertificate,
    build_laplacian,
    certificate_to_json,
    check_global,
    check_lasalle_kernel,
    check_local_structure,
    check_theorem1,
    closed_loop,
    eta_tilde_map,
)
from gridforge.model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    assemble_global,
    augmented_dgu,
)
from gridforge.synthesis import LocalController, SynthesisConfig, synthesize

CFG = SynthesisConfig(10.0)


def dgu(r_t, l_t, c_t):
    return DguParams(r_t, l_t, c_t, LoadModel.constant_current(0.0), 48.0)


@pytest.fixture(scope="module")
def pair():
    top = MicrogridTopology(
        {1: dgu(0.1, 1.8e-3, 2.2e-3), 2: dgu(0.2, 1.7e-3, 2.0e-3)},
        (LineParams(1, 2, 0.05, 1.8e-6),),
    )
    ctrls = {i: synthesize(augmented_dgu(top.dgus[i]), top.dgus[i], CFG)
             for i in top.ids}
    return top, ctrls


@pytest.fixture(scope="module")
def pair_cert(pair):
    top, ctrls = pair
    return check_global(ctrls, top, 10.0)


class TestLocalStructure:
    def test_synthesized_pass(self, pair):
        _, ctrls = pair
        for ctrl in ctrls.values():
            report = check_local_structure(ctrl)
            assert report.passed
            assert report.max_violation == 0.0

    def test_always_singular(self, pair):
        _, ctrls = pair
        report = check_local_structure(ctrls[1])
        eps = 1e-8 * (1.0 + np.linalg.norm(ctrls[1].q_local))
        assert report.smallest_abs_eig <= eps

    def test_displaced_eta_flagged(self, pair):
        top, ctrls = pair
        ctrl = ctrls[1]
        params = top.dgus[1]
        # P with eta moved off the (1,1) slot breaks q11 = 0
        bad_p = np.array(ctrl.p)
        bad_p[0, 0] *= 2.0
        hat = augmented_dgu(params)
        f = hat.a_hat_ii + np.outer(hat.b_hat[:, 0], ctrl.k)
        bad_q = f.T @ bad_p + bad_p @ f
        bad = LocalController(ctrl.k, bad_p, ctrl.eta, ctrl.raw, ctrl.delta, bad_q)
        report = check_local_structure(bad)
        assert not report.passed
        assert abs(report.q11) > 0.0 or report.first_row_max > 0.0


class TestLaplacian:
    def test_two_dgu_values(self, pair):
        top, _ = pair
        lap, m, g = build_laplacian(top, 10.0)
        np.testing.assert_allclose(lap, [[-400.0, 400.0], [400.0, -400.0]])
        np.testing.assert_array_equal(lap, m + g)

    def test_disconnected_pair(self):
        top = MicrogridTopology(
            {1: dgu(0.1, 2e-3, 2e-3), 2: dgu(0.1, 2e-3, 2e-3)}, ()
        )
        lap, _, _ = build_laplacian(top, 10.0)
        np.testing.assert_array_equal(lap, np.zeros((2, 2)))

    def test_connected_nullity_one(self):
        dgus = {i: dgu(0.1, 2e-3, 2e-3) for i in range(1, 6)}
        lines = tuple(LineParams(i, i + 1, 0.02 * i) for i in range(1, 5))
        top = MicrogridTopology(dgus, lines)
        lap, _, _ = build_laplacian(top, 10.0)
        w, v = np.linalg.eigh(lap)
        near_zero = np.abs(w) <= 1e-9 * np.linalg.norm(lap)
        assert near_zero.sum() == 1
        null_vec = v[:, near_zero][:, 0]
        assert np.allclose(null_vec, null_vec[0], atol=1e-9)
        assert w[-1] <= 1e-9 * np.linalg.norm(lap)  # L is NSD

    def test_diagonal_is_exact_negative_row_sum(self):
        dgus = {i: dgu(0.1, 2e-3, 2e-3) for i in range(1, 5)}
        lines = (LineParams(1, 2, 0.05), LineParams(2, 3, 0.03),
                 LineParams(3, 4, 0.07), LineParams(4, 1, 0.11))
        lap, m, g = build_laplacian(MicrogridTopology(dgus, lines), 10.0)
        for i in range(4):
            assert lap[i, i] == -np.sum(np.abs(g[i]))

    def test_eta_tilde_symmetric_map(self, pair):
        top, _ = pair
        em = eta_tilde_map(top, 10.0)
        assert em[(1, 2)] == em[(2, 1)] == pytest.approx(200.0)


class TestGlobal:
    def test_q_negative_semidefinite(self, pair_cert):
        cert = pair_cert
        eps = 1e-8 * (1.0 + np.linalg.norm(cert.q_global))
        assert cert.checks["q_global_max_eig"] <= eps
        assert cert.checks["block_a_max_eig"] <= eps
        assert cert.checks["block_bc_max_eig"] <= eps
        assert cert.q_negative_semidefinite()

    def test_decomposition_is_exact(self, pair_cert):
        assert pair_cert.checks["split_residual"] <= 1e-12 * (
            1.0 + np.linalg.norm(pair_cert.q_global)
        )

    def test_coupling_expands_laplacian(self, pair_cert):
        scale = 1.0 + np.linalg.norm(pair_cert.laplacian)
        assert pair_cert.checks["laplacian_expansion_error"] <= 1e-9 * scale
        assert pair_cert.checks["coupling_nonvoltage_rows"] == 0.0

    def test_q_definition(self, pair, pair_cert):
        top, ctrls = pair
        f = closed_loop(assemble_global(top), ctrls)
        q = f.T @ pair_cert.p_global + pair_cert.p_global @ f
        np.testing.assert_array_equal(q, pair_cert.q_global)

    def test_mixed_sigma_bar_raises(self, pair):
        top, ctrls = pair
        c2 = ctrls[2]
        doubled = LocalController(c2.k, c2.p, 2.0 * c2.eta, c2.raw,
                                  c2.delta, c2.q_local)
        with pytest.raises(ValueError, match="asymmetric"):
            check_global({1: ctrls[1], 2: doubled}, top, 10.0)

    def test_wrong_controller_set_raises(self, pair):
        top, ctrls = pair
        with pytest.raises(ValueError, match="cover exactly"):
            check_global({1: ctrls[1]}, top, 10.0)


@pytest.fixture(scope="module")
def mesh():
    """Six units of three types on a ring with two chords."""
    types = [dgu(0.1, 1.8e-3, 2.2e-3), dgu(0.2, 1.7e-3, 2.0e-3),
             dgu(0.3, 2.5e-3, 1.9e-3)]
    designs = [synthesize(augmented_dgu(p), p, CFG) for p in types]
    ids = range(1, 7)
    lines = [LineParams(i, i % 6 + 1, 0.03 + 0.01 * i, 2e-6) for i in ids]
    lines += [LineParams(4, 1, 0.08, 2e-6), LineParams(2, 5, 0.06, 2e-6)]
    top = MicrogridTopology({i: types[i % 3] for i in ids}, lines)
    return top, {i: designs[i % 3] for i in ids}


def with_stray_self_term(monkeypatch, row, col):
    """Make certify see a_xi with one stray off-diagonal entry."""
    def doctored(top):
        system = assemble_global(top)
        a_xi = system.a_xi.copy()
        a_xi[row, col] = 1.0
        return dataclasses.replace(system, a_xi=a_xi)

    monkeypatch.setattr(certify, "assemble_global", doctored)


class TestLineSparseChecks:
    # blocks are 3x3 in id order: unit i's voltage row is 3 * (i - 1)
    @pytest.mark.parametrize("stray, check", [
        ((0, 6), "laplacian_expansion_error"),
        ((1, 6), "coupling_nonvoltage_rows"),
        ((0, 7), "coupling_nonvoltage_rows"),
        ((3, 0), "laplacian_expansion_error"),
        ((0, 4), "coupling_nonvoltage_rows"),
    ])
    def test_off_line_blocks_covered_entrywise(self, mesh, stray, check,
                                               monkeypatch):
        # a stray coupling term shows entrywise, whether its units share a
        # line (units 1 and 2) or not (units 1 and 3)
        top, ctrls = mesh
        with_stray_self_term(monkeypatch, *stray)
        cert = check_global(ctrls, top, 10.0)
        assert cert.checks[check] > 1e-6

    def test_block_a_max_eig_matches_dense_reference(self, mesh):
        top, ctrls = mesh
        cert = check_global(ctrls, top, 10.0)
        dense = np.linalg.eigvalsh(cert.block_a)[-1]
        scale = 1.0 + np.linalg.norm(cert.block_a)
        assert abs(cert.checks["block_a_max_eig"] - dense) <= 1e-12 * scale

    def test_certify_assembles_the_grid_once(self, mesh, monkeypatch):
        top, ctrls = mesh
        calls = []
        original = certify.assemble_global
        monkeypatch.setattr(certify, "assemble_global",
                            lambda t: calls.append(t) or original(t))
        cert = check_global(ctrls, top, 10.0)
        assert check_theorem1(cert, ctrls, top).verdict == PASS
        assert len(calls) == 1
        f = closed_loop(original(top), ctrls)
        assert cert.checks["closed_loop_norm"] == np.linalg.norm(f)


class TestTheorem1:
    def test_pass_on_synthesized_pair(self, pair, pair_cert):
        top, ctrls = pair
        verdict = check_theorem1(pair_cert, ctrls, top)
        assert verdict.verdict == PASS
        assert verdict.spectral_abscissa < 0.0

    def test_disconnected_is_hypothesis_unmet(self, pair):
        top, ctrls = pair
        cut = MicrogridTopology(dict(top.dgus), ())
        cert = check_global(ctrls, cut, 10.0)
        verdict = check_theorem1(cert, ctrls, cut)
        assert verdict.verdict == HYPOTHESIS_UNMET
        assert verdict.spectral_abscissa is None

    def test_unstable_spectrum_fails(self, pair, pair_cert):
        top, ctrls = pair
        spectra = dict(pair_cert.spectra)
        spectra["closed_loop"] = np.array([20.0 + 560.0j, 20.0 - 560.0j, -1.0])
        doctored = GlobalCertificate(
            pair_cert.p_global, pair_cert.q_global, pair_cert.block_a,
            pair_cert.block_bc, pair_cert.laplacian, pair_cert.eta_tilde,
            spectra, pair_cert.kernel_basis, pair_cert.checks,
        )
        verdict = check_theorem1(doctored, ctrls, top)
        assert verdict.verdict == FAIL
        assert verdict.spectral_abscissa == pytest.approx(20.0)


class TestLasalleKernel:
    def test_pair_nullity(self, pair, pair_cert):
        _, ctrls = pair
        report = check_lasalle_kernel(pair_cert, ctrls)
        assert report.passed
        assert report.nullity == 3
        assert report.max_principal_angle <= 1e-6

    def test_single_dgu(self):
        params = dgu(0.3, 2.5e-3, 1.9e-3)
        top = MicrogridTopology({1: params}, ())
        ctrl = synthesize(augmented_dgu(params), params, CFG)
        cert = check_global({1: ctrl}, top, 10.0)
        report = check_lasalle_kernel(cert, {1: ctrl})
        assert report.nullity == 2
        assert report.passed
        # basis spans {e1, [0, 1, delta]}
        target = np.zeros((3, 2))
        target[0, 0] = 1.0
        target[1, 1] = 1.0
        target[2, 1] = ctrl.delta
        tq, _ = np.linalg.qr(target)
        sv = np.linalg.svd(cert.kernel_basis.T @ tq, compute_uv=False)
        assert np.min(sv) >= 1.0 - 1e-10


class TestExport:
    def test_json_fields(self, pair, pair_cert):
        top, ctrls = pair
        verdict = check_theorem1(pair_cert, ctrls, top)
        kernel = check_lasalle_kernel(pair_cert, ctrls)
        doc = certificate_to_json(pair_cert, verdict, kernel)
        assert doc["theorem1"]["verdict"] == PASS
        assert doc["lasalle_kernel"]["nullity"] == 3
        assert doc["kernel_dimension"] == 3
        assert "q_global_max_eig" in doc["checks"]
        import json

        json.dumps(doc)  # everything must be serializable
