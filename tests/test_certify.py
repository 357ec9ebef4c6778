import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from gridforge.model import (
    DguParams,
    LineParams,
    LoadModel,
    MicrogridTopology,
    assemble_global,
    augmented_dgu,
    closed_loop,
    closed_loop_blocks,
)
from gridforge.synthesis import (
    LocalController,
    SynthesisConfig,
    check_local_stacks,
    local_dissipation,
    synthesize,
)

CFG = SynthesisConfig(10.0)


def dgu(r_t, l_t, c_t):
    return DguParams(r_t, l_t, c_t, LoadModel.constant_current(0.0), 48.0)


def block_diagonal(blocks):
    n = len(blocks)
    out = np.zeros((3 * n, 3 * n))
    for k, block in enumerate(blocks):
        out[3 * k:3 * k + 3, 3 * k:3 * k + 3] = block
    return out


def dense_reference(top, ctrls):
    """(Q, line part, blockdiag q_local) rebuilt densely: Q = F'P + PF
    with P = blockdiag(P_i), and the line part PC + (PC)' with C the
    coupling: F off its diagonal blocks, plus the QSL self terms on the
    voltage diagonal."""
    system = assemble_global(top)
    f = closed_loop(system, ctrls)
    p = block_diagonal([ctrls[i].p for i in top.ids])
    coupling = f - block_diagonal(closed_loop_blocks(system, ctrls))
    coupling[::3, ::3] += np.diag(system.self_terms)
    pc = p @ coupling
    return (f.T @ p + p @ f, pc + pc.T,
            block_diagonal([ctrls[i].q_local for i in top.ids]))


def dense_kernel_basis(cert):
    """The certificate's kernel pieces as one dense 3N x (m + units)
    basis: the voltage null vectors on the voltage slots, each unit's
    null vector on that unit's (I, v) slots."""
    n, m = cert.kernel_voltage.shape
    units = cert.kernel_units
    basis = np.zeros((3 * n, m + len(units)))
    basis[::3, :m] = cert.kernel_voltage
    cols = m + np.arange(len(units))
    basis[3 * units + 1, cols] = cert.kernel_pairs[:, 0]
    basis[3 * units + 2, cols] = cert.kernel_pairs[:, 1]
    return basis


def dense_split(q):
    """(voltage block, (N, 2, 2) unit blocks, dropped entries) of a dense
    3N x 3N matrix: the direct sum the certificate stores in pieces."""
    n = len(q) // 3
    blocks = q.reshape(n, 3, n, 3)
    idx = np.arange(n)
    cross = blocks[:, 1:, :, 1:].copy()
    cross[idx, :, idx, :] = 0.0
    dropped = np.concatenate([blocks[:, 0, :, 1:].ravel(),
                              blocks[:, 1:, :, 0].ravel(), cross.ravel()])
    return q[::3, ::3], blocks[idx, 1:, idx, 1:], dropped


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

    def test_displaced_eta_flagged(self, pair, monkeypatch):
        top, ctrls = pair
        ctrl = ctrls[1]
        params = top.dgus[1]
        # P with eta moved off the (1,1) slot breaks q11 = 0
        bad_p = np.array(ctrl.p)
        bad_p[0, 0] *= 2.0
        hat = augmented_dgu(params)
        f = hat.a_hat_ii + np.outer(hat.b_hat[:, 0], ctrl.k)
        bad_q = f.T @ bad_p + bad_p @ f
        report = check_local_stacks(bad_q[None], bad_p[None])
        assert not report["passed"][0]
        assert abs(report["q11"][0]) > 0.0 or report["first_row_max"][0] > 0.0
        assert report["q_max_eig"][0] > 0.0
        # through check_global, which derives q_1 from the doctored P

        def displace_eta(p):
            p[0, 0] *= 2.0

        doctor_p(monkeypatch, 0, displace_eta)
        assert not local_certificates_fact(top, ctrls)[0]

    def test_indefinite_p_flagged(self, pair, monkeypatch):
        # q_local as synthesized, P with its tail block negated: only the
        # P > 0 check can see it
        top, ctrls = pair
        ctrl = ctrls[1]
        bad_p = np.array(ctrl.p)
        bad_p[1:, 1:] *= -1.0
        report = check_local_stacks(ctrl.q_local[None], bad_p[None])
        assert not report["passed"][0]
        assert report["p_min_eig"][0] < 0.0
        assert report["max_violation"][0] == pytest.approx(
            -report["p_min_eig"][0])
        assert check_local_structure(ctrl).p_min_eig > 0.0

        def negate_tail(p):
            p[1:, 1:] *= -1.0

        doctor_p(monkeypatch, 0, negate_tail, q_as_it_was=True)
        holds, margin = local_certificates_fact(top, ctrls)
        assert not holds and margin == report["p_min_eig"][0]


def doctor_p(monkeypatch, unit, change, q_as_it_was=False):
    """Make the closed form that certify calls hand back the P of the unit
    at position `unit` changed in place by `change`.  check_global then
    derives q_local from the doctored P, or with q_as_it_was from the
    true one."""
    true_form = certify.local_certificate
    true_p = []

    def closed_form(*args):
        p, delta = true_form(*args)
        true_p.append(p.copy())
        change(p[unit])
        return p, delta

    monkeypatch.setattr(certify, "local_certificate", closed_form)
    if q_as_it_was:
        monkeypatch.setattr(certify, "local_dissipation",
                            lambda a, b, k, p: local_dissipation(
                                a, b, k, true_p[-1]))


def local_certificates_fact(top, ctrls):
    """The local_certificates fact of check_global's certificate, whose
    verdict it fails."""
    verdict = check_theorem1(check_global(ctrls, top, 10.0), top)
    assert verdict.verdict == FAIL
    return verdict.facts["local_certificates"]


def laplacian_parts(lap):
    """(M, G): the diagonal and off-diagonal parts of L."""
    m = np.diag(np.diagonal(lap))
    return m, lap - m


class TestLaplacian:
    def test_two_dgu_values(self, pair):
        top, _ = pair
        lap = build_laplacian(top, 10.0)
        m, g = laplacian_parts(lap)
        np.testing.assert_allclose(lap, [[-400.0, 400.0], [400.0, -400.0]])
        np.testing.assert_array_equal(lap, m + g)
        np.testing.assert_array_equal(np.diagonal(m), -np.sum(g, axis=1))

    def test_disconnected_pair(self):
        top = MicrogridTopology(
            {1: dgu(0.1, 2e-3, 2e-3), 2: dgu(0.1, 2e-3, 2e-3)}, ()
        )
        lap = build_laplacian(top, 10.0)
        np.testing.assert_array_equal(lap, np.zeros((2, 2)))

    def test_connected_nullity_one(self):
        dgus = {i: dgu(0.1, 2e-3, 2e-3) for i in range(1, 6)}
        lines = tuple(LineParams(i, i + 1, 0.02 * i) for i in range(1, 5))
        top = MicrogridTopology(dgus, lines)
        lap = build_laplacian(top, 10.0)
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
        lap = build_laplacian(MicrogridTopology(dgus, lines), 10.0)
        _, g = laplacian_parts(lap)
        for i in range(4):
            assert lap[i, i] == -np.sum(np.abs(g[i]))


class TestGlobal:
    def test_q_negative_semidefinite(self, pair, pair_cert):
        cert = pair_cert
        eps = 1e-8 * (1.0 + np.linalg.norm(dense_reference(*pair)[0]))
        assert cert.checks["q_global_max_eig"] <= eps
        assert cert.checks["block_a_max_eig"] <= eps
        assert cert.checks["block_bc_max_eig"] <= eps
        assert cert.q_negative_semidefinite()

    def test_decomposition_is_exact(self, pair, pair_cert):
        assert pair_cert.checks["split_residual"] <= 1e-12 * (
            1.0 + np.linalg.norm(dense_reference(*pair)[0])
        )

    def test_coupling_expands_laplacian(self, pair_cert):
        scale = 1.0 + np.linalg.norm(pair_cert.laplacian)
        assert pair_cert.checks["laplacian_expansion_error"] <= 1e-9 * scale
        assert pair_cert.checks["coupling_nonvoltage_rows"] == 0.0

    def test_q_definition(self, pair, pair_cert):
        # the pieces are those of the dense F'P + PF, entry for entry
        q_volt, q_units, dropped = dense_split(dense_reference(*pair)[0])
        np.testing.assert_array_equal(q_volt, pair_cert.q_voltage)
        np.testing.assert_array_equal(q_units, pair_cert.q_units)
        np.testing.assert_array_equal(
            np.sort(dropped[dropped != 0.0]),
            np.sort(pair_cert.q_dropped[pair_cert.q_dropped != 0.0]))

    def test_bare_gain_rows_give_the_same_certificate(self, pair):
        # only the gain rows are read: P, delta and q come from them and
        # the topology
        top, ctrls = pair
        docs = []
        for given in (ctrls, {i: c.k.tolist() for i, c in ctrls.items()}):
            cert = check_global(given, top, 10.0)
            kernel = check_lasalle_kernel(cert)
            docs.append(json.dumps(certificate_to_json(
                cert, check_theorem1(cert, top, kernel), kernel)))
        assert docs[0] == docs[1]

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


def doctored(top, ctrls, stray, monkeypatch):
    """Controllers and assembly with one piece of block data doctored.

    ("line", field, value) sets line 0's entry of each named GlobalSystem
    line array; ("p", unit, row) puts a small symmetric pair into unit's
    P at (row, 0) and (0, row), off its zero first column; ("eta", unit)
    moves unit's P[0, 0] off eta.  P is doctored in the closed form that
    certify calls, and q_local is left as it was.
    """
    if stray[0] == "line":
        def assemble(t):
            system = assemble_global(t)
            changes = {}
            for field, value in stray[1].items():
                changes[field] = getattr(system, field).copy()
                changes[field][0] = value(changes[field][0])
            return dataclasses.replace(system, **changes)

        monkeypatch.setattr(certify, "assemble_global", assemble)
        return ctrls

    def change(p):
        if stray[0] == "p":
            p[stray[2], 0] = p[0, stray[2]] = 1e-3 * np.linalg.eigvalsh(p)[0]
        else:
            p[0, 0] *= 1.0 + 1e-3

    doctor_p(monkeypatch, top.ids.index(stray[1]), change, q_as_it_was=True)
    return ctrls


class TestLineSparseChecks:
    @pytest.mark.parametrize("stray, check", [
        # line 0 joins units 1 and 2; rewired, it couples units 1 and 5,
        # which share no line (units 2 and 5 have the same C_t)
        (("line", {"line_j": lambda j: 4}), "laplacian_expansion_error"),
        (("p", 1, 1), "coupling_nonvoltage_rows"),
        (("p", 3, 2), "coupling_nonvoltage_rows"),
        (("line", {"g_i": lambda g: 2.0 * g, "g_j": lambda g: 2.0 * g}),
         "laplacian_expansion_error"),
        (("p", 2, 1), "coupling_nonvoltage_rows"),
        (("p", 2, 1), "direct_sum_residual"),
        (("eta", 4), "laplacian_expansion_error"),
        (("p", 5, 2), "split_residual"),
    ])
    def test_off_line_blocks_covered_entrywise(self, mesh, stray, check,
                                               monkeypatch):
        # each doctored piece of block data shows in its check: a line off
        # the topology or with the wrong conductance, P's first column off
        # zero, or P's (1,1) entry off eta
        top, ctrls = mesh
        cert = check_global(doctored(top, ctrls, stray, monkeypatch), top,
                            10.0)
        assert cert.checks[check] > 1e-6

    def test_block_a_max_eig_matches_dense_reference(self, mesh):
        top, ctrls = mesh
        cert = check_global(ctrls, top, 10.0)
        block_a = dense_reference(top, ctrls)[2]
        dense = np.linalg.eigvalsh(block_a)[-1]
        scale = 1.0 + np.linalg.norm(block_a)
        assert abs(cert.checks["block_a_max_eig"] - dense) <= 1e-12 * scale

    def test_dropped_entries_bound_the_verdict(self, mesh):
        # a V x I entry the direct sum drops leaves the split's spectrum
        # as it was; the Weyl term alone must then refuse Q <= 0
        top, ctrls = mesh
        cert = check_global(ctrls, top, 10.0)
        assert cert.q_negative_semidefinite()
        q = dense_reference(top, ctrls)[0]
        eps = 1e-8 * (1.0 + np.linalg.norm(q))
        q[0, 4] = q[4, 0] = 2.0 * eps
        # the split drops the doctored pair: it joins the dropped entries
        # at both of its positions, and the pieces still cover Q
        q_dropped = np.concatenate([cert.q_dropped, [q[0, 4], q[4, 0]]])
        doctored = dataclasses.replace(cert, q_dropped=q_dropped)
        assert doctored.q_norm == pytest.approx(np.linalg.norm(q),
                                                rel=1e-12)
        assert doctored.checks["q_global_max_eig"] <= eps
        assert not doctored.q_negative_semidefinite()

    def test_certify_assembles_the_grid_once(self, mesh, monkeypatch):
        top, ctrls = mesh
        calls = []
        original = certify.assemble_global
        monkeypatch.setattr(certify, "assemble_global",
                            lambda t: calls.append(t) or original(t))
        cert = check_global(ctrls, top, 10.0)
        assert check_theorem1(cert, top).verdict == PASS
        assert len(calls) == 1
        f = closed_loop(original(top), ctrls)
        assert cert.checks["closed_loop_norm"] == np.linalg.norm(f)


@pytest.fixture(scope="module")
def pool():
    """(parameters, design) of four unit types, all at sigma_bar = 10."""
    types = [dgu(0.1, 1.8e-3, 2.2e-3), dgu(0.2, 1.7e-3, 2.0e-3),
             dgu(0.3, 2.5e-3, 1.9e-3), dgu(0.05, 4e-3, 3.5e-3)]
    return [(p, synthesize(augmented_dgu(p), p, CFG)) for p in types]


def random_mesh(pool, n, seed):
    """A random recursive tree on n units plus up to n // 2 chords."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(len(pool), size=n)
    pairs = {(int(rng.integers(k)), k) for k in range(1, n)}
    for _ in range(n // 2):
        pairs.add(tuple(sorted(int(i) for i in rng.choice(n, 2, False))))
    lines = [LineParams(i + 1, j + 1, float(rng.uniform(0.02, 0.2)), 2e-6)
             for i, j in sorted(pairs)]
    top = MicrogridTopology({i + 1: pool[k][0] for i, k in enumerate(kinds)},
                            lines)
    return top, {i + 1: pool[k][1] for i, k in enumerate(kinds)}


def dense_kernel_angle(basis, ctrls):
    """Largest principal angle between span(basis) and the predicted
    kernel, from a QR of the prediction and an SVD of the part of the
    basis outside it (the sine form: arccos of a cosine near 1 resolves
    angles only to about 1.5e-8)."""
    n = len(ctrls)
    predicted = np.zeros((3 * n, n + 1))
    predicted[::3, 0] = 1.0
    for idx, dgu_id in enumerate(sorted(ctrls)):
        predicted[3 * idx + 1, idx + 1] = 1.0
        predicted[3 * idx + 2, idx + 1] = ctrls[dgu_id].delta
    pq, _ = np.linalg.qr(predicted)
    sv = np.linalg.svd(basis - pq @ (pq.T @ basis), compute_uv=False)
    return float(np.arcsin(min(np.max(sv), 1.0)))


def closed_form_chain(n):
    """A chain of n units of four types, each with k = (0, 0, R_t/(2 L_t)),
    a gain in the design set for every unit."""
    types = [dgu(0.1, 1.8e-3, 2.2e-3), dgu(0.2, 1.7e-3, 2.0e-3),
             dgu(0.3, 2.5e-3, 1.9e-3), dgu(0.05, 4e-3, 3.5e-3)]
    designs = [LocalController([0.0, 0.0, p.r_t / (2 * p.l_t)], {}, p, 10.0)
               for p in types]
    lines = [LineParams(i, i + 1, 0.02 + 0.01 * (i % 9)) for i in range(1, n)]
    top = MicrogridTopology({i: types[i % 4] for i in range(1, n + 1)}, lines)
    return top, {i: designs[i % 4] for i in range(1, n + 1)}


def stiff_grid(n, seed):
    """A random mesh of n units drawn log-uniformly from a wide box (R_t
    1e-3 to 10, L_t 1e-4 to 0.1, C_t 1e-6 to 0.1, sigma_bar 1 to 1000),
    each with a gain drawn from the design set and its closed-form P."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi, size=None):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    r_t, l_t = log_uniform(1e-3, 10.0, n), log_uniform(1e-4, 0.1, n)
    c_t = log_uniform(1e-6, 0.1, n)
    sigma_bar = float(log_uniform(1.0, 1000.0))
    k1 = 1.0 - log_uniform(1e-2, 1e2, n)
    k2 = r_t - r_t * log_uniform(1e-1, 1e1, n)
    k3 = rng.uniform(0.05, 0.95, n) * (k1 - 1.0) * (k2 - r_t) / l_t
    pairs = {(int(rng.integers(k)), k) for k in range(1, n)}
    for _ in range(n // 2):
        pairs.add(tuple(sorted(int(i) for i in rng.choice(n, 2, False))))
    lines = [LineParams(i + 1, j + 1, float(rng.uniform(0.02, 0.2)))
             for i, j in sorted(pairs)]
    dgus = {i + 1: dgu(float(r_t[i]), float(l_t[i]), float(c_t[i]))
            for i in range(n)}
    ctrls = {i: LocalController([k1[i - 1], k2[i - 1], k3[i - 1]], {},
                                dgus[i], sigma_bar)
             for i in dgus}
    return MicrogridTopology(dgus, lines), ctrls, sigma_bar


class TestStiffGrids:
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    # the closed-loop spectrum of this grid reads -1.6e-14 |F|: a verdict
    # that needs the abscissa below -1e-12 |F| reads it as Fail
    @example(n=20, seed=252)
    @settings(max_examples=100, deadline=None)
    def test_structure_certifies_and_spectrum_agrees(self, n, seed):
        top, ctrls, sigma_bar = stiff_grid(n, seed)
        cert = check_global(ctrls, top, sigma_bar)
        kernel = check_lasalle_kernel(cert)
        verdict = check_theorem1(cert, top, kernel)
        assert verdict.verdict == PASS, verdict.facts
        assert kernel.nullity == n + 1
        # the spectrum never contradicts the proof, and wherever it
        # resolves the sign of its abscissa it reads stable too
        scale = 1e-12 * cert.checks["closed_loop_norm"]
        assert verdict.spectral_abscissa <= scale
        if verdict.spectral_abscissa < -scale:
            assert np.all(cert.spectra["closed_loop"].real < 0.0)


class TestDirectSum:
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=200, seed=1)
    @settings(max_examples=12, deadline=None)
    def test_matches_dense_references(self, pool, n, seed):
        top, ctrls = random_mesh(pool, n, seed)
        cert = check_global(ctrls, top, 10.0)
        q_global, block_bc, _ = dense_reference(top, ctrls)
        scale = 1.0 + np.linalg.norm(q_global)
        dense = np.linalg.eigvalsh(q_global)
        np.testing.assert_allclose(cert.spectra["q_global"], dense,
                                   rtol=0.0, atol=1e-12 * scale)
        assert cert.q_norm == pytest.approx(np.linalg.norm(q_global),
                                            rel=1e-12)
        # numerical rank of each piece of the dense split, against that
        # piece's own spectral norm
        q_volt, q_units, _ = dense_split(q_global)
        w_volt = np.linalg.eigvalsh(q_volt)
        w_units = np.linalg.eigvalsh(q_units)
        nullity = (np.count_nonzero(
            np.abs(w_volt) <= 1e-7 * np.max(np.abs(w_volt)))
            + np.count_nonzero(np.abs(w_units) <= 1e-7 * np.max(
                np.abs(w_units), axis=1, keepdims=True)))
        kernel = check_lasalle_kernel(cert)
        assert kernel.nullity == nullity == n + 1
        assert kernel.passed
        dense_angle = dense_kernel_angle(dense_kernel_basis(cert), ctrls)
        assert abs(kernel.max_principal_angle - dense_angle) <= 1e-9
        bc_max = np.linalg.eigvalsh(block_bc)[-1]
        assert abs(cert.checks["block_bc_max_eig"] - bc_max) <= 1e-12 * scale
        assert check_theorem1(cert, top).verdict == PASS

    def test_no_eigensolve_beyond_the_pieces(self, pool, monkeypatch):
        # the one O(N^3) step is the closed-loop spectrum; every symmetric
        # eigensolve is at most N x N
        n = 60
        top, ctrls = random_mesh(pool, n, 7)
        shapes = {name: [] for name in ("eigh", "eigvalsh", "eig", "eigvals")}
        for name, seen in shapes.items():
            def spy(a, *args, _seen=seen, _f=getattr(np.linalg, name), **kw):
                _seen.append(np.shape(a))
                return _f(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, spy)
        cert = check_global(ctrls, top, 10.0)
        assert check_theorem1(cert, top).verdict == PASS
        assert check_lasalle_kernel(cert).passed
        symmetric = shapes["eigh"] + shapes["eigvalsh"]
        assert symmetric and max(s[-1] for s in symmetric) == n
        assert shapes["eigvals"] == [(3 * n, 3 * n)]
        assert shapes["eig"] == []
        # the local checks are one batched eigensolve over the stacked
        # q_i and P_i, never one call per unit
        assert shapes["eigh"].count((2 * n, 3, 3)) == 1
        assert (3, 3) not in symmetric
        # above the spectrum's size cap no general eigensolve runs at all
        for seen in shapes.values():
            seen.clear()
        monkeypatch.setattr(certify, "SPECTRUM_MAX_UNITS", n - 1)
        cert = check_global(ctrls, top, 10.0)
        verdict = check_theorem1(cert, top)
        assert (verdict.verdict, verdict.spectral_abscissa) == (PASS, None)
        assert shapes["eigvals"] == shapes["eig"] == []
        assert max(s[-1] for s in shapes["eigh"] + shapes["eigvalsh"]) == n
        doc = certificate_to_json(cert, verdict)
        assert doc["closed_loop_eigenvalues"] is None

    def test_thousand_unit_chain_stays_sparse(self, monkeypatch):
        # five dense N x N float64 arrays at N = 1000 are 40 MB; no step
        # of the certificate may hold a dense 3N x 3N array (72 MB), nor
        # a dense 3N x N kernel basis (24 MB) beside its N x N pieces,
        # nor run a general eigensolve
        n = 1000
        top, ctrls = closed_form_chain(n)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(np.shape(a)))
        tracemalloc.start()
        try:
            cert = check_global(ctrls, top, 10.0)
            kernel = check_lasalle_kernel(cert)
            verdict = check_theorem1(cert, top, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n ** 2 * 8
        assert calls == []
        assert kernel.passed and kernel.nullity == n + 1
        assert verdict.verdict == PASS
        assert verdict.spectral_abscissa is None


class TestTheorem1:
    def test_pass_on_synthesized_pair(self, pair, pair_cert):
        top, _ = pair
        verdict = check_theorem1(pair_cert, top)
        assert verdict.verdict == PASS
        assert verdict.spectral_abscissa < 0.0

    def test_disconnected_is_hypothesis_unmet(self, pair):
        top, ctrls = pair
        cut = MicrogridTopology(dict(top.dgus), ())
        cert = check_global(ctrls, cut, 10.0)
        verdict = check_theorem1(cert, cut)
        assert verdict.verdict == HYPOTHESIS_UNMET
        assert verdict.spectral_abscissa is None

    def test_unstable_spectrum_fails(self, pair, pair_cert):
        top, _ = pair
        spectra = dict(pair_cert.spectra)
        spectra["closed_loop"] = np.array([20.0 + 560.0j, 20.0 - 560.0j, -1.0])
        doctored = dataclasses.replace(pair_cert, spectra=spectra)
        assert isinstance(doctored, GlobalCertificate)
        verdict = check_theorem1(doctored, top)
        assert verdict.verdict == FAIL
        assert verdict.spectral_abscissa == pytest.approx(20.0)


    @pytest.mark.parametrize("factor, verdict", [
        (-0.5, PASS), (0.5, PASS), (2.0, FAIL)])
    def test_spectrum_refutes_only_beyond_its_noise_floor(
            self, pair, pair_cert, factor, verdict):
        # an abscissa within 1e-12 |F| of zero cannot overrule the
        # structure; one above it contradicts the proof
        top, _ = pair
        spectra = dict(pair_cert.spectra)
        abscissa = factor * 1e-12 * pair_cert.checks["closed_loop_norm"]
        spectra["closed_loop"] = np.array([abscissa, -1.0])
        doctored = dataclasses.replace(pair_cert, spectra=spectra)
        result = check_theorem1(doctored, top)
        assert result.verdict == verdict
        assert result.spectral_abscissa == abscissa

    def test_facts_are_recorded_with_margins(self, pair, pair_cert):
        top, ctrls = pair
        verdict = check_theorem1(pair_cert, top)
        assert set(verdict.facts) == {
            "connected", "positive_line_weights", "local_certificates",
            "q_negative_semidefinite", "lasalle_kernel", "k3_nonzero",
            "lasalle_invariance"}
        assert all(holds for holds, _ in verdict.facts.values())
        # 1 + delta b = (d - b c) / d, negative on every gain of the set
        for dgu_id, ctrl in ctrls.items():
            b = (ctrl.k[0] - 1.0) / top.dgus[dgu_id].l_t
            assert 1.0 + ctrl.delta * b < 0.0
        margin = min(abs(1.0 + c.delta * (c.k[0] - 1.0) / top.dgus[i].l_t)
                     for i, c in ctrls.items())
        assert verdict.facts["lasalle_invariance"] == (True, margin)
        assert verdict.facts["positive_line_weights"][1] == pytest.approx(
            400.0)

    def test_invariant_kernel_direction_fails(self, pair):
        # with 1 + delta b = 0 the unit's kernel direction is F-invariant
        # and LaSalle gives nothing.  That is k3 at the edge of the design
        # set, where P's closed form divides by rounding noise, yet the
        # local checks, relative to the huge P and q_local, still pass
        top, ctrls = pair
        params = top.dgus[1]
        k = np.array(ctrls[1].k)
        delta = -params.l_t / (k[0] - 1.0)
        k[1] = params.r_t - delta * k[2]
        ctrl = LocalController(k, {}, params, 10.0)
        assert abs(ctrl.delta - delta) <= 1e-9 * abs(delta)
        bad = {1: ctrl, 2: ctrls[2]}
        verdict = check_theorem1(check_global(bad, top, 10.0), top)
        assert verdict.verdict == FAIL
        holds, margin = verdict.facts["lasalle_invariance"]
        assert not holds and margin <= 1e-9


class TestLasalleKernel:
    def test_pair_nullity(self, pair_cert):
        report = check_lasalle_kernel(pair_cert)
        assert report.passed
        assert report.nullity == 3
        assert report.max_principal_angle <= 1e-6
        # a kernel basis one vector short fails on its nullity alone
        short = dataclasses.replace(
            pair_cert, kernel_voltage=pair_cert.kernel_voltage[:, 1:])
        report = check_lasalle_kernel(short)
        assert not report.passed
        assert (report.nullity, report.expected_nullity) == (2, 3)
        assert report.max_principal_angle == np.pi / 2.0

    def test_nan_delta_fails(self, pair_cert):
        # the kernel comes from Q alone; delta enters only the prediction
        bad = dataclasses.replace(pair_cert,
                                  delta=np.array([np.nan, pair_cert.delta[1]]))
        report = check_lasalle_kernel(bad)
        assert not report.passed
        assert np.isnan(report.max_principal_angle)

    def test_single_dgu(self):
        params = dgu(0.3, 2.5e-3, 1.9e-3)
        top = MicrogridTopology({1: params}, ())
        ctrl = synthesize(augmented_dgu(params), params, CFG)
        cert = check_global({1: ctrl}, top, 10.0)
        report = check_lasalle_kernel(cert)
        assert report.nullity == 2
        assert report.passed
        # basis spans {e1, [0, 1, delta]}
        target = np.zeros((3, 2))
        target[0, 0] = 1.0
        target[1, 1] = 1.0
        target[2, 1] = ctrl.delta
        tq, _ = np.linalg.qr(target)
        sv = np.linalg.svd(dense_kernel_basis(cert).T @ tq, compute_uv=False)
        assert np.min(sv) >= 1.0 - 1e-10


class TestExport:
    def test_json_fields(self, pair, pair_cert):
        top, _ = pair
        verdict = check_theorem1(pair_cert, top)
        kernel = check_lasalle_kernel(pair_cert)
        doc = certificate_to_json(pair_cert, verdict, kernel)
        assert doc["theorem1"]["verdict"] == PASS
        assert doc["lasalle_kernel"]["nullity"] == 3
        assert doc["kernel_dimension"] == 3
        assert "q_global_max_eig" in doc["checks"]
        json.dumps(doc)  # everything must be serializable
