"""Network-level stability certification from per-DGU certificates.

The collective Lyapunov function V(x) = x'Px with P = blockdiag(P_i) has
derivative matrix Q = F'P + PF along the closed loop F.  Q splits into a
block-diagonal part (the local certificates) plus a coupling part whose
only nonzero rows are the voltage rows; compressing those rows yields an
N x N weighted graph Laplacian, negative semidefinite with the all-ones
kernel on a connected grid.

Every local certificate has a zero first row and column, so Q is a direct
sum: one N x N block on the voltage coordinates, plus one 2 x 2 block on
each unit's (I, v) pair.  Everything here works from block data: the
(N, 3, 3) stacks of P_i, q_i and the closed-loop unit blocks, all
derived from the gains and the topology alone, and the grid's line
arrays.  Q's pieces come from P's stack and the lines in
O(N + lines), what the split drops is measured and bounded, and the local
checks (synthesis.check_local_stacks) run as one batched eigensolve.

Theorem 1's verdict is read from that structure (check_theorem1).  Take
x = alpha 1_V + sum_i beta_i (0, 1, delta_i) in ker Q.  Fx has voltage
part beta_i / C_i and unit part alpha (b_i, -1), b_i = (k1_i - 1) / L_t;
Fx stays in ker Q only if alpha (1 + delta_i b_i) = 0, and the same step
on F^2 x forces beta = 0.  So when Q <= 0 and ker Q is the predicted
N + 1 dimensions, the largest F-invariant subspace of ker Q is {0} as
soon as every 1 + delta_i b_i is nonzero, and LaSalle's invariance
theorem gives asymptotic stability.  The closed-loop spectrum is only a
cross-check, computed up to SPECTRUM_MAX_UNITS units: it can refute the
proof, never decide it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .lmi import general_eig, sym_eig
from .model import (Gain, GlobalSystem, MicrogridTopology, assemble_global,
                    closed_loop_blocks, gain_row)
from .synthesis import (K3_FLOOR, LocalController, check_local_stacks,
                        local_certificate, local_dissipation,
                        semidefinite_eps)

PASS = "Pass"
FAIL = "Fail"
HYPOTHESIS_UNMET = "HypothesisUnmet"

# the closed-loop spectrum, an O(N^3) cross-check, runs up to this many
# units; above it spectral_abscissa is None
SPECTRUM_MAX_UNITS = 200


def _frobenius(*pieces: np.ndarray) -> float:
    """Frobenius norm of a matrix given as pieces that cover its entries."""
    return float(np.sqrt(sum(np.vdot(x, x) for x in pieces)))


@dataclass(frozen=True)
class LocalStructureReport:
    """Outcome of the structural checks on one local certificate."""

    passed: bool
    max_violation: float
    q_max_eig: float
    q11: float
    first_row_max: float
    smallest_abs_eig: float
    p_min_eig: float


@dataclass(frozen=True)
class GlobalCertificate:
    """The global Lyapunov data as the pieces of Q's direct sum, plus
    measured check margins and the unit data the verdict reads.

    q_voltage is Q's N x N voltage block, q_units the (N, 2, 2) stack of
    its (I, v) blocks, and q_dropped every other entry the split leaves
    out that can be nonzero.  line_weights are q_voltage's off-diagonal
    entries, one per line in topology order.  Ker Q is stored in the same
    pieces: the columns of kernel_voltage (N x m) are the voltage block's
    null vectors, and row t of kernel_pairs is a null vector of the
    (I, v) block of the unit at position kernel_units[t].  checks maps a
    name to its measured value: q_nsd_margin reads q_global_max_eig, and
    check_theorem1 p_min_eig and closed_loop_norm (the scale it judges the
    spectral abscissa against); the other six are recorded diagnostics.
    gains is the (N, 3) stack of gain rows and delta each unit's kernel
    ratio, in id order; local_certificates is whether every unit's q_i
    and P_i pass check_local_stacks.  stage_seconds holds the wall time
    of each stage of check_global.
    """

    q_voltage: np.ndarray
    q_units: np.ndarray
    q_dropped: np.ndarray
    line_weights: np.ndarray
    laplacian: np.ndarray
    spectra: Mapping[str, Optional[np.ndarray]]
    kernel_voltage: np.ndarray
    kernel_units: np.ndarray
    kernel_pairs: np.ndarray
    checks: Mapping[str, float]
    gains: np.ndarray
    delta: np.ndarray
    local_certificates: bool
    stage_seconds: Mapping[str, float]

    @property
    def kernel_dimension(self) -> int:
        return self.kernel_voltage.shape[1] + len(self.kernel_units)

    @property
    def q_norm(self) -> float:
        """Frobenius norm of Q: the dropped entries are stored once per
        position, so the pieces cover Q exactly."""
        return _frobenius(self.q_voltage, self.q_units, self.q_dropped)

    def q_nsd_margin(self) -> float:
        """The semidefiniteness tolerance of Q minus a bound on its largest
        eigenvalue.  Weyl: that eigenvalue is at most the direct sum's
        plus the norm of what the split drops (Frobenius bounds 2-norm)."""
        return (semidefinite_eps(self.q_norm) - self.checks["q_global_max_eig"]
                - _frobenius(self.q_dropped))

    def q_negative_semidefinite(self) -> bool:
        return self.q_nsd_margin() >= 0.0


@dataclass(frozen=True)
class Theorem1Verdict:
    """The verdict, the spectral abscissa it was cross-checked against
    (None above SPECTRUM_MAX_UNITS or on an unmet hypothesis), and each
    structural fact as (holds, margin)."""

    verdict: str
    spectral_abscissa: Optional[float]
    facts: Mapping[str, Tuple[bool, Optional[float]]]


@dataclass(frozen=True)
class KernelReport:
    passed: bool
    nullity: int
    expected_nullity: int
    max_principal_angle: float


def check_local_structure(ctrl: LocalController) -> LocalStructureReport:
    """Structural facts every local certificate must satisfy.

    q_local is negative semidefinite but never definite: its first
    diagonal entry vanishes, which forces the whole first row and column
    to vanish and guarantees a zero eigenvalue.  P is symmetric positive
    definite.  This is check_local_stacks on a stack of one, passed by
    every grant of synthesize*; check_global records it on every unit.
    """
    one = check_local_stacks(ctrl.q_local[None], ctrl.p[None])
    return LocalStructureReport(**{k: v[0].item() for k, v in one.items()})


def build_laplacian(topology: MicrogridTopology,
                    sigma_bar: float) -> np.ndarray:
    """The coupling Laplacian L.

    Off-diagonal weights are 2*sigma_bar/R_ij per line; the diagonal is
    the exact negative row sum of the off-diagonal weights.
    """
    ids = topology.ids
    pos = {dgu_id: k for k, dgu_id in enumerate(ids)}
    n = len(ids)
    g = np.zeros((n, n))
    for ln in topology.lines:
        w = 2.0 * sigma_bar / ln.r
        g[pos[ln.i], pos[ln.j]] = w
        g[pos[ln.j], pos[ln.i]] = w
    return np.diag(-np.sum(g, axis=1)) + g


def _voltage_block(diagonal: np.ndarray, system: GlobalSystem,
                   line_weights: np.ndarray) -> np.ndarray:
    n = len(diagonal)
    out = np.zeros((n, n))
    out[np.arange(n), np.arange(n)] = diagonal
    out[system.line_i, system.line_j] = line_weights
    out[system.line_j, system.line_i] = line_weights
    return out


def check_global(controllers: Mapping[int, Gain],
                 topology: MicrogridTopology,
                 sigma_bar: float) -> GlobalCertificate:
    """Measure the global Lyapunov decomposition from block data.

    Only the controllers' gain rows are read (model.gain_row).  P_i and
    delta_i come from them by one stacked synthesis.local_certificate
    against the topology's units and sigma_bar, so eta_i = sigma_bar C_i.

    Write F = blockdiag(F_i) + C, with C the line conductances g between
    voltage slots, and p0_i the first column of P_i.  Then Q's diagonal
    blocks are P_i F_i + (P_i F_i)', and the off-diagonal block of a line
    (i, j) is g_ij p0_i e0' + g_ji e0 p0_j': its voltage entry
    g_ij eta_i + g_ji eta_j goes to the voltage block, the rest is
    dropped.  The line part PC + (PC)' has the same off-diagonal blocks
    and the diagonal blocks xi_i (p0_i e0' + e0 p0_i'), xi_i the unit's
    QSL self term, so its (I, v) blocks are zero.

    Hard errors: controllers not covering exactly the topology's units,
    and a gain outside the local design set, which admits no P (`DGU
    <id>: gain outside the local design set: <bound>`).  The local
    structure and semidefiniteness findings are recorded, not raised.
    """
    start = time.perf_counter()
    ids = topology.ids
    if set(controllers) != set(ids):
        raise ValueError("controllers must cover exactly the topology's DGUs")
    gains = np.array([gain_row(controllers[dgu_id]) for dgu_id in ids],
                     dtype=float).reshape(-1, 3)
    units = [topology.dgus[dgu_id] for dgu_id in ids]
    p, delta = local_certificate(gains, *(
        np.array([getattr(u, name) for u in units], dtype=float)
        for name in ("r_t", "l_t", "c_t")), sigma_bar, ids)
    system = assemble_global(topology)
    q_local = local_dissipation(system.unit_a, system.unit_b, gains, p)
    local = check_local_stacks(q_local, p)
    seconds = {"local checks": time.perf_counter() - start}

    start = time.perf_counter()
    li, lj = system.line_i, system.line_j
    f_blocks = closed_loop_blocks(system, controllers)
    pf = p @ f_blocks
    q_diag = pf + np.swapaxes(pf, 1, 2)
    p0 = p[:, :, 0]
    line_weights = p0[li, 0] * system.g_i + p0[lj, 0] * system.g_j
    # V x (I, v) entries of each line's off-diagonal block; each sits at
    # two positions of Q and of the line part, (i, j) and (j, i)
    line_dropped = np.concatenate([system.g_i[:, None] * p0[li, 1:],
                                   system.g_j[:, None] * p0[lj, 1:]]).ravel()
    q_voltage = _voltage_block(q_diag[:, 0, 0], system, line_weights)
    q_units = q_diag[:, 1:, 1:]
    q_dropped = np.concatenate([q_diag[:, 0, 1:].ravel(),
                                q_diag[:, 1:, 0].ravel(),
                                line_dropped, line_dropped])

    # the line part: xi_i P_i e0 e0' plus its transpose on the diagonal
    own = p0 * system.self_terms[:, None]
    bc_diag = np.zeros_like(p)
    bc_diag[:, :, 0] += own
    bc_diag[:, 0, :] += own
    # its (I, v) blocks are zero, so its spectrum is its voltage block's
    # and zero
    bc_max_eig = max(np.linalg.eigvalsh(_voltage_block(
        bc_diag[:, 0, 0], system, line_weights))[-1], 0.0)

    laplacian = build_laplacian(topology, sigma_bar)
    # the coupling quadratic form lives on the voltage rows alone; its
    # restriction there must be the Laplacian entrywise (both vanish off
    # the diagonal and the lines; both are symmetric, so one triangle of
    # the lines will do)
    expansion_err = float(np.max(np.abs(np.concatenate([
        bc_diag[:, 0, 0] - np.diagonal(laplacian),
        line_weights - laplacian[li, lj]]))))
    offrow_err = float(np.max(np.abs(np.concatenate(
        [own[:, 1:].ravel(), line_dropped])), initial=0.0))

    w_volt, v_volt = sym_eig(q_voltage)
    w_units, v_units = sym_eig(q_units)
    w_q = np.sort(np.concatenate([w_volt, w_units.ravel()]))
    # numerical rank per piece, against that piece's spectral norm: the
    # unit blocks can be orders of magnitude larger than the voltage
    # block, whose smallest nonzero eigenvalue shrinks like 1/N^2 on a
    # long chain
    in_volt = np.abs(w_volt) <= 1e-7 * np.max(np.abs(w_volt), initial=0.0)
    kernel_voltage = v_volt[:, in_volt]
    del v_volt  # N x N; only the null vectors are kept
    kernel_units, which = np.nonzero(np.abs(w_units) <= 1e-7 * np.max(
        np.abs(w_units), axis=1, keepdims=True, initial=0.0))

    checks = {
        # the block diagonal of the q_local: its spectrum is theirs,
        # measured by the local checks
        "block_a_max_eig": float(np.max(local["q_max_eig"])),
        # the largest entry the two splits drop is direct_sum_residual;
        # the line part's are coupling_nonvoltage_rows
        "block_bc_max_eig": float(bc_max_eig),
        "q_global_max_eig": float(w_q[-1]),
        "direct_sum_residual": float(max(np.max(np.abs(q_dropped)),
                                         offrow_err)),
        # Q and the line part share their off-diagonal blocks, so Q minus
        # the two parts can differ from zero only on the diagonal blocks
        "split_residual": float(np.max(np.abs(q_diag - q_local - bc_diag))),
        "laplacian_expansion_error": expansion_err,
        "coupling_nonvoltage_rows": offrow_err,
        "p_min_eig": float(np.min(local["p_min_eig"])),
    }
    seconds["Q pieces"] = time.perf_counter() - start

    start = time.perf_counter()
    if len(f_blocks) > SPECTRUM_MAX_UNITS:
        # no dense F: its norm is read off the blocks and the conductances
        spectrum = None
        checks["closed_loop_norm"] = _frobenius(f_blocks, system.g_i,
                                                system.g_j)
    else:
        f_global = system.expand(f_blocks)
        spectrum = general_eig(f_global)
        checks["closed_loop_norm"] = float(np.linalg.norm(f_global))
    seconds["spectrum"] = time.perf_counter() - start
    return GlobalCertificate(
        q_voltage=q_voltage,
        q_units=q_units,
        q_dropped=q_dropped,
        line_weights=line_weights,
        laplacian=laplacian,
        spectra={"q_global": w_q, "closed_loop": spectrum},
        kernel_voltage=kernel_voltage,
        kernel_units=kernel_units,
        kernel_pairs=v_units[kernel_units, :, which],
        checks=checks,
        gains=gains,
        delta=delta,
        local_certificates=bool(np.all(local["passed"])),
        stage_seconds=seconds,
    )


def check_theorem1(cert: GlobalCertificate,
                   topology: MicrogridTopology,
                   kernel: Optional[KernelReport] = None) -> Theorem1Verdict:
    """Asymptotic-stability verdict for the assembled closed loop, read
    from the structure (see the module docstring).

    Pass needs every fact below, each recorded with its margin:
    a connected grid whose lines all carry positive weight in Q; local
    certificates that pass their checks with every P_i > 0; Q <= 0 by the
    direct sum plus the Weyl term; a LaSalle kernel of the predicted
    N + 1 dimensions; every |k3| above 1e-9 |k|; and every
    |1 + delta_i b_i| above 1e-9 (1 + |delta_i b_i|), b_i = (k1_i - 1) / L_t.

    The closed-loop spectrum, when computed, is a cross-check.  One
    eigenvalue above the eigensolver noise floor (1e-12 times the
    closed-loop norm, four decades above machine noise) contradicts the
    proof and fails the verdict; an abscissa within that floor of zero
    does not, since stiff grids put integrator consensus modes there.
    """
    if kernel is None:
        kernel = check_lasalle_kernel(cert)
    k, delta = cert.gains, cert.delta
    l_t = np.array([topology.dgus[i].l_t for i in topology.ids], dtype=float)
    k_norm = np.linalg.norm(k, axis=1)
    k3 = np.divide(np.abs(k[:, 2]), k_norm, out=np.zeros(len(k)),
                   where=k_norm > 0.0)
    delta_b = delta * (k[:, 0] - 1.0) / l_t
    invariance = np.abs(1.0 + delta_b)
    weights = cert.line_weights
    facts = {
        "connected": (topology.is_connected(), None),
        "positive_line_weights": (
            bool(np.all(weights > 0.0)),
            float(np.min(weights)) if len(weights) else None),
        "local_certificates": (cert.local_certificates,
                               cert.checks["p_min_eig"]),
        "q_negative_semidefinite": (cert.q_negative_semidefinite(),
                                    cert.q_nsd_margin()),
        "lasalle_kernel": (kernel.passed, kernel.max_principal_angle),
        "k3_nonzero": (bool(np.all(np.abs(k[:, 2]) > K3_FLOOR * k_norm)),
                       float(np.min(k3))),
        # nonzero above the rounding of 1 + delta b
        "lasalle_invariance": (
            bool(np.all(invariance > 1e-9 * (1.0 + np.abs(delta_b)))),
            float(np.min(invariance))),
    }
    if not facts["connected"][0]:
        return Theorem1Verdict(HYPOTHESIS_UNMET, None, facts)
    proved = all(holds for holds, _ in facts.values())
    eigs = cert.spectra["closed_loop"]
    if eigs is None:
        return Theorem1Verdict(PASS if proved else FAIL, None, facts)
    abscissa = float(np.max(eigs.real))
    refuted = abscissa > 1e-12 * cert.checks["closed_loop_norm"]
    verdict = PASS if (proved and not refuted) else FAIL
    return Theorem1Verdict(verdict, abscissa, facts)


def check_lasalle_kernel(cert: GlobalCertificate) -> KernelReport:
    """Compare Ker(Q) against its predicted generators.

    Prediction: one vector with every voltage slot equal and the rest
    zero, plus one [0, 1, delta_i] direction per DGU; together N+1
    dimensions.  Agreement is measured by the largest principal angle.
    Both bases split along Q's direct sum, each vector on one piece (the
    voltage coordinates, or one unit's (I, v) pair), and the certificate
    stores its basis in those pieces, so the principal angles are those
    of the pieces.  Each is the angle between a piece's predicted unit
    vector and the basis vectors on that piece, taken from the length of
    the part the projection misses (accurate near zero).
    """
    n = len(cert.delta)
    nullity = cert.kernel_dimension
    expected = n + 1
    if nullity != expected:
        return KernelReport(False, nullity, expected, np.pi / 2.0)

    volt, units, pairs = (cert.kernel_voltage, cert.kernel_units,
                          cert.kernel_pairs)
    ones = np.full(n, 1.0 / np.sqrt(n))
    delta = cert.delta
    pair = np.stack([np.ones(n), delta], axis=1) / np.hypot(1.0, delta)[:, None]
    missed_volt = ones - volt @ (ones @ volt)
    projected = np.zeros_like(pair)
    np.add.at(projected, units,
              pairs * np.einsum("ij,ij->i", pair[units], pairs)[:, None])
    missed_pair = pair - projected
    # np.maximum, not max: a NaN (from a NaN delta) must fail the fact
    sine = np.maximum(np.linalg.norm(missed_volt),
                      np.max(np.linalg.norm(missed_pair, axis=1)))
    max_angle = float(np.arcsin(np.minimum(sine, 1.0)))
    return KernelReport(max_angle <= 1e-6, nullity, expected, max_angle)


def certificate_to_json(cert: GlobalCertificate,
                        theorem1: Optional[Theorem1Verdict] = None,
                        kernel: Optional[KernelReport] = None) -> dict:
    spectrum = cert.spectra["closed_loop"]
    doc = {
        "checks": dict(cert.checks),
        "q_global_eigenvalues": cert.spectra["q_global"].tolist(),
        "closed_loop_eigenvalues": None if spectrum is None else [
            [z.real, z.imag] for z in spectrum
        ],
        "laplacian": cert.laplacian.tolist(),
        "kernel_dimension": cert.kernel_dimension,
    }
    if theorem1 is not None:
        doc["theorem1"] = {
            "verdict": theorem1.verdict,
            "spectral_abscissa": theorem1.spectral_abscissa,
            "facts": {name: {"holds": bool(holds), "margin": margin}
                      for name, (holds, margin) in theorem1.facts.items()},
        }
    if kernel is not None:
        doc["lasalle_kernel"] = {
            "passed": kernel.passed,
            "nullity": kernel.nullity,
            "expected_nullity": kernel.expected_nullity,
            "max_principal_angle": kernel.max_principal_angle,
        }
    return doc
