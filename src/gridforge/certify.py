"""Network-level stability certification from per-DGU certificates.

The collective Lyapunov function V(x) = x'Px with P = blockdiag(P_i) has
derivative matrix Q = F'P + PF along the closed loop F.  Q splits into a
block-diagonal part (the local certificates) plus a coupling part whose
only nonzero rows are the voltage rows; compressing those rows yields an
N x N weighted graph Laplacian, negative semidefinite with the all-ones
kernel on a connected grid.

Every local certificate has a zero first row and column, so Q is a direct
sum: one N x N block on the voltage coordinates, plus one 2 x 2 block on
each unit's (I, v) pair.  Everything here re-derives that chain
numerically, independent of how the controllers were obtained: products
with P go block by block, and Q's spectrum and kernel come from the
pieces of the direct sum, with what the split drops measured and bounded.
The one dense eigensolve left is the closed-loop spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .lmi import general_eig, sym_eig
from .model import MicrogridTopology, assemble_global, closed_loop
from .synthesis import LocalController

PASS = "Pass"
FAIL = "Fail"
HYPOTHESIS_UNMET = "HypothesisUnmet"

# one semidefiniteness tolerance for the whole module
def _eps(m: np.ndarray) -> float:
    return 1e-8 * (1.0 + np.linalg.norm(m))


@dataclass(frozen=True)
class LocalStructureReport:
    """Outcome of the structural checks on one local certificate."""

    passed: bool
    max_violation: float
    q_max_eig: float
    q11: float
    first_row_max: float
    smallest_abs_eig: float


@dataclass(frozen=True)
class GlobalCertificate:
    """Assembled global Lyapunov data plus measured check margins.

    checks maps a check name to its measured value; each is compared
    against the module tolerance by the check_* functions.  It also
    records closed_loop_norm, the scale check_theorem1 judges the
    spectral abscissa against.
    """

    p_global: np.ndarray
    q_global: np.ndarray
    block_a: np.ndarray
    block_bc: np.ndarray
    laplacian: np.ndarray
    eta_tilde: Mapping[Tuple[int, int], float]
    spectra: Mapping[str, np.ndarray]
    kernel_basis: np.ndarray
    checks: Mapping[str, float]

    def q_negative_semidefinite(self) -> bool:
        # Weyl: the largest eigenvalue of Q is at most that of its direct
        # sum plus the norm of what the split drops (Frobenius bounds 2-norm)
        dropped = np.linalg.norm(_direct_sum(self.q_global)[2])
        return (self.checks["q_global_max_eig"] + dropped
                <= _eps(self.q_global))


@dataclass(frozen=True)
class Theorem1Verdict:
    verdict: str
    spectral_abscissa: Optional[float]


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
    to vanish and guarantees a zero eigenvalue.
    """
    q = np.asarray(ctrl.q_local)
    eps = _eps(q)
    w, _ = sym_eig(q)
    row = float(np.max(np.abs(q[0, :])))
    col = float(np.max(np.abs(q[:, 0])))
    q11 = float(q[0, 0])
    violations = [w[-1] - eps, abs(q11) - eps, row - eps, col - eps,
                  float(np.min(np.abs(w))) - eps]
    return LocalStructureReport(
        passed=all(v <= 0.0 for v in violations),
        max_violation=max(max(violations), 0.0),
        q_max_eig=float(w[-1]),
        q11=q11,
        first_row_max=max(row, col),
        smallest_abs_eig=float(np.min(np.abs(w))),
    )


def _direct_sum(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(voltage block, unit blocks, dropped entries) of a 3N x 3N matrix.

    The voltage block is N x N, the unit blocks an (N, 2, 2) stack of the
    (I, v) diagonal blocks; the dropped entries are the rest: voltage
    against (I, v) coordinates, and (I, v) pairs of different units.
    """
    n = len(q) // 3
    blocks = q.reshape(n, 3, n, 3)
    idx = np.arange(n)
    cross = blocks[:, 1:, :, 1:].copy()
    cross[idx, :, idx, :] = 0.0
    dropped = np.concatenate([blocks[:, 0, :, 1:].ravel(),
                              blocks[:, 1:, :, 0].ravel(), cross.ravel()])
    return q[::3, ::3], blocks[idx, 1:, idx, 1:], dropped


def _times_p(p_blocks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P @ m for P = blockdiag(p_blocks), one 3-row block at a time."""
    n = len(p_blocks)
    return np.matmul(p_blocks, m.reshape(n, 3, 3 * n)).reshape(3 * n, 3 * n)


def build_laplacian(topology: MicrogridTopology, sigma_bar: float,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, M, G): coupling Laplacian, its diagonal and off-diagonal parts.

    Off-diagonal weights are 2*sigma_bar/R_ij per line; the diagonal is
    the exact negative row sum, so L = M + G has zero row sums bitwise.
    """
    ids = topology.ids
    pos = {dgu_id: k for k, dgu_id in enumerate(ids)}
    n = len(ids)
    g = np.zeros((n, n))
    for ln in topology.lines:
        w = 2.0 * sigma_bar / ln.r
        g[pos[ln.i], pos[ln.j]] = w
        g[pos[ln.j], pos[ln.i]] = w
    m = np.diag(-np.sum(g, axis=1))
    return m + g, m, g


def eta_tilde_map(topology: MicrogridTopology, sigma_bar: float,
                  ) -> Dict[Tuple[int, int], float]:
    out = {}
    for ln in topology.lines:
        out[(ln.i, ln.j)] = sigma_bar / ln.r
        out[(ln.j, ln.i)] = sigma_bar / ln.r
    return out


def check_global(controllers: Mapping[int, LocalController],
                 topology: MicrogridTopology,
                 sigma_bar: float) -> GlobalCertificate:
    """Assemble and measure the global Lyapunov decomposition.

    Hard errors: a local certificate failing its structure checks, or
    controllers whose eta values imply different sigma_bar (the coupling
    weights then lose their symmetry and nothing downstream holds).
    Semidefiniteness findings are recorded in the certificate, not raised.
    """
    ids = topology.ids
    if set(controllers) != set(ids):
        raise ValueError("controllers must cover exactly the topology's DGUs")
    reports = [check_local_structure(controllers[dgu_id]) for dgu_id in ids]
    for dgu_id, report in zip(ids, reports):
        if not report.passed:
            raise ValueError(f"local certificate of DGU {dgu_id} fails "
                             f"structure checks (violation {report.max_violation:g})")

    # eta symmetry across each line; breaks iff sigma_bar is not shared
    for ln in topology.lines:
        fwd = controllers[ln.i].eta / (ln.r * topology.dgus[ln.i].c_t)
        bwd = controllers[ln.j].eta / (ln.r * topology.dgus[ln.j].c_t)
        if abs(fwd - bwd) > 1e-9 * max(abs(fwd), abs(bwd)):
            raise ValueError(
                f"eta_tilde asymmetric across line {ln.key}: {fwd:g} vs {bwd:g}; "
                "controllers were synthesized with different sigma_bar")

    system = assemble_global(topology)
    n = len(ids)
    p_blocks = np.array([controllers[dgu_id].p for dgu_id in ids], dtype=float)
    p_global = np.zeros((3 * n, 3 * n))
    block_a = np.zeros((3 * n, 3 * n))
    for idx, dgu_id in enumerate(ids):
        s = slice(3 * idx, 3 * idx + 3)
        p_global[s, s] = p_blocks[idx]
        block_a[s, s] = controllers[dgu_id].q_local

    f_global = closed_loop(system, controllers)
    pf = _times_p(p_blocks, f_global)
    q_global = pf + pf.T

    pc = _times_p(p_blocks, system.a_xi + system.a_c)
    block_bc = pc + pc.T

    laplacian, _, _ = build_laplacian(topology, sigma_bar)
    # the coupling quadratic form lives on the voltage rows alone; its
    # restriction there must be the Laplacian entrywise
    expansion_err = float(np.max(np.abs(
        block_bc[::3, :][:, ::3] - laplacian)))
    mask = np.ones(3 * n, dtype=bool)
    mask[::3] = False
    offrow_err = float(np.max(np.abs(block_bc[mask, :]))) if n else 0.0

    q_volt, q_units, dropped = _direct_sum(q_global)
    bc_volt, bc_units, bc_dropped = _direct_sum(block_bc)
    w_volt, v_volt = sym_eig(q_volt)
    w_units, v_units = sym_eig(q_units)
    w_q = np.sort(np.concatenate([w_volt, w_units.ravel()]))
    tol = 1e-7 * np.linalg.norm(q_global)
    in_volt = np.abs(w_volt) <= tol
    unit, which = np.nonzero(np.abs(w_units) <= tol)
    # each kernel vector lives on one piece: the voltage coordinates, or
    # one unit's (I, v) pair
    m = np.count_nonzero(in_volt)
    kernel_basis = np.zeros((3 * n, m + len(unit)))
    kernel_basis[::3, :m] = v_volt[:, in_volt]
    cols = m + np.arange(len(unit))
    kernel_basis[3 * unit + 1, cols] = v_units[unit, 0, which]
    kernel_basis[3 * unit + 2, cols] = v_units[unit, 1, which]

    checks = {
        # block_a is the block diagonal of the q_local: its spectrum is
        # theirs, already measured per unit
        "block_a_max_eig": max(r.q_max_eig for r in reports),
        # both spectra are those of the direct sums; the largest entry the
        # two splits drop is direct_sum_residual
        "block_bc_max_eig": float(max(np.linalg.eigvalsh(bc_volt)[-1],
                                      np.max(np.linalg.eigvalsh(bc_units)))),
        "q_global_max_eig": float(w_q[-1]),
        "direct_sum_residual": float(max(np.max(np.abs(dropped)),
                                         np.max(np.abs(bc_dropped)))),
        "split_residual": float(np.max(np.abs(q_global - block_a - block_bc))),
        "laplacian_expansion_error": expansion_err,
        "coupling_nonvoltage_rows": offrow_err,
        "closed_loop_norm": float(np.linalg.norm(f_global)),
    }
    spectra = {
        "q_global": w_q,
        "closed_loop": general_eig(f_global),
    }
    return GlobalCertificate(
        p_global=p_global,
        q_global=q_global,
        block_a=block_a,
        block_bc=block_bc,
        laplacian=laplacian,
        eta_tilde=eta_tilde_map(topology, sigma_bar),
        spectra=spectra,
        kernel_basis=kernel_basis,
        checks=checks,
    )


def check_theorem1(cert: GlobalCertificate,
                   controllers: Mapping[int, LocalController],
                   topology: MicrogridTopology) -> Theorem1Verdict:
    """Asymptotic-stability verdict for the assembled closed loop.

    Pass needs a connected grid, every k3 nonzero, Q globally negative
    semidefinite, and the whole closed-loop spectrum strictly in the left
    half plane.  Strictness is judged against the eigensolver noise floor
    (1e-12 times the closed-loop norm, four decades above machine noise):
    integrator consensus modes sit at -1e-5 or slower in stiff grids and
    must not be mistaken for marginal instability.
    """
    if not topology.is_connected():
        return Theorem1Verdict(HYPOTHESIS_UNMET, None)
    eigs = cert.spectra["closed_loop"]
    abscissa = float(np.max(eigs.real))
    k3_ok = all(abs(c.k[2]) > 1e-9 * np.linalg.norm(c.k)
                for c in controllers.values())
    q_ok = cert.q_negative_semidefinite()
    stable = abscissa < -1e-12 * cert.checks["closed_loop_norm"]
    verdict = PASS if (k3_ok and q_ok and stable) else FAIL
    return Theorem1Verdict(verdict, abscissa)


def check_lasalle_kernel(cert: GlobalCertificate,
                         controllers: Mapping[int, LocalController],
                         ) -> KernelReport:
    """Compare Ker(Q) against its predicted generators.

    Prediction: one vector with every voltage slot equal and the rest
    zero, plus one [0, 1, delta_i] direction per DGU; together N+1
    dimensions.  Agreement is measured by the largest principal angle.
    Both bases split along Q's direct sum, each vector on one piece (the
    voltage coordinates, or one unit's (I, v) pair), so the principal
    angles are those of the pieces.  Each is the angle between a piece's
    predicted unit vector and the basis vectors on that piece, taken from
    the length of the part the projection misses (accurate near zero).
    """
    n = len(controllers)
    numerical = cert.kernel_basis
    nullity = numerical.shape[1]
    expected = n + 1
    if nullity != expected:
        return KernelReport(False, nullity, expected, np.pi / 2.0)

    blocks = numerical.reshape(n, 3, nullity)
    volt, pairs = blocks[:, 0, :], blocks[:, 1:, :]
    pieces = np.any(volt != 0.0, axis=0) + np.count_nonzero(
        np.any(pairs != 0.0, axis=1), axis=0)
    if np.any(pieces != 1):
        raise ValueError("kernel basis does not split along Q's direct sum")
    ones = np.full(n, 1.0 / np.sqrt(n))
    delta = np.array([controllers[i].delta for i in sorted(controllers)])
    pair = np.stack([np.ones(n), delta], axis=1) / np.hypot(1.0, delta)[:, None]
    missed_volt = ones - volt @ (ones @ volt)
    missed_pair = pair - np.einsum("ijk,ik->ij", pairs,
                                   np.einsum("ij,ijk->ik", pair, pairs))
    sine = max(np.linalg.norm(missed_volt),
               np.max(np.linalg.norm(missed_pair, axis=1)))
    max_angle = float(np.arcsin(min(sine, 1.0)))
    return KernelReport(max_angle <= 1e-6, nullity, expected, max_angle)


def certificate_to_json(cert: GlobalCertificate,
                        theorem1: Optional[Theorem1Verdict] = None,
                        kernel: Optional[KernelReport] = None) -> dict:
    doc = {
        "checks": dict(cert.checks),
        "q_global_eigenvalues": cert.spectra["q_global"].tolist(),
        "closed_loop_eigenvalues": [
            [z.real, z.imag] for z in cert.spectra["closed_loop"]
        ],
        "laplacian": cert.laplacian.tolist(),
        "eta_tilde": {f"{i}-{j}": v for (i, j), v in cert.eta_tilde.items()},
        "kernel_dimension": int(cert.kernel_basis.shape[1]),
    }
    if theorem1 is not None:
        doc["theorem1"] = {
            "verdict": theorem1.verdict,
            "spectral_abscissa": theorem1.spectral_abscissa,
        }
    if kernel is not None:
        doc["lasalle_kernel"] = {
            "passed": kernel.passed,
            "nullity": kernel.nullity,
            "expected_nullity": kernel.expected_nullity,
            "max_principal_angle": kernel.max_principal_angle,
        }
    return doc
