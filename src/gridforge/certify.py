"""Network-level stability certification from per-DGU certificates.

The collective Lyapunov function V(x) = x'Px with P = blockdiag(P_i) has
derivative matrix Q = F'P + PF along the closed loop F.  Q splits into a
block-diagonal part (the local certificates) plus a coupling part whose
only nonzero rows are the voltage rows; compressing those rows yields an
N x N weighted graph Laplacian, negative semidefinite with the all-ones
kernel on a connected grid.  Everything here re-derives that chain
numerically, by eigenvalue computations on explicitly assembled matrices,
independent of how the controllers were obtained.
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
        return self.checks["q_global_max_eig"] <= _eps(self.q_global)


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
    p_global = np.zeros((3 * n, 3 * n))
    block_a = np.zeros((3 * n, 3 * n))
    for idx, dgu_id in enumerate(ids):
        s = slice(3 * idx, 3 * idx + 3)
        p_global[s, s] = controllers[dgu_id].p
        block_a[s, s] = controllers[dgu_id].q_local

    f_global = closed_loop(system, controllers)
    q_global = f_global.T @ p_global + p_global @ f_global

    coupling = system.a_xi + system.a_c
    block_bc = coupling.T @ p_global + p_global @ coupling

    laplacian, _, _ = build_laplacian(topology, sigma_bar)
    # the coupling quadratic form lives on the voltage rows alone; its
    # restriction there must be the Laplacian entrywise
    expansion_err = float(np.max(np.abs(
        block_bc[::3, :][:, ::3] - laplacian)))
    mask = np.ones(3 * n, dtype=bool)
    mask[::3] = False
    offrow_err = float(np.max(np.abs(block_bc[mask, :]))) if n else 0.0

    w_q, vecs = sym_eig(q_global)
    kernel_cols = np.abs(w_q) <= 1e-7 * np.linalg.norm(q_global)
    kernel_basis = vecs[:, kernel_cols]

    checks = {
        # block_a is the block diagonal of the q_local: its spectrum is
        # theirs, already measured per unit
        "block_a_max_eig": max(r.q_max_eig for r in reports),
        "block_bc_max_eig": float(sym_eig(block_bc)[0][-1]),
        "q_global_max_eig": float(w_q[-1]),
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
    """
    n = len(controllers)
    numerical = cert.kernel_basis
    nullity = numerical.shape[1]
    expected = n + 1

    predicted = np.zeros((3 * n, expected))
    predicted[::3, 0] = 1.0
    for idx, dgu_id in enumerate(sorted(controllers)):
        predicted[3 * idx + 1, idx + 1] = 1.0
        predicted[3 * idx + 2, idx + 1] = controllers[dgu_id].delta
    predicted_q, _ = np.linalg.qr(predicted)

    if nullity != expected:
        return KernelReport(False, nullity, expected, np.pi / 2.0)
    sv = np.linalg.svd(numerical.T @ predicted_q, compute_uv=False)
    max_angle = float(np.arccos(np.clip(np.min(sv), -1.0, 1.0)))
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
