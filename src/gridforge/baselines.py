"""Decentralized LQR and pole-placement baselines, and the coupling demo.

The demo designs per-DGU state feedback on the two-converter benchmark
while pretending the interconnection does not exist, then assembles the
coupled closed loop and exhibits the unstable complex pair that appears.
It is the contrast case for the certified synthesis route, which keeps
the same grid stable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .model import (DguParams, LineParams, LoadModel, MicrogridTopology,
                    _positive, assemble_global, closed_loop,
                    closed_loop_blocks, controllability_matrix)
from .synthesis import Denied, SynthesisConfig, synthesize_all

LQR = "lqr"
POLE_PLACEMENT = "pole_placement"

#: The two-converter benchmark: two DGUs and the line between them.
DEMO_TOPOLOGY = MicrogridTopology({
    1: DguParams(0.1, 1.8e-3, 2.2e-3, LoadModel.constant_current(0.0), 48.0),
    2: DguParams(0.2, 1.7e-3, 2.0e-3, LoadModel.constant_current(0.0), 48.0),
}, (LineParams(1, 2, 0.05, 1.8e-6),))

CONTRAST_SIGMA_BAR = 10.0  # sigma_bar of pnp_contrast's designs

PLACEMENT_TARGETS = (
    (-8.5190e3, -530.4, -1.46),
    (-9.3734e3, -571.9, -1.44),
)

#: Reference spectra, rounded to the figures they are usually quoted at.
#: Each entry is (value, quantum of the last printed digit); comparisons
#: allow SPECTRUM_REL of magnitude plus half a quantum, exact signs.
SPECTRUM_REL = 0.01
REFERENCE_DECOUPLED = {
    LQR: (
        ((-9062.9, 0.1), (-194.5, 0.1), (-14.3, 0.1)),
        ((-9971.7, 0.1), (-606.4, 0.1), (-48.6, 0.1)),
    ),
    POLE_PLACEMENT: (
        tuple((t, abs(t) * 1e-4) for t in PLACEMENT_TARGETS[0]),
        tuple((t, abs(t) * 1e-4) for t in PLACEMENT_TARGETS[1]),
    ),
}
# The slow pair of the pole-placement coupled loop is stored at the scale
# of its decoupled ancestors (-1.46, -1.44); quoting it two orders below
# them fails every consistency check against the computed spectrum.
REFERENCE_COUPLED = {
    LQR: ((-19077.0, 1.0), (20 + 560j, 1.0), (20 - 560j, 1.0),
          (-690.0, 1.0), (-161.0, 1.0), (-11.0, 1.0)),
    POLE_PLACEMENT: ((-18803.0, 1.0), (23 + 2319j, 1.0), (23 - 2319j, 1.0),
                     (-237.0, 1.0), (-1.6, 0.1), (-1.3, 0.1)),
}


@dataclass(frozen=True)
class LqrSpec:
    """Diagonal state weights and a scalar input weight."""

    q: np.ndarray
    r: float

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be a square matrix")
        if np.any(q != np.diag(np.diagonal(q))) or np.any(np.diagonal(q) < 0):
            raise ValueError("q must be diagonal with nonnegative entries")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        _positive("r", self.r)


LQR_WEIGHTS = (
    LqrSpec(np.diag([1e-3, 1e-2, 1e3]), 0.1),
    LqrSpec(np.diag([1e-2, 1e-2, 1e4]), 1e-2),
)


def _lyapunov_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a^T X + X a = rhs for symmetric rhs (dense Kronecker form)."""
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(a.T, eye) + np.kron(eye, a.T)
    x = np.linalg.solve(system, rhs.reshape(-1)).reshape(n, n)
    return 0.5 * (x + x.T)


def _care_residual(a, b, q, r, x):
    return a.T @ x + x @ a - (x @ b) @ (b.T @ x) / r + q


def solve_care(a: np.ndarray, b: np.ndarray, spec: LqrSpec) -> np.ndarray:
    """Stabilizing-feedback gain row via the Riccati equation, u = Kx.

    The stabilizing solution is read off the stable invariant subspace of
    the Hamiltonian matrix, then polished with Newton steps (each one a
    Lyapunov solve) until the residual is below 1e-8 relative.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = np.asarray(b, dtype=float).reshape(n, 1)
    q, r = spec.q, spec.r
    if q.shape != (n, n):
        raise ValueError("weight dimensions do not match the system")

    ham = np.block([[a, -(b @ b.T) / r], [-q, -a.T]])
    w, v = np.linalg.eig(ham)
    stable = w.real < 0.0
    if stable.sum() != n:
        raise ValueError("no stabilizing solution: Hamiltonian has "
                         f"{stable.sum()} stable eigenvalues, expected {n}")
    basis = v[:, stable]
    u1, u2 = basis[:n], basis[n:]
    try:
        x = np.real(u2 @ np.linalg.inv(u1))
    except np.linalg.LinAlgError as exc:
        raise ValueError("no stabilizing solution: singular subspace"
                         " basis") from exc
    x = 0.5 * (x + x.T)

    for _ in range(5):
        resid = _care_residual(a, b, q, r, x)
        if np.linalg.norm(resid) <= 1e-12 * max(1.0, np.linalg.norm(x)):
            break
        acl = a - (b @ (b.T @ x)) / r
        x = x + _lyapunov_solve(acl, -resid)
        x = 0.5 * (x + x.T)

    resid = np.linalg.norm(_care_residual(a, b, q, r, x))
    if resid > 1e-8 * max(1.0, np.linalg.norm(x)):
        raise ValueError(f"Riccati residual {resid:.3e} too large")
    k = -(b.T @ x)[0] / r
    if np.max(np.linalg.eigvals(a + b @ k[None, :]).real) >= 0.0:
        raise ValueError("no stabilizing solution: closed loop not Hurwitz")
    return k


def place_poles(a: np.ndarray, b: np.ndarray,
                targets: Sequence[complex]) -> np.ndarray:
    """Single-input pole placement, u = Kx.

    Computed twice, by Ackermann's formula and by assembling closed-loop
    eigenvectors; the routes must agree to 1e-8 and the achieved spectrum
    must sit on the targets to 1e-6 relative, or the call fails.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = np.asarray(b, dtype=float).reshape(n, 1)
    targets = np.asarray(targets, dtype=complex)
    if targets.shape != (n,):
        raise ValueError(f"need exactly {n} target eigenvalues")
    if not np.allclose(np.sort_complex(targets),
                       np.sort_complex(targets.conj())):
        raise ValueError("targets must be closed under conjugation")
    if len(set(targets.tolist())) != n:
        raise ValueError("targets must be distinct")

    ctrb = controllability_matrix(a, b)
    if np.linalg.matrix_rank(ctrb) < n:
        raise ValueError("uncontrollable pair")

    coeffs = np.poly(targets)
    coeffs = coeffs.real  # conjugate-closed targets have a real polynomial
    phi = np.zeros_like(a)
    for c in coeffs:
        phi = phi @ a + c * np.eye(n)
    last_row = np.linalg.solve(ctrb.T, np.eye(n)[:, -1])
    k_ackermann = -(last_row @ phi)

    eye = np.eye(n)
    vectors = np.column_stack([np.linalg.solve(a - lam * eye, -b[:, 0])
                               for lam in targets])
    k_modal = np.linalg.solve(vectors.T, np.ones(n))
    if np.max(np.abs(k_modal.imag)) > 1e-8 * (1.0 + np.max(np.abs(k_modal))):
        raise ValueError("targets must be closed under conjugation")
    k_modal = k_modal.real

    gap = np.linalg.norm(k_ackermann - k_modal)
    if gap > 1e-8 * (1.0 + np.linalg.norm(k_ackermann)):
        raise RuntimeError(f"placement routes disagree by {gap:.3e}")

    achieved = np.sort_complex(np.linalg.eigvals(a + b @ k_ackermann[None, :]))
    wanted = np.sort_complex(targets)
    err = np.abs(achieved - wanted) / np.maximum(1.0, np.abs(wanted))
    if np.max(err) > 1e-6:
        raise RuntimeError(f"achieved spectrum off target by {np.max(err):.3e}"
                           " relative")
    return k_ackermann


@dataclass(frozen=True)
class SpectrumCheck:
    computed: complex
    reference: complex
    quantum: float
    ok: bool


def compare_spectrum(computed: Sequence[complex],
                     reference: Sequence[Tuple[complex, float]]
                     ) -> Tuple[SpectrumCheck, ...]:
    """Match each rounded reference value with its nearest computed one.

    A pair passes when both components differ by at most SPECTRUM_REL *
    |reference| plus half the printing quantum and the real-part signs
    agree exactly.
    """
    remaining = [complex(z) for z in computed]
    if len(remaining) != len(reference):
        raise ValueError("spectra have different sizes")
    checks = []
    for value, quantum in reference:
        value = complex(value)
        nearest = min(remaining, key=lambda z: abs(z - value))
        remaining.remove(nearest)
        tol = SPECTRUM_REL * abs(value) + 0.5 * quantum
        ok = (abs(nearest.real - value.real) <= tol
              and abs(nearest.imag - value.imag) <= tol
              and np.sign(nearest.real) == np.sign(value.real))
        checks.append(SpectrumCheck(nearest, value, quantum, bool(ok)))
    return tuple(checks)


def spectrum_matches(computed, reference) -> bool:
    return all(c.ok for c in compare_spectrum(computed, reference))


@dataclass(frozen=True)
class DestabilizationReport:
    method: str
    gains: Tuple[np.ndarray, np.ndarray]
    decoupled: Tuple[np.ndarray, np.ndarray]
    coupled: np.ndarray
    unstable_pair: Tuple[complex, complex]


def destabilization_demo(method: str = LQR) -> DestabilizationReport:
    """Design each DGU as if alone, couple them, and report the spectra.

    Each unit is designed on its open-loop diagonal block, self term
    included.  Both routes stabilize the isolated converters, yet the
    coupled loop carries a complex pair in the right half-plane; the
    report fails loudly if that pair ever disappears.
    """
    if method not in (LQR, POLE_PLACEMENT):
        raise ValueError(f"unknown method {method!r}")
    system = assemble_global(DEMO_TOPOLOGY)
    blocks = closed_loop_blocks(system, {i: np.zeros(3) for i in system.ids})
    gains = []
    decoupled = []
    for idx, (a, b) in enumerate(zip(blocks, system.unit_b[:, :, None])):
        if method == LQR:
            k = solve_care(a, b, LQR_WEIGHTS[idx])
        else:
            k = place_poles(a, b, PLACEMENT_TARGETS[idx])
        gains.append(k)
        decoupled.append(np.sort_complex(np.linalg.eigvals(a + b @ k[None, :])))

    coupled = np.linalg.eigvals(
        closed_loop(system, dict(zip(system.ids, gains))))

    unstable = sorted((z for z in coupled if z.real > 0.0 and z.imag != 0.0),
                      key=lambda z: z.imag)
    if len(unstable) != 2:
        raise RuntimeError("expected exactly one unstable complex pair,"
                           f" found {len(unstable)} unstable eigenvalues")
    return DestabilizationReport(method, (gains[0], gains[1]),
                                 (decoupled[0], decoupled[1]),
                                 np.sort_complex(coupled),
                                 (unstable[0], unstable[1]))


def pnp_contrast() -> np.ndarray:
    """Coupled spectrum of the same benchmark under certified synthesis."""
    controllers = synthesize_all(DEMO_TOPOLOGY,
                                 SynthesisConfig(CONTRAST_SIGMA_BAR))
    for dgu_id, result in controllers.items():
        if isinstance(result, Denied):
            raise RuntimeError(f"synthesis denied for DGU {dgu_id}:"
                               f" {result.reason}")
    f = closed_loop(assemble_global(DEMO_TOPOLOGY), controllers)
    return np.sort_complex(np.linalg.eigvals(f))
