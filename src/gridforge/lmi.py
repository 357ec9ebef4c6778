"""Dense LMI optimization by a primal log-det barrier method.

Solves min cᵀx subject to a list of affine matrix inequalities
S_k(x) = C_k + Σ_i x_i F_{k,i} ⪰ 0 (or ⪯ 0).  Problems this package
produces are tiny (about a dozen scalar variables, blocks at most 6x6),
so everything is dense and the Newton systems are solved by direct
factorization.  No randomness anywhere: identical inputs give identical
iterates.

Numerical conventions, fixed across the package:

* Every block is rescaled by 1/(1 + ||C_k||_F) before solving; margins
  are reported in these scaled units.
* Non-strict inequalities are relaxed by eps_psd = 1e-9 * (1 + ||C~_k||_F),
  i.e. the solver works with S~_k(x) + eps_psd*I >= 0.  A reported margin
  (minimum eigenvalue of the scaled slack) may therefore be as low as
  -eps_psd.
* Strict inequalities are tightened to S~_k(x) >= epsilon_strict * I, so
  their margins are at least epsilon_strict.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

PSD = "PSD"
NSD = "NSD"

OPTIMAL = "Optimal"
FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
NUMERICAL_FAILURE = "NumericalFailure"

_SYM_RTOL = 1e-12


def _check_symmetric(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    skew = np.linalg.norm(a - a.T)
    if skew > _SYM_RTOL * (1.0 + np.linalg.norm(a)):
        raise ValueError(f"{name} is not symmetric")
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LmiBlock:
    """One affine matrix inequality C + Σ x_i F_i, sense PSD or NSD."""

    constant: np.ndarray
    coeffs: Tuple[np.ndarray, ...]
    sense: str = PSD
    strict: bool = False

    def __post_init__(self):
        if self.sense not in (PSD, NSD):
            raise ValueError(f"sense must be {PSD!r} or {NSD!r}")
        c = _check_symmetric("constant", self.constant)
        object.__setattr__(self, "constant", c)
        coeffs = tuple(_check_symmetric(f"coeffs[{i}]", f)
                       for i, f in enumerate(self.coeffs))
        for i, f in enumerate(coeffs):
            if f.shape != c.shape:
                raise ValueError(f"coeffs[{i}] shape {f.shape} != {c.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def size(self) -> int:
        return self.constant.shape[0]


@dataclass(frozen=True)
class LmiProgram:
    """min objective . x  subject to every block inequality."""

    num_vars: int
    objective: np.ndarray
    blocks: Tuple[LmiBlock, ...]

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.shape != (self.num_vars,):
            raise ValueError("objective length must equal num_vars")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective has non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "objective", c)
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("program needs at least one block")
        for k, b in enumerate(blocks):
            if len(b.coeffs) != self.num_vars:
                raise ValueError(f"blocks[{k}] has {len(b.coeffs)} coeffs, "
                                 f"expected {self.num_vars}")
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = 1e-8
    # phase I needs ~100 iterations when the feasible interior is only
    # delta-shift thin; the rest covers slow central-path stretches that
    # show up at isolated parameter points (large sigma_bar especially)
    max_iter: int = 400
    epsilon_strict: float = 1e-6


@dataclass(frozen=True)
class Iteration:
    """One accepted Newton step of the barrier method (for diagnostics)."""

    phase: int
    t: float
    merit: float
    decrement: float
    step: float


@dataclass(frozen=True)
class LmiSolution:
    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    margins: Optional[np.ndarray]
    iterations: Tuple[Iteration, ...] = ()


def sym_eig(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) symmetric matrix.

    The input is symmetrized by averaging before factoring, eigenvalues
    come back ascending, and ||A - V diag(w) V'|| stays below
    1e-10 * (1 + ||A||).
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(0.5 * (a + a.T))


def general_eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general square matrix (complex, unordered)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigvals(a)


class _Cone:
    """Scaled, PSD-normalized, shift-adjusted view of one LmiBlock.

    c_shifted + Σ x_i f_i is what the barrier keeps positive definite;
    slack(x) is the unshifted scaled slack whose minimum eigenvalue is
    reported as the block margin.
    """

    def __init__(self, block: LmiBlock, epsilon_strict: float):
        sign = 1.0 if block.sense == PSD else -1.0
        scale = 1.0 / (1.0 + np.linalg.norm(block.constant))
        self.c = sign * scale * block.constant
        self.f = np.array([sign * scale * f for f in block.coeffs])
        self.size = block.size
        if block.strict:
            shift = -epsilon_strict
        else:
            shift = 1e-9 * (1.0 + np.linalg.norm(self.c))
        self.c_shifted = self.c + shift * np.eye(self.size)
        self.strict = block.strict
        self.shift = shift

    def slack(self, x: np.ndarray) -> np.ndarray:
        return self.c + np.tensordot(x, self.f, axes=1)

    def is_diagonal(self) -> bool:
        off = ~np.eye(self.size, dtype=bool)
        return not (np.any(self.c[off]) or np.any(self.f[:, off]))


def _chol(a: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


class _Barrier:
    """Centering engine for min cᵀx with all cones' shifted slacks PD.

    Diagonal cones are sets of scalar inequalities, so they are folded
    into one elementwise part s(x) = lp_c + x @ lp_f > 0 with barrier
    -Σ log s; each row keeps the shift of the cone it came from.  The
    remaining matrix cones keep a log-det barrier, evaluated from
    coefficient stacks flattened once here.  A factored point is the
    pair (Cholesky factors of the matrix cones, elementwise slack).
    """

    def __init__(self, cones: List[_Cone], c: np.ndarray):
        self.c = c
        self.n = len(c)
        self.m = sum(k.size for k in cones)
        diagonal, matrix = [], []
        for k in cones:
            (diagonal if k.is_diagonal() else matrix).append(k)
        # the empty leading pieces keep the shapes right when no cone is
        # diagonal
        self.lp_c = np.concatenate(
            [np.zeros(0)] + [np.diag(k.c_shifted) for k in diagonal])
        self.lp_f = np.concatenate(
            [np.zeros((self.n, 0))]
            + [k.f.diagonal(axis1=1, axis2=2) for k in diagonal], axis=1)
        self.blocks = [(k.c_shifted, k.f, k.f.reshape(self.n, -1))
                       for k in matrix]

    def factor(self, x: np.ndarray,
               ) -> Optional[Tuple[List[np.ndarray], np.ndarray]]:
        s = self.lp_c + x @ self.lp_f
        if not np.all(s > 0.0):
            return None
        ls = []
        for c, f, flat in self.blocks:
            l = _chol(c + (x @ flat).reshape(c.shape))
            if l is None:
                return None
            ls.append(l)
        return ls, s

    def merit(self, t: float, x: np.ndarray,
              point: Tuple[List[np.ndarray], np.ndarray]) -> float:
        ls, s = point
        logdet = sum(2.0 * float(np.sum(np.log(np.diag(l)))) for l in ls)
        return t * float(self.c @ x) - logdet - float(np.sum(np.log(s)))

    def newton_step(self, t: float, x: np.ndarray,
                    point: Tuple[List[np.ndarray], np.ndarray],
                    ) -> Tuple[np.ndarray, float]:
        ls, s = point
        scaled = self.lp_f / s
        g = t * self.c - scaled.sum(axis=1)
        h = scaled @ scaled.T
        for (_, f, _), l in zip(self.blocks, ls):
            linv = np.linalg.inv(l)
            # whiten: w_i = L^-1 F_i L^-T, then grad/Hessian are plain
            # Frobenius products
            w = (linv @ f @ linv.T).reshape(self.n, -1)
            g -= w[:, ::l.shape[0] + 1].sum(axis=1)
            h += w @ w.T
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise FloatingPointError("non-finite Newton system")
        # variables span ~20 orders of magnitude in the synthesis LMIs;
        # Jacobi scaling keeps the Hessian factorable
        d = 1.0 / np.sqrt(np.clip(np.diag(h), 1e-300, None))
        hs = h * d[:, None] * d[None, :]
        gs = g * d
        y = None
        for ridge in (0.0, 1e-14, 1e-10, 1e-6):
            lh = _chol(hs + ridge * np.eye(self.n))
            if lh is not None:
                y = np.linalg.solve(lh.T, np.linalg.solve(lh, -gs))
                break
        if y is None:
            raise FloatingPointError("Newton system not factorable")
        dx = d * y
        dec2 = max(float(-g @ dx), 0.0)
        return dx, dec2

    def center(self, t: float, x: np.ndarray, budget: int, log: List[Iteration],
               phase: int, tol: float = 1e-10,
               stop: Optional[Callable[[np.ndarray], bool]] = None,
               ) -> Tuple[np.ndarray, str, int]:
        """Newton iterations toward the analytic center at parameter t.

        Returns (x, outcome, iterations used) with outcome one of
        "converged", "stalled" (merit pinned at float resolution, a larger
        t is needed to make progress), "stopped" (the stop predicate
        fired), or "budget".
        """
        used = 0
        point = self.factor(x)
        if point is None:
            raise FloatingPointError("centering started outside the cone")
        alpha_init = 1.0
        stalls = 0
        while used < budget:
            dx, dec2 = self.newton_step(t, x, point)
            if 0.5 * dec2 <= tol:
                return x, "converged", used
            merit0 = self.merit(t, x, point)
            slope = -dec2
            alpha = alpha_init
            accepted = None
            while alpha > 1e-13:
                cand = x + alpha * dx
                pcand = self.factor(cand)
                if pcand is not None:
                    mcand = self.merit(t, cand, pcand)
                    if mcand <= merit0 + 0.25 * alpha * slope:
                        accepted = (cand, pcand, mcand)
                        break
                alpha *= 0.5
            if accepted is None:
                raise FloatingPointError("line search failed")
            x, point, merit1 = accepted
            # rebasing the next search at 4x the accepted step avoids
            # re-paying a long backtrack every iteration
            alpha_init = min(1.0, 4.0 * alpha)
            used += 1
            log.append(Iteration(phase, t, merit1, np.sqrt(dec2), alpha))
            if stop is not None and stop(x):
                return x, "stopped", used
            if merit0 - merit1 <= 1e-13 * (1.0 + abs(merit0)):
                stalls += 1
                if stalls >= 3:
                    return x, "stalled", used
            else:
                stalls = 0
        return x, "budget", used


def _box_cones(n: int, eps_strict: float, extra: int = 0) -> List["_Cone"]:
    """|x_i| <= 1e10 as 2x2 cones, one per variable.

    The radius dwarfs anything a pre-scaled block can require, so the box
    never binds at a solution; it only keeps centering problems compact.
    `extra` appends that many zero coefficient slots (phase I carries the
    auxiliary slack variable).
    """
    r_box = 1e10
    boxes = []
    for i in range(n):
        coeffs = [np.zeros((2, 2)) for _ in range(n)]
        coeffs[i] = np.diag([-1.0, 1.0])
        box = _Cone(LmiBlock(np.diag([r_box, r_box]), tuple(coeffs)),
                    eps_strict)
        if extra:
            box.f = np.concatenate([box.f, np.zeros((extra, 2, 2))], axis=0)
        boxes.append(box)
    return boxes


def solve(program: LmiProgram, options: Optional[SolverOptions] = None) -> LmiSolution:
    """Barrier solve with an infeasible start.

    Phase I minimizes the uniform slack shift s over the shifted cones and
    either finds an interior point (s < 0) or certifies, via the barrier
    duality gap, that the best achievable s is positive, meaning the
    relaxed problem is infeasible.  Phase II then follows the central path
    to a duality gap below tol_gap.

    Statuses: Optimal (gap reached), Feasible (interior point found, gap
    target not reached: phase II stops either when the iteration budget
    runs out or when its barrier parameter t passes 1e18 with budget
    left), Infeasible (phase I certificate), NumericalFailure (breakdown
    or exhausted budget with no verdict).  Margins are minimum eigenvalues
    of the scaled, unshifted slacks, NSD blocks negated.
    """
    options = options or SolverOptions()
    cones = [_Cone(b, options.epsilon_strict) for b in program.blocks]
    log: List[Iteration] = []
    budget = options.max_iter

    def finish(status: str, x: Optional[np.ndarray]) -> LmiSolution:
        if x is None:
            return LmiSolution(status, None, None, None, tuple(log))
        margins = np.array([sym_eig(c.slack(x))[0][0] for c in cones])
        # a claimed-feasible point must actually honor the margin contract
        if status in (OPTIMAL, FEASIBLE):
            for cone, m in zip(cones, margins):
                floor = options.epsilon_strict if cone.strict else -cone.shift
                if m < floor - 1e-12:
                    return LmiSolution(NUMERICAL_FAILURE, x,
                                       float(program.objective @ x),
                                       margins, tuple(log))
        return LmiSolution(status, x, float(program.objective @ x),
                           margins, tuple(log))

    # presolve: a diagonal entry no variable touches must be nonnegative
    # in any PSD matrix, so a negative one certifies infeasibility outright
    for cone in cones:
        fixed = np.all(cone.f.diagonal(axis1=1, axis2=2) == 0.0, axis=0)
        if np.any(fixed & (np.diag(cone.c_shifted) < 0.0)):
            return finish(INFEASIBLE, None)

    try:
        # ---- phase I: min s with every shifted slack + s*I inside the cone
        n = program.num_vars
        ext_cones = []
        for cone in cones:
            widened = copy.copy(cone)
            widened.f = np.concatenate([cone.f, np.eye(cone.size)[None]], axis=0)
            ext_cones.append(widened)
        s0 = 1.0
        for cone in cones:
            w, _ = sym_eig(cone.c_shifted)
            s0 = max(s0, 1.0 - w[0])
        # cap s from below: keeps phase I bounded and its Hessian regular
        # even when the cones leave escape directions open
        guard = _Cone(LmiBlock(np.array([[2.0 * s0]]),
                               tuple(np.zeros((1, 1)) for _ in range(n))),
                      options.epsilon_strict)
        guard.f = np.concatenate([guard.f, np.eye(1)[None]], axis=0)
        ext_cones.append(guard)
        for box in _box_cones(n, options.epsilon_strict, extra=1):
            ext_cones.append(box)
        ext = _Barrier(ext_cones, np.concatenate([np.zeros(n), [1.0]]))
        z = np.concatenate([np.zeros(n), [s0]])
        m_total = ext.m
        t = 1.0
        x_feasible = None
        while budget > 0:
            z, outcome, used = ext.center(t, z, budget, log, phase=1,
                                          stop=lambda zz: zz[-1] < -1e-10)
            budget -= used
            s = z[-1]
            if s < -1e-10:
                x_feasible = z[:n]
                break
            if outcome == "budget":
                return finish(NUMERICAL_FAILURE, None)
            # the duality-gap bound on min s only holds at a true center
            if outcome == "converged" and s - m_total / t > 0.0:
                return finish(INFEASIBLE, None)
            if m_total / t < min(options.tol_gap, 1e-10):
                if s <= 0.0:
                    x_feasible = z[:n]
                    break
                if outcome == "converged":
                    return finish(INFEASIBLE, None)
                return finish(NUMERICAL_FAILURE, None)
            t *= 10.0
        if x_feasible is None:
            return finish(NUMERICAL_FAILURE, None)

        # ---- phase II: central path on the real objective
        main = _Barrier(cones, program.objective.astype(float))
        x = x_feasible
        if main.factor(x) is None:
            return finish(NUMERICAL_FAILURE, None)
        t = 1.0
        while budget > 0 and t < 1e18:
            x, outcome, used = main.center(t, x, budget, log, phase=2)
            budget -= used
            if outcome == "budget":
                break
            if outcome == "converged":
                gap = main.m / t
            else:
                # once t pushes the merit past float resolution the
                # decrement tolerance is unreachable, but a stall inside
                # the quadratic region still bounds the gap, inflated by
                # the distance to the exact center
                dec = log[-1].decrement if log else 1.0
                if dec >= 0.25:
                    t *= 10.0
                    continue
                gap = (main.m + dec / (1.0 - dec) * np.sqrt(main.m)) / t
            if gap <= options.tol_gap:
                return finish(OPTIMAL, x)
            t *= 10.0
        return finish(FEASIBLE, x)
    except (FloatingPointError, np.linalg.LinAlgError):
        return finish(NUMERICAL_FAILURE, None)
