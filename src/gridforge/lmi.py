"""Dense LMI optimization by a primal log-det barrier method.

Solves min cᵀx subject to a list of affine matrix inequalities
S_k(x) = C_k + Σ_i x_i F_{k,i} ⪰ 0 (or ⪯ 0).  Problems this package
produces are tiny (about a dozen scalar variables, blocks at most 6x6),
so everything is dense and the Newton systems are solved by direct
factorization.  No randomness anywhere: identical inputs give identical
iterates.

The solve is batched.  `solve_batch` groups its programs by barrier shape
(number of variables, sizes of the matrix cones, number of elementwise
rows) and runs each group's phase I, then its phase II, in lockstep: one
Newton step, line-search probe or merit evaluation is one numpy call on
(B, k, k) stacks.  Every program keeps its own barrier parameter, budget,
step length, stall count, iteration log and outcome, and a breakdown ends
only the program it occurs in.  Each stacked call does, member by member,
the arithmetic of an unstacked one, so a program's iterates do not depend
on what it is batched with: a batch of one, `solve`, is the single solve.

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
import functools
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Iterable, List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

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


class IterationLog(Sequence):
    """The accepted Newton steps of one solve, in order, as Iterations.

    Held as one float row (t, merit, decrement, step) per step, the
    phase-I steps first, and built into Iteration records as they are
    read: a batch of solutions keeps no Python object per step.
    """

    def __init__(self, rows: np.ndarray, phase1: int):
        self._rows = rows
        self._phase1 = phase1

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]
        return Iteration(1 if k < self._phase1 else 2,
                         *self._rows[k].tolist())

    def __iter__(self):
        for k, row in enumerate(self._rows.tolist()):
            yield Iteration(1 if k < self._phase1 else 2, *row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    __hash__ = None


@dataclass(frozen=True)
class LmiSolution:
    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    margins: Optional[np.ndarray]
    iterations: Sequence[Iteration] = ()


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


def _stacked(gufunc, *args) -> np.ndarray:
    """A numpy.linalg gufunc (Cholesky, inverse, solve) over a stack.

    These are the kernels np.linalg.cholesky, inv and solve call, member by
    member.  Called directly they fill a member that fails (not positive
    definite, singular) with NaN instead of raising for the whole stack.
    """
    with np.errstate(all="ignore"):
        return gufunc(*args)


def _split(cones: List[_Cone], n: int,
           ) -> Tuple[np.ndarray, np.ndarray, List[_Cone]]:
    """(lp_c, lp_f, matrix cones) of one program's cones.

    Diagonal cones are sets of scalar inequalities, so they are folded into
    one elementwise part s(x) = lp_c + x @ lp_f > 0; each row keeps the
    shift of the cone it came from.
    """
    flags = [k.is_diagonal() for k in cones]
    diagonal = [k for k, flag in zip(cones, flags) if flag]
    # the empty leading pieces keep the shapes right when no cone is
    # diagonal
    lp_c = np.concatenate(
        [np.zeros(0)] + [np.diag(k.c_shifted) for k in diagonal])
    lp_f = np.concatenate(
        [np.zeros((n, 0))] + [k.f.diagonal(axis1=1, axis2=2)
                              for k in diagonal], axis=1)
    return lp_c, lp_f, [k for k, flag in zip(cones, flags) if not flag]


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of a stack for the given programs, in ascending order;
    the stack itself, not a copy, when they are all of them."""
    return a if len(rows) == len(a) else a[rows]


def _shape(split) -> tuple:
    """What programs must share to be stacked: variables, matrix cone
    sizes in order, elementwise rows."""
    lp_c, lp_f, matrix = split
    return lp_f.shape[0], tuple(k.size for k in matrix), len(lp_c)


class _Barrier:
    """Centering engine for min cᵀx with all cones' shifted slacks PD,
    stacked over programs of one shape.

    The elementwise part has barrier -Σ log s; the matrix cones keep a
    log-det barrier, evaluated from coefficient stacks flattened once here.
    Every array has a leading program axis.  The methods take `rows`, the
    programs they work on in ascending order, with one stacked point per
    row.  A factored point is the pair (Cholesky factors of the matrix
    cones, elementwise slack).
    """

    def __init__(self, count: int, data: Iterable[tuple]):
        """Stack `count` programs' (split cones, objective), taken from
        `data` one at a time."""
        for slot, ((lp_c, lp_f, matrix), objective) in enumerate(data):
            if not slot:
                self.n = len(lp_f)
                self.c = np.empty((count, self.n))
                self.lp_c = np.empty((count,) + lp_c.shape)
                self.lp_f = np.empty((count,) + lp_f.shape)
                blocks = [(np.empty((count,) + k.c_shifted.shape),
                           np.empty((count,) + k.f.shape)) for k in matrix]
            self.c[slot], self.lp_c[slot], self.lp_f[slot] = (objective, lp_c,
                                                              lp_f)
            for (c, f), k in zip(blocks, matrix):
                c[slot], f[slot] = k.c_shifted, k.f
        self.blocks = [(c, f, f.reshape(count, self.n, -1))
                       for c, f in blocks]

    def factor(self, rows: np.ndarray, x: np.ndarray,
               ) -> Tuple[np.ndarray, Tuple[List[np.ndarray], np.ndarray]]:
        """(ok, point); ok is False where a slack is not positive."""
        s = (_take(self.lp_c, rows)
             + (x[:, None, :] @ _take(self.lp_f, rows))[:, 0])
        ok = np.all(s > 0.0, axis=1)
        ls = []
        for c, _, flat in self.blocks:
            c = _take(c, rows)
            l = _stacked(_umath_linalg.cholesky_lo,
                         c + (x[:, None, :] @ _take(flat, rows)
                              ).reshape(c.shape))
            ok &= ~np.isnan(l[:, 0, 0])
            ls.append(l)
        return ok, (ls, s)

    def merit(self, rows: np.ndarray, t: np.ndarray, x: np.ndarray,
              point: Tuple[List[np.ndarray], np.ndarray]) -> np.ndarray:
        ls, s = point
        logdet = 0
        for l in ls:
            logdet = logdet + 2.0 * np.sum(
                np.log(np.diagonal(l, axis1=1, axis2=2)), axis=1)
        cx = (_take(self.c, rows)[:, None, :] @ x[:, :, None])[:, 0, 0]
        return t * cx - logdet - np.sum(np.log(s), axis=1)

    def newton_step(self, rows: np.ndarray, t: np.ndarray, x: np.ndarray,
                    point: Tuple[List[np.ndarray], np.ndarray],
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx, dec2, ok); ok is False where the Newton system is not
        finite or not factorable."""
        ls, s = point
        scaled = _take(self.lp_f, rows) / s[:, None, :]
        g = t[:, None] * _take(self.c, rows) - scaled.sum(axis=2)
        h = scaled @ scaled.swapaxes(1, 2)
        del scaled
        for (_, f, _), l in zip(self.blocks, ls):
            linv = _stacked(_umath_linalg.inv, l)
            # whiten: w_i = L^-1 F_i L^-T, then grad/Hessian are plain
            # Frobenius products
            w = (linv[:, None] @ _take(f, rows)
                 @ linv.swapaxes(1, 2)[:, None]).reshape(len(rows), self.n, -1)
            g -= w[:, :, ::l.shape[-1] + 1].sum(axis=2)
            h += w @ w.swapaxes(1, 2)
            # the next block's w is built before this one would be freed
            del w
        ok = np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(h),
                                                      axis=(1, 2))
        with np.errstate(all="ignore"):
            # variables span ~20 orders of magnitude in the synthesis LMIs;
            # Jacobi scaling keeps the Hessian factorable
            d = 1.0 / np.sqrt(np.clip(np.diagonal(h, axis1=1, axis2=2),
                                      1e-300, None))
            hs = h * d[:, :, None] * d[:, None, :]
            gs = g * d
        y = np.full_like(g, np.nan)
        todo = np.flatnonzero(ok)
        for ridge in (0.0, 1e-14, 1e-10, 1e-6):
            if not len(todo):
                break
            lh = _stacked(_umath_linalg.cholesky_lo,
                          hs[todo] + ridge * np.eye(self.n))
            good = ~np.isnan(lh[:, 0, 0])
            lh, done = lh[good], todo[good]
            y[done] = _stacked(_umath_linalg.solve1, lh.swapaxes(1, 2),
                               _stacked(_umath_linalg.solve1, lh, -gs[done]))
            todo = todo[~good]
        # a row no ridge could factor, or a failed solve, is left NaN
        ok &= ~np.any(np.isnan(y), axis=1)
        dx = d * y
        dec = ((-g)[:, None, :] @ dx[:, :, None])[:, 0, 0]
        return dx, np.where(0.0 > dec, 0.0, dec), ok


class _Centering:
    """Newton iterations toward the analytic center, in lockstep, for the
    programs in one phase of one stacked barrier.

    A member enters with its own t, x and budget and keeps its own point,
    merit, initial step length, stall count and iterations used.  Each
    `step` takes one damped Newton step for every member.  A member leaves
    with its budget charged for the steps it took and with (x, outcome),
    outcome one of "converged", "stalled" (merit pinned at float
    resolution, a larger t is needed to make progress), "stopped" (phase I
    found a point with s < 0) or "budget" -- or with the breakdown that
    ended it.
    """

    TOL = 1e-10

    def __init__(self, barrier: _Barrier, phase: int, trace: np.ndarray,
                 queue: list):
        self.barrier = barrier
        self.phase = phase
        # (program, step, [t, merit, decrement, step length]), step
        # counted over the whole solve
        self.trace = trace
        self.queue = queue
        self.runs: list = []
        self.state: dict = {}

    def __bool__(self) -> bool:
        return bool(self.queue or self.runs)

    def _point_keys(self) -> List[str]:
        """State keys of a member's point: x, slack, Cholesky factors."""
        return ["x", "s"] + [f"l{j}" for j in range(len(self.barrier.blocks))]

    def _point(self, state: dict):
        return [state[key] for key in self._point_keys()[2:]], state["s"]

    def _admit(self, exits: list) -> None:
        # the barrier takes its rows in ascending order
        self.queue.sort(key=lambda request: request[0].slot)
        runs, t, x = zip(*self.queue)
        self.queue.clear()
        rows = np.array([run.slot for run in runs])
        budget = np.array([run.budget for run in runs])
        t, x = np.array(t), np.array(x)
        ok, (ls, s) = self.barrier.factor(rows, x)
        for i in np.flatnonzero(~ok):
            exits.append((runs[i], FloatingPointError(
                "centering started outside the cone")))
        for i in np.flatnonzero(ok & (budget <= 0)):
            exits.append((runs[i], (x[i], "budget")))
        keep = ok & (budget > 0)
        new = {"rows": rows, "t": t, "x": x, "s": s, "budget": budget,
               **{f"l{j}": l for j, l in enumerate(ls)}}
        new = {key: value[keep] for key, value in new.items()}
        new["merit"] = self.barrier.merit(new["rows"], new["t"], new["x"],
                                          self._point(new))
        new["alpha"] = np.ones(len(new["rows"]))
        new["stalls"] = np.zeros(len(new["rows"]), dtype=int)
        new["used"] = np.zeros(len(new["rows"]), dtype=int)
        runs = self.runs + [run for run, k in zip(runs, keep) if k]
        state = {key: np.concatenate([self.state[key], value])
                 if self.state else value for key, value in new.items()}
        # members stay in slot order, so a step over all of them reads the
        # barrier's stacks without copying them
        order = np.argsort(state["rows"])
        self.runs = [runs[i] for i in order]
        self.state = {key: value[order] for key, value in state.items()}

    def step(self) -> list:
        """Admit the queue, then one Newton step for every member.

        Returns the members that left, as (run, reply): reply is
        (x, outcome), or the exception that ended the run.
        """
        exits: list = []
        if self.queue:
            self._admit(exits)
        if not self.runs:
            return exits
        st, b = self.state, self.barrier
        rows, t, x = st["rows"], st["t"], st["x"]
        dx, dec2, ok = b.newton_step(rows, t, x, self._point(st))
        outcome = np.full(len(rows), None, dtype=object)
        outcome[~ok] = FloatingPointError("Newton system not usable")
        converged = ok & (0.5 * dec2 <= self.TOL)
        outcome[converged] = "converged"

        # backtracking line search on the merit, every member at its own
        # step length; a rejected probe halves only its own alpha
        search = np.flatnonzero(ok & ~converged)
        alpha = st["alpha"][search]
        accepted = np.zeros(len(search), dtype=bool)
        new = {key: st[key][search] for key in self._point_keys()}
        merit1 = np.empty(len(search))
        probing = np.flatnonzero(alpha > 1e-13)
        while len(probing):
            i = search[probing]
            cand = x[i] + alpha[probing][:, None] * dx[i]
            fine, (ls, s) = b.factor(rows[i], cand)
            j = np.flatnonzero(fine)
            mcand = b.merit(rows[i[j]], t[i[j]], cand[j],
                            ([l[j] for l in ls], s[j]))
            good = mcand <= (st["merit"][i[j]]
                             + 0.25 * alpha[probing[j]] * -dec2[i[j]])
            j = j[good]
            won = probing[j]
            accepted[won] = True
            merit1[won] = mcand[good]
            for key, value in zip(self._point_keys(), [cand, s, *ls]):
                new[key][won] = value[j]
            probing = probing[~accepted[probing]]
            alpha[probing] *= 0.5
            probing = probing[alpha[probing] > 1e-13]
        outcome[search[~accepted]] = FloatingPointError("line search failed")

        i = search[accepted]
        merit0, merit1 = st["merit"][i], merit1[accepted]
        for key, value in new.items():
            st[key][i] = value[accepted]
        st["merit"][i] = merit1
        # rebasing the next search at 4x the accepted step avoids re-paying
        # a long backtrack every iteration
        st["alpha"][i] = np.minimum(1.0, 4.0 * alpha[accepted])
        done = self.trace.shape[1] - st["budget"][i] + st["used"][i]
        self.trace[rows[i], done] = np.stack(
            [t[i], merit1, np.sqrt(dec2[i]), alpha[accepted]], axis=1)
        st["used"][i] += 1
        flat = merit0 - merit1 <= 1e-13 * (1.0 + np.abs(merit0))
        st["stalls"][i] = np.where(flat, st["stalls"][i] + 1, 0)
        ends = [(st["used"][i] >= st["budget"][i], "budget"),
                (st["stalls"][i] >= 3, "stalled")]
        if self.phase == 1:
            ends.append((x[i, -1] < -1e-10, "stopped"))
        # the last assignment wins: stopped, then stalled, then budget
        for mask, name in ends:
            outcome[i[mask]] = name

        stay = np.array([o is None for o in outcome], dtype=bool)
        for i in np.flatnonzero(~stay):
            run, reply = self.runs[i], outcome[i]
            run.budget -= int(st["used"][i])
            if isinstance(reply, str):
                reply = (x[i].copy(), reply)
            exits.append((run, reply))
        self.runs = [run for run, k in zip(self.runs, stay) if k]
        self.state = {key: value[stay] for key, value in st.items()}
        return exits


@functools.lru_cache(maxsize=None)
def _box_cones(n: int, eps_strict: float) -> Tuple[_Cone, ...]:
    """|x_i| <= 1e10 as 2x2 cones, one per variable, for phase I.

    The radius dwarfs anything a pre-scaled block can require, so the box
    never binds at a solution; it only keeps centering problems compact.
    Each cone carries one more zero coefficient slot, for phase I's
    auxiliary slack variable.  The cones depend on n alone, so each size
    is built once.
    """
    r_box = 1e10
    boxes = []
    for i in range(n):
        coeffs = [np.zeros((2, 2)) for _ in range(n)]
        coeffs[i] = np.diag([-1.0, 1.0])
        box = _Cone(LmiBlock(np.diag([r_box, r_box]), tuple(coeffs)),
                    eps_strict)
        box.f = np.concatenate([box.f, np.zeros((1, 2, 2))], axis=0)
        boxes.append(box)
    return tuple(boxes)


_BREAKDOWN = (FloatingPointError, np.linalg.LinAlgError)


class _Run:
    """One program's way through the barrier method.

    Holds its cones, budget, iteration trace and solution, and drives the
    outer loops (`_control`) between the lockstep centerings.
    """

    def __init__(self, program: LmiProgram, options: SolverOptions):
        self.options = options
        self.n = program.num_vars
        self.objective = program.objective
        self.cones = [_Cone(b, options.epsilon_strict) for b in program.blocks]
        self.m = sum(k.size for k in self.cones)
        self.budget = options.max_iter
        # rows of the group's trace once the run is batched; phase1 is the
        # number of phase-I steps once phase II starts
        self.trace = np.empty((0, 4))
        self.phase1: Optional[int] = None
        self.solution: Optional[LmiSolution] = None
        self.slot = -1
        # presolve: a diagonal entry no variable touches must be
        # nonnegative in any PSD matrix, so a negative one certifies
        # infeasibility outright
        for cone in self.cones:
            fixed = np.all(cone.f.diagonal(axis1=1, axis2=2) == 0.0, axis=0)
            if np.any(fixed & (np.diag(cone.c_shifted) < 0.0)):
                self.solution = self.finish(INFEASIBLE, None)
                return
        self.main = _split(self.cones, self.n)
        try:
            # phase I starts from x = 0 with s above every cone's deficit
            s0 = 1.0
            for cone in self.cones:
                w, _ = sym_eig(cone.c_shifted)
                s0 = max(s0, 1.0 - w[0])
        except _BREAKDOWN:
            self.solution = self.finish(NUMERICAL_FAILURE, None)
            return
        self.z0 = np.concatenate([np.zeros(self.n), [s0]])
        self.control = self._control()

    def barrier_data(self, phase: int) -> tuple:
        """(split cones, objective) of this program's barrier in a phase."""
        if phase == 2:
            return self.main, self.objective
        # phase I: min s with every shifted slack + s*I inside the cone
        n, eps = self.n, self.options.epsilon_strict
        ext_cones = []
        for cone in self.cones:
            widened = copy.copy(cone)
            widened.f = np.concatenate([cone.f, np.eye(cone.size)[None]],
                                       axis=0)
            ext_cones.append(widened)
        # cap s from below: keeps phase I bounded and its Hessian regular
        # even when the cones leave escape directions open
        guard = _Cone(LmiBlock(np.array([[2.0 * self.z0[-1]]]),
                               tuple(np.zeros((1, 1)) for _ in range(n))),
                      eps)
        guard.f = np.concatenate([guard.f, np.eye(1)[None]], axis=0)
        ext_cones.append(guard)
        ext_cones += _box_cones(n, eps)
        return _split(ext_cones, n + 1), np.eye(n + 1)[n]

    def steps(self) -> int:
        """Newton steps taken so far, both phases."""
        return self.options.max_iter - self.budget

    def finish(self, status: str, x: Optional[np.ndarray]) -> LmiSolution:
        log = IterationLog(self.trace[:self.steps()],
                           self.steps() if self.phase1 is None
                           else self.phase1)
        if x is None:
            return LmiSolution(status, None, None, None, log)
        value = float(self.objective @ x)
        margins = np.array([sym_eig(c.slack(x))[0][0] for c in self.cones])
        # a claimed-feasible point must actually honor the margin contract
        if status in (OPTIMAL, FEASIBLE):
            for cone, m in zip(self.cones, margins):
                floor = (self.options.epsilon_strict if cone.strict
                         else -cone.shift)
                if m < floor - 1e-12:
                    return LmiSolution(NUMERICAL_FAILURE, x, value, margins,
                                       log)
        return LmiSolution(status, x, value, margins, log)

    def resume(self, queues: Tuple[list, list], reply) -> None:
        """Hand the last centering's reply to `_control`; queue the next
        centering it asks for by phase, or keep its solution."""
        try:
            if isinstance(reply, Exception):
                phase, t, x = self.control.throw(reply)
            else:
                phase, t, x = self.control.send(reply)
        except StopIteration as done:
            self.solution = done.value
            return
        queues[phase - 1].append((self, t, x))

    def _control(self):
        """The outer loops of the barrier method.

        A coroutine: each `yield (phase, t, x)` asks for one centering,
        which charges the steps it takes to the budget, and receives
        (x, outcome); a breakdown is thrown in instead.
        """
        options = self.options
        n = self.n
        # phase I adds the guard and one 2x2 box per variable
        m_ext = self.m + 1 + 2 * n
        try:
            # ---- phase I: min s over the widened cones
            z = self.z0
            t = 1.0
            x_feasible = None
            while self.budget > 0:
                z, outcome = yield 1, t, z
                s = z[-1]
                if s < -1e-10:
                    x_feasible = z[:n]
                    break
                if outcome == "budget":
                    return self.finish(NUMERICAL_FAILURE, None)
                # the duality-gap bound on min s only holds at a true center
                if outcome == "converged" and s - m_ext / t > 0.0:
                    return self.finish(INFEASIBLE, None)
                if m_ext / t < min(options.tol_gap, 1e-10):
                    if s <= 0.0:
                        x_feasible = z[:n]
                        break
                    if outcome == "converged":
                        return self.finish(INFEASIBLE, None)
                    return self.finish(NUMERICAL_FAILURE, None)
                t *= 10.0
            if x_feasible is None:
                return self.finish(NUMERICAL_FAILURE, None)

            # ---- phase II: central path on the real objective.  Its first
            # centering factors x_feasible in the unwidened cones even with
            # no budget left, and a breakdown there is a NumericalFailure.
            self.phase1 = self.steps()
            x = x_feasible
            t = 1.0
            while t < 1e18:
                x, outcome = yield 2, t, x
                if outcome == "budget":
                    break
                if outcome == "converged":
                    gap = self.m / t
                else:
                    # once t pushes the merit past float resolution the
                    # decrement tolerance is unreachable, but a stall inside
                    # the quadratic region still bounds the gap, inflated by
                    # the distance to the exact center
                    dec = (float(self.trace[self.steps() - 1, 2])
                           if self.steps() else 1.0)
                    if dec >= 0.25:
                        t *= 10.0
                        continue
                    gap = (self.m + dec / (1.0 - dec) * np.sqrt(self.m)) / t
                if gap <= options.tol_gap:
                    return self.finish(OPTIMAL, x)
                t *= 10.0
            return self.finish(FEASIBLE, x)
        except _BREAKDOWN:
            return self.finish(NUMERICAL_FAILURE, None)


def solve_batch(programs: Iterable[LmiProgram],
                options: Optional[SolverOptions] = None,
                ) -> List[LmiSolution]:
    """Barrier solves with an infeasible start, one solution per program.

    Phase I minimizes the uniform slack shift s over the shifted cones and
    either finds an interior point (s < 0) or certifies, via the barrier
    duality gap, that the best achievable s is positive, meaning the
    relaxed problem is infeasible.  Phase II then follows the central path
    to a duality gap below tol_gap.

    Programs are grouped by barrier shape; each group runs phase I and then
    phase II in lockstep.  A program's solution is the same, bit for bit,
    whatever it is batched with.

    Statuses: Optimal (gap reached), Feasible (interior point found, gap
    target not reached: phase II stops either when the iteration budget
    runs out or when its barrier parameter t passes 1e18 with budget
    left), Infeasible (phase I certificate), NumericalFailure (breakdown
    or exhausted budget with no verdict).  Margins are minimum eigenvalues
    of the scaled, unshifted slacks, NSD blocks negated.
    """
    options = options or SolverOptions()
    runs = [_Run(program, options) for program in programs]
    groups: dict = {}
    for run in runs:
        if run.solution is None:
            groups.setdefault(_shape(run.main), []).append(run)
    for group in groups.values():
        trace = np.empty((len(group), options.max_iter, 4))
        for slot, run in enumerate(group):
            run.slot, run.trace = slot, trace[slot]
        queues: Tuple[list, list] = ([], [])
        for run in group:
            run.resume(queues, None)
        # phase I drains before phase II starts, so each phase runs as few
        # stacked steps as its slowest member needs, and only one phase's
        # stacks exist at a time
        for phase, queue in enumerate(queues, 1):
            barrier = _Barrier(len(group), (run.barrier_data(phase)
                                            for run in group))
            # the unwidened cones keep their coefficients as their rows of
            # the stack (less phase I's slack slot), not as a second copy
            for run in group:
                for cone, (_, f, _) in zip(run.main[2], barrier.blocks):
                    cone.f = f[run.slot, :run.n]
            centering = _Centering(barrier, phase, trace, queue)
            while centering:
                for run, reply in centering.step():
                    run.resume(queues, reply)
            del barrier, centering
    return [run.solution for run in runs]


def solve(program: LmiProgram, options: Optional[SolverOptions] = None,
          ) -> LmiSolution:
    """`solve_batch` of the one program."""
    return solve_batch([program], options)[0]
