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
step length, stall count, step trace and outcome, and a breakdown ends
only the program it occurs in.  Each stacked call does, member by member,
the arithmetic of an unstacked one, so a program's iterates do not depend
on what it is batched with: a batch of one, `solve`, is the single solve.
Between centerings, the outer loop is one method, `_Run.after`.

A block holds its constant C and one read-only (n, k, k) stack of its
coefficients F_i.  `_cone` scales it to (c, f, shift); phase II folds the
diagonal cones into elementwise rows and keeps the rest as matrix cones.
Phase I (min s with every shifted slack + s*I inside its cone) is derived
from phase II's arrays: an s column of ones or the identity, then one
guard row and two box rows per variable.

Module constants fix the solve: TOL_GAP (duality-gap target), MAX_ITER
(Newton steps per solve, both phases) and EPSILON_STRICT (margin of a
strict block).  Numerical conventions, fixed across the package:

* Every block is rescaled by 1/(1 + ||C_k||_F) before solving; margins
  are reported in these scaled units.
* Non-strict inequalities are relaxed by eps_psd = 1e-9 * (1 + ||C~_k||_F):
  the solver works with S~_k(x) + eps_psd*I >= 0, so a reported margin
  (least eigenvalue of the scaled slack) may be as low as -eps_psd.
* Strict inequalities are tightened to S~_k(x) >= EPSILON_STRICT * I, so
  their margins are at least EPSILON_STRICT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

TOL_GAP = 1e-8
# phase I needs ~100 iterations when the feasible interior is only
# delta-shift thin; the rest covers slow central-path stretches that show
# up at isolated parameter points (large sigma_bar especially)
MAX_ITER = 400
EPSILON_STRICT = 1e-6


def _name(i: int) -> str:
    return f"coeffs[{i - 1}]" if i else "constant"


@dataclass(frozen=True)
class LmiBlock:
    """One affine matrix inequality C + Σ x_i F_i, sense PSD or NSD;
    coeffs is the read-only (n, k, k) stack of the F_i."""

    constant: np.ndarray
    coeffs: np.ndarray
    sense: str = PSD
    strict: bool = False

    def __post_init__(self):
        if self.sense not in (PSD, NSD):
            raise ValueError(f"sense must be {PSD!r} or {NSD!r}")
        c = np.asarray(self.constant, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("constant must be a square matrix")
        for i, f in enumerate(self.coeffs):
            if np.shape(f) != c.shape:
                raise ValueError(f"coeffs[{i}] shape {np.shape(f)} != "
                                 f"{c.shape}")
        # the constant and the coefficients, checked as one stack
        a = np.concatenate([c[None], np.asarray(self.coeffs, dtype=float)
                            .reshape((-1,) + c.shape)])
        finite = np.isfinite(a).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"{_name(np.argmin(finite))} has non-finite "
                             "entries")
        skew = np.linalg.norm(a - a.swapaxes(1, 2), axis=(1, 2))
        bad = skew > _SYM_RTOL * (1.0 + np.linalg.norm(a, axis=(1, 2)))
        if bad.any():
            raise ValueError(f"{_name(np.argmax(bad))} is not symmetric")
        a = 0.5 * (a + a.swapaxes(1, 2))
        a.setflags(write=False)
        object.__setattr__(self, "constant", a[0])
        object.__setattr__(self, "coeffs", a[1:])

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
class Iteration:
    """One accepted Newton step of the barrier method (for diagnostics)."""

    phase: int
    t: float
    merit: float
    decrement: float
    step: float


@dataclass(frozen=True)
class LmiSolution:
    """A solve's outcome.  trace is the read-only (steps, 4) array of its
    accepted Newton steps in order, one row (t, merit, decrement, step
    length) each, the first phase1 of them phase I; `iterations` builds
    the Iteration records from it on each read, so a batch of solutions
    keeps no Python object per step."""

    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    margins: Optional[np.ndarray]
    trace: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    phase1: int = 0

    @property
    def iterations(self) -> Tuple[Iteration, ...]:
        return tuple(Iteration(1 if k < self.phase1 else 2, *row)
                     for k, row in enumerate(self.trace.tolist()))


def sym_eig(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) symmetric matrix, or of a stack.

    The input is symmetrized by averaging before factoring, eigenvalues
    come back ascending, and ||A - V diag(w) V'|| stays below
    1e-10 * (1 + ||A||).
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(0.5 * (a + a.swapaxes(-1, -2)))


def general_eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general square matrix (complex, unordered)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigvals(a)


def _cone(constant: np.ndarray, coeffs: np.ndarray, sense: str = PSD,
          strict: bool = False) -> Tuple[np.ndarray, np.ndarray, float]:
    """(c, f, shift): a block scaled and PSD-normalized.  The barrier keeps
    c + shift*I + x @ f positive definite; the least eigenvalue of
    c + x @ f is the block's margin."""
    sign = 1.0 if sense == PSD else -1.0
    scale = 1.0 / (1.0 + np.linalg.norm(constant))
    c = sign * scale * constant
    shift = (-EPSILON_STRICT if strict
             else 1e-9 * (1.0 + np.linalg.norm(c)))
    return c, sign * scale * coeffs, shift


# |x_i| <= 1e10, two rows of phase I per variable: the radius dwarfs
# anything a pre-scaled block can require, so the box never binds at a
# solution; it only keeps centering problems compact
_BOX = _cone(np.diag([1e10, 1e10]), np.diag([-1.0, 1.0]))


def _stacked(gufunc, *args) -> np.ndarray:
    """A numpy.linalg gufunc (Cholesky, inverse, solve) over a stack.

    These are the kernels np.linalg.cholesky, inv and solve call, member by
    member.  Called directly they fill a member that fails (not positive
    definite, singular) with NaN instead of raising for the whole stack.
    """
    with np.errstate(all="ignore"):
        return gufunc(*args)


def _split(cones: List[tuple], n: int,
           ) -> Tuple[np.ndarray, np.ndarray, List[tuple]]:
    """(lp_c, lp_f, matrix cones) of one program's (c, f, shift) cones.

    Diagonal cones are sets of scalar inequalities, so they are folded into
    one elementwise part s(x) = lp_c + x @ lp_f > 0; each row keeps the
    shift of the cone it came from.  A matrix cone is the pair (shifted
    constant, coefficients).
    """
    # a diagonal stack equals itself masked to its diagonal
    flags = [all(np.array_equal(a, a * np.eye(len(c))) for a in (c, f))
             for c, f, _ in cones]
    diagonal = [k for k, flag in zip(cones, flags) if flag]
    # the empty leading pieces keep the shapes right when no cone is
    # diagonal
    lp_c = np.concatenate(
        [np.zeros(0)] + [np.diag(c) + shift for c, _, shift in diagonal])
    lp_f = np.concatenate(
        [np.zeros((n, 0))] + [f.diagonal(axis1=1, axis2=2)
                              for _, f, _ in diagonal], axis=1)
    return lp_c, lp_f, [(c + shift * np.eye(len(c)), f)
                        for (c, f, shift), flag in zip(cones, flags)
                        if not flag]


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of a stack for the given programs, in ascending order;
    the stack itself, not a copy, when they are all of them."""
    return a if len(rows) == len(a) else a[rows]


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
                blocks = [(np.empty((count,) + c.shape),
                           np.empty((count,) + f.shape)) for c, f in matrix]
            self.c[slot], self.lp_c[slot], self.lp_f[slot] = (objective, lp_c,
                                                              lp_f)
            for (c, f), (kc, kf) in zip(blocks, matrix):
                c[slot], f[slot] = kc, kf
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

    The members enter together, at t = 1, and each keeps its own t, point,
    merit, budget, initial step length and stall count.  Each `step` takes
    one damped Newton step for every member.  A member's centering ends
    with an outcome, one of "converged", "stalled" (merit pinned at float
    resolution, a larger t is needed to make progress), "stopped" (phase I
    found a point with s < 0) or "budget", or with the breakdown that
    ended it.  Its run's `after` then either sends it back to re-center in
    place at a larger t, or lets it leave.
    """

    TOL = 1e-10

    def __init__(self, barrier: _Barrier, phase: int, trace: np.ndarray,
                 runs: list, x: np.ndarray):
        self.barrier, self.phase = barrier, phase
        # (program, step, [t, merit, decrement, step length]), step
        # counted over the whole solve
        self.trace = trace
        # state keys of a member's point: x, slack, Cholesky factors
        self.keys = ["x", "s"] + [f"l{j}" for j in range(len(barrier.blocks))]
        # members stay in slot order, so a step over all of them reads the
        # barrier's stacks without copying them
        self.runs = runs
        rows = np.array([run.slot for run in runs])
        ok, (ls, s) = barrier.factor(rows, x)
        count = len(runs)
        self.state = {"rows": rows, "t": np.ones(count), "x": x, "s": s,
                      **{f"l{j}": l for j, l in enumerate(ls)},
                      "budget": np.array([run.budget for run in runs]),
                      "merit": np.empty(count), "alpha": np.ones(count),
                      "stalls": np.zeros(count, dtype=int)}
        # entry factors the point first (a failure is a breakdown), then
        # checks the budget
        outcome = np.full(count, None, dtype=object)
        outcome[self.state["budget"] <= 0] = "budget"
        outcome[~ok] = FloatingPointError("centering started outside the cone")
        self._end(outcome, np.array([o is None for o in outcome]))

    def _point(self, i=slice(None)):
        """(Cholesky factors, slack) of the members i."""
        _, s, *ls = (self.state[key][i] for key in self.keys)
        return ls, s

    def _end(self, outcome: np.ndarray, restart: np.ndarray) -> None:
        """Hand each ended centering (an outcome not None) to its run.

        A member its run's `after` sends back re-centers in place at the
        new t, as do the `restart` members: step length 1, no stalls, and
        its merit at its t.  The others leave.
        """
        st = self.state
        stay = np.ones(len(self.runs), dtype=bool)
        for i in np.flatnonzero([o is not None for o in outcome]):
            run, x = self.runs[i], st["x"][i].copy()
            run.budget = int(st["budget"][i])
            t = run.after(self.phase, st["t"][i], x, outcome[i])
            stay[i] = restart[i] = t is not None
            if t is not None:
                st["t"][i] = t
        # on most steps no centering ends: skip the empty stacked calls
        i = np.flatnonzero(restart)
        if len(i):
            st["alpha"][i], st["stalls"][i] = 1.0, 0
            st["merit"][i] = self.barrier.merit(st["rows"][i], st["t"][i],
                                                st["x"][i], self._point(i))
        if not stay.all():
            self.runs = [run for run, k in zip(self.runs, stay) if k]
            self.state = {key: value[stay] for key, value in st.items()}

    def step(self) -> None:
        """One Newton step for every member."""
        st, b = self.state, self.barrier
        rows, t, x = st["rows"], st["t"], st["x"]
        dx, dec2, ok = b.newton_step(rows, t, x, self._point())
        outcome = np.full(len(rows), None, dtype=object)
        outcome[~ok] = FloatingPointError("Newton system not usable")
        converged = ok & (0.5 * dec2 <= self.TOL)
        outcome[converged] = "converged"

        # backtracking line search on the merit, every member at its own
        # step length; a rejected probe halves only its own alpha
        search = np.flatnonzero(ok & ~converged)
        alpha = st["alpha"][search]
        accepted = np.zeros(len(search), dtype=bool)
        new = {key: st[key][search] for key in self.keys}
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
            for key, value in zip(self.keys, [cand, s, *ls]):
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
        done = self.trace.shape[1] - st["budget"][i]
        self.trace[rows[i], done] = np.stack(
            [t[i], merit1, np.sqrt(dec2[i]), alpha[accepted]], axis=1)
        st["budget"][i] -= 1
        flat = merit0 - merit1 <= 1e-13 * (1.0 + np.abs(merit0))
        st["stalls"][i] = np.where(flat, st["stalls"][i] + 1, 0)
        ends = [(st["budget"][i] <= 0, "budget"),
                (st["stalls"][i] >= 3, "stalled")]
        if self.phase == 1:
            ends.append((x[i, -1] < -1e-10, "stopped"))
        # the last assignment wins: stopped, then stalled, then budget
        for mask, name in ends:
            outcome[i[mask]] = name
        self._end(outcome, np.zeros(len(rows), dtype=bool))


class _Run:
    """One program's way through the barrier method: its cones, budget,
    iteration trace and solution, and the outer loop (`after`) that runs
    between the lockstep centerings."""

    def __init__(self, program: LmiProgram):
        self.n = program.num_vars
        self.objective = program.objective
        self.cones = [_cone(b.constant, b.coeffs, b.sense, b.strict)
                      for b in program.blocks]
        self.m = sum(len(c) for c, _, _ in self.cones)
        self.budget = MAX_ITER
        # rows of the group's trace once the run is batched; phase1 is the
        # number of phase-I steps once phase II starts
        self.trace = np.empty((0, 4))
        self.phase1: Optional[int] = None
        self.solution: Optional[LmiSolution] = None
        self.slot = -1
        # presolve: a diagonal entry no variable touches must be
        # nonnegative in any PSD matrix, so a negative one certifies
        # infeasibility outright
        for c, f, shift in self.cones:
            fixed = np.all(f.diagonal(axis1=1, axis2=2) == 0.0, axis=0)
            if np.any(fixed & (np.diag(c) + shift < 0.0)):
                return self.finish(INFEASIBLE, None)
        self.main = _split(self.cones, self.n)
        try:
            # phase I starts from x = 0 with s above every cone's deficit
            s0 = max([1.0] + [1.0 - sym_eig(c + shift * np.eye(len(c)))[0][0]
                              for c, _, shift in self.cones])
        except np.linalg.LinAlgError:
            return self.finish(NUMERICAL_FAILURE, None)
        # the point the next phase starts from: (x, s) in phase I, x in II
        self.start = np.concatenate([np.zeros(self.n), [s0]])

    def barrier_data(self, phase: int) -> tuple:
        """(split cones, objective) of this program's barrier in a phase."""
        if phase == 2:
            return self.main, self.objective
        # phase I: min s with every shifted slack + s*I inside its cone
        lp_c, lp_f, matrix = self.main
        n = self.n
        # cap s from below: keeps phase I bounded and its Hessian regular
        # even when the cones leave escape directions open
        guard, _, shift = _cone(np.array([[2.0 * self.start[-1]]]),
                                np.zeros((n, 1, 1)))
        box, box_f, box_shift = _BOX
        # variable i's box rows are columns 2i and 2i + 1
        box_rows = np.zeros((n + 1, n, 2))
        box_rows[np.arange(n), np.arange(n)] = np.diag(box_f)
        lp_c = np.concatenate([lp_c, np.diag(guard) + shift,
                               np.tile(np.diag(box) + box_shift, n)])
        lp_f = np.concatenate([np.vstack([lp_f, np.ones(lp_f.shape[1])]),
                               np.eye(n + 1)[:, n:],
                               box_rows.reshape(n + 1, 2 * n)], axis=1)
        matrix = [(c, np.concatenate([f, np.eye(len(c))[None]]))
                  for c, f in matrix]
        return (lp_c, lp_f, matrix), np.eye(n + 1)[n]

    def steps(self) -> int:
        """Newton steps taken so far, both phases."""
        return MAX_ITER - self.budget

    def finish(self, status: str, x: Optional[np.ndarray]) -> None:
        """Settle the run's solution, of the given status at x."""
        trace = self.trace[:self.steps()]
        trace.setflags(write=False)
        phase1 = self.steps() if self.phase1 is None else self.phase1
        if x is None:
            self.solution = LmiSolution(status, None, None, None, trace,
                                        phase1)
            return
        margins = np.array([sym_eig(c + np.tensordot(x, f, axes=1))[0][0]
                            for c, f, _ in self.cones])
        # a claimed-feasible point must actually honor the margin contract:
        # -shift is EPSILON_STRICT for a strict cone, -eps_psd otherwise
        floors = -np.array([shift for _, _, shift in self.cones])
        if status in (OPTIMAL, FEASIBLE) and np.any(margins < floors - 1e-12):
            status = NUMERICAL_FAILURE
        self.solution = LmiSolution(status, x, float(self.objective @ x),
                                    margins, trace, phase1)

    def after(self, phase: int, t: float, x: np.ndarray,
              outcome) -> Optional[float]:
        """The outer loop: a phase's stop rules, applied when a centering
        at t ends at x with outcome (a name from _Centering, or the
        breakdown), its steps charged.  Returns the next t, or None once
        the run has its solution or, in phase I, its phase-II start point.
        A centering that would go on at a larger t with no step left (a
        stall on the last step) ends on the budget rule instead:
        NumericalFailure in phase I, Feasible at x in phase II.
        """
        if isinstance(outcome, Exception):
            # after phase-II progress, x is a point the line search
            # accepted inside every shifted cone
            if phase == 2 and self.steps() > self.phase1:
                return self.finish(FEASIBLE, x)
            return self.finish(NUMERICAL_FAILURE, None)
        if phase == 1:
            # min s over the widened cones, which add the guard and one 2x2
            # box per variable
            s, m_ext = x[-1], self.m + 1 + 2 * self.n
            if s < -1e-10:
                # phase II starts at the interior point found
                self.phase1, self.start = self.steps(), x[:self.n]
                return None
            if outcome == "budget":
                return self.finish(NUMERICAL_FAILURE, None)
            # the duality-gap bound on min s only holds at a true center
            if outcome == "converged" and s - m_ext / t > 0.0:
                return self.finish(INFEASIBLE, None)
            if m_ext / t < min(TOL_GAP, 1e-10):
                if s <= 0.0:
                    self.phase1, self.start = self.steps(), x[:self.n]
                    return None
                return self.finish(INFEASIBLE if outcome == "converged"
                                   else NUMERICAL_FAILURE, None)
            if self.budget <= 0:
                return self.finish(NUMERICAL_FAILURE, None)
            return 10.0 * t
        # phase II: the central path on the real objective
        if outcome == "budget":
            return self.finish(FEASIBLE, x)
        gap = np.inf
        if outcome == "converged":
            gap = self.m / t
        else:
            # once t pushes the merit past float resolution the decrement
            # tolerance is unreachable, but a stall inside the quadratic
            # region still bounds the gap, inflated by the distance to the
            # exact center
            dec = float(self.trace[self.steps() - 1, 2])
            if dec < 0.25:
                gap = (self.m + dec / (1.0 - dec) * np.sqrt(self.m)) / t
        if gap <= TOL_GAP:
            return self.finish(OPTIMAL, x)
        t = 10.0 * t
        return t if t < 1e18 and self.budget > 0 else self.finish(FEASIBLE, x)


def solve_batch(programs: Iterable[LmiProgram]) -> List[LmiSolution]:
    """Barrier solves with an infeasible start, one solution per program.

    Phase I minimizes the uniform slack shift s over the shifted cones and
    either finds an interior point (s < 0) or certifies, via the barrier
    duality gap, that the best achievable s is positive, meaning the
    relaxed problem is infeasible.  Phase II then follows the central path
    to a duality gap below TOL_GAP.  Each phase starts at t = 1, and
    `_Run.after` multiplies t by 10 after each centering until a stop rule
    fires.  A solve takes at most MAX_ITER Newton steps, both phases.

    Programs are grouped by barrier shape; each group runs phase I and then
    phase II in lockstep.  A program's solution is the same, bit for bit,
    whatever it is batched with.

    Statuses: Optimal (gap reached), Feasible (interior point found, gap
    target not reached: phase II stops when the iteration budget runs out,
    when its barrier parameter t passes 1e18 with budget left, or when a
    Newton step or line search breaks down after at least one accepted
    phase-II step, keeping the last accepted point), Infeasible (phase I
    certificate), NumericalFailure (a breakdown in phase I or at the
    phase-II start point, an exhausted phase-I budget, or a returned point
    that fails the margin contract).  Margins are minimum eigenvalues of
    the scaled, unshifted slacks, NSD blocks negated.
    """
    runs = [_Run(program) for program in programs]
    groups: dict = {}
    for run in runs:
        if run.solution is None:
            # programs of one barrier shape are stacked
            _, lp_f, matrix = run.main
            key = lp_f.shape, tuple(len(c) for c, _ in matrix)
            groups.setdefault(key, []).append(run)
    for group in groups.values():
        trace = np.empty((len(group), MAX_ITER, 4))
        for slot, run in enumerate(group):
            run.slot, run.trace = slot, trace[slot]
        # phase I ends for every member before phase II starts, so each
        # phase runs as few stacked steps as its slowest member needs, and
        # only one phase's stacks exist at a time
        for phase in (1, 2):
            members = [run for run in group if run.solution is None]
            if not members:
                break
            barrier = _Barrier(len(group), (run.barrier_data(phase)
                                            for run in group))
            centering = _Centering(barrier, phase, trace, members,
                                   np.array([run.start for run in members]))
            while centering.runs:
                centering.step()
            del barrier, centering
    return [run.solution for run in runs]


def solve(program: LmiProgram) -> LmiSolution:
    """`solve_batch` of the one program."""
    return solve_batch([program])[0]
