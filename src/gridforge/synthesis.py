"""Decentralized gain synthesis for one DGU via an LMI program.

Each DGU gets a state-feedback row k = [k1, k2, k3] acting on its augmented
state [V, I_t, v].  Feasibility of the per-DGU LMI yields, besides the gain,
a structured Lyapunov matrix P whose (1,1) entry is pinned to
eta = sigma_bar * C_t; the network-wide constant sigma_bar is what lets the
local certificates compose into a global one (see certify).

A solver point becomes a controller by one route (_decide): the gain from
G Y^-1, the k3 gate, a LocalController of that gain, and an
eigenvalue-level recheck.  local_certificate, over a stack of gains, is
the one route from K to P and delta.  The bundle format lives in cli.

The synthesis consumes only the DGU's own matrices, never the lines it
happens to be attached to, which is what makes plug-in decisions local.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import _forks
from .lmi import (
    INFEASIBLE,
    NSD,
    NUMERICAL_FAILURE,
    PSD,
    LmiBlock,
    LmiProgram,
    LmiSolution,
    solve,  # noqa: F401  perfbench/spans.py wraps it here
    solve_batch,
    sym_eig,
)
from .model import (AugmentedDgu, DguParams, MicrogridTopology, _frozen,
                    _positive, augmented_dgu, unit_blocks)

DEFAULT_ALPHAS = (1e-4, 1e-4, 1e-4, 1e-2, 1e-2)

NOT_APPLICABLE = "NotApplicable"

# k3 is numerically zero at |k3| <= K3_FLOOR |k|: _decide denies the design
K3_FLOOR = 1e-9

# Units solved in one lockstep batch.  The 125 green-box programs (one
# BLAS thread, best of 3, on a shared 2-CPU host whose speed varied
# between runs) took 5.6-6.9 s at width 8, 2.0-3.5 s at 32, 1.9-3.0 s at
# 64 and 1.5-2.3 s at 125: a batched step (about 400 a solve) costs
# 0.85-1.1, 1.2-2.2, 2.3-3.7 and 3.7-5.7 ms at those widths, against
# 0.35-0.56 ms for one program.  So past 32 a wider batch saves little
# time, while its memory grows with it: a 125-wide batch peaks at
# 6.1-6.3 MB against 2.1-2.3 MB at 32 (tracemalloc), 12.8 KB a unit of
# that the (MAX_ITER, 4) iteration trace.  Calls of more than one batch
# are split across CPUs instead (synthesize_batch).
_LOCKSTEP_UNITS = 32


class NumericalFailure(RuntimeError):
    """Solver breakdown or an extracted controller failing its invariants.

    Deliberately distinct from Denied: callers may retry or report, but
    must not treat it as a plug-in refusal.
    """


@dataclass(frozen=True)
class SynthesisConfig:
    sigma_bar: float
    alphas: Tuple[float, float, float, float, float] = DEFAULT_ALPHAS

    def __post_init__(self):
        _positive("sigma_bar", self.sigma_bar)
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != 5 or any(a <= 0 or not np.isfinite(a) for a in alphas):
            raise ValueError("alphas must be five positive weights")
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class Denied:
    """Synthesis refusal: the LMI is infeasible or the k3 gate failed."""

    reason: str


@dataclass(frozen=True)
class LocalController:
    """A gain with its local stability certificate, built from the gain
    row k, its solver diagnostics raw, the unit's params and sigma_bar.

    The rest is derived, and nothing else sets it: p and delta are
    local_certificate's (a gain outside the design set is a ValueError),
    p[0,0] = eta = sigma_bar C_t, p[0,1] = p[0,2] = 0, trailing 2x2 block
    positive definite.  q_local = F'P + PF for F = A_hat + B_hat k is NSD
    with zero first row and column; its trailing block annihilates
    [1, delta].
    """

    k: np.ndarray
    raw: Mapping[str, object]
    params: DguParams
    sigma_bar: float
    p: np.ndarray = field(init=False)
    eta: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        k = _frozen(self.k)
        params = self.params
        p, delta = local_certificate(k[None], params.r_t, params.l_t,
                                     params.c_t, self.sigma_bar)
        for name, value in (("k", k), ("p", _frozen(p[0])),
                            ("eta", float(p[0, 0, 0])),
                            ("delta", float(delta[0]))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def q_local(self) -> np.ndarray:
        # on first read: certify derives its own, stacked
        a, b, _ = unit_blocks([self.params])
        return _frozen(local_dissipation(a[0], b[0], self.k, self.p))

    def __reduce__(self):
        # rebuilt through __init__, so unpickled arrays are read-only too
        return (LocalController, (self.k, self.raw, self.params,
                                  self.sigma_bar))

    def norm_bound(self) -> float:
        """Lemma-style cap sqrt(beta)*zeta on the gain norm."""
        return float(np.sqrt(self.raw["beta"]) * self.raw["zeta"])


def local_dissipation(a_hat: np.ndarray, b_hat: np.ndarray, k: np.ndarray,
                      p: np.ndarray) -> np.ndarray:
    """q_local = F'P + PF along the closed loop F = a_hat + b_hat k.

    Of one unit (a_hat 3x3; b_hat, k of length 3) or of a stack of units
    (leading axes alike), in one stacked product.
    """
    f = a_hat + b_hat[..., :, None] * k[..., None, :]
    return np.swapaxes(f, -1, -2) @ p + p @ f


# one semidefiniteness tolerance for the certificates, given a norm
def semidefinite_eps(norm):
    return 1e-8 * (1.0 + norm)


def check_local_stacks(q: np.ndarray, p: np.ndarray) -> Dict[str, np.ndarray]:
    """Structure checks of stacked local certificates, in one batched
    symmetric eigensolve over the (N, 3, 3) stacks of q_i and P_i: each
    field of certify.LocalStructureReport as an array with one entry per
    unit."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = len(q)
    w = sym_eig(np.concatenate([q, p]))[0]
    w_q, w_p = w[:n], w[n:]
    eps_q = semidefinite_eps(np.linalg.norm(q, axis=(1, 2)))
    eps_p = semidefinite_eps(np.linalg.norm(p, axis=(1, 2)))
    row = np.max(np.abs(q[:, 0, :]), axis=1)
    col = np.max(np.abs(q[:, :, 0]), axis=1)
    q11 = q[:, 0, 0]
    smallest = np.min(np.abs(w_q), axis=1)
    p_min = w_p[:, 0]
    asymmetry = np.max(np.abs(p - np.swapaxes(p, 1, 2)), axis=(1, 2))
    violations = np.stack([w_q[:, -1] - eps_q, np.abs(q11) - eps_q,
                           row - eps_q, col - eps_q, smallest - eps_q,
                           asymmetry - eps_p, -p_min], axis=1)
    return {
        "passed": np.all(violations[:, :-1] <= 0.0, axis=1) & (p_min > 0.0),
        "max_violation": np.maximum(np.max(violations, axis=1), 0.0),
        "q_max_eig": w_q[:, -1],
        "q11": q11,
        "first_row_max": np.maximum(row, col),
        "smallest_abs_eig": smallest,
        "p_min_eig": p_min,
    }


def _y_matrix(eta: float, y22: float, y23: float, y33: float) -> np.ndarray:
    return np.array([[1.0 / eta, 0.0, 0.0],
                     [0.0, y22, y23],
                     [0.0, y23, y33]])


def assemble_problem(dgu: AugmentedDgu, params: DguParams,
                     cfg: SynthesisConfig) -> LmiProgram:
    """Build the 11-variable local feasibility/weighting program.

    Variables: the three free entries of Y's trailing block, the three
    entries of G, the three Gamma weights, beta, zeta.  Y(1,1) is pinned to
    1/eta and Y(1,2) = Y(1,3) = 0, so those never appear as unknowns.

    Blocks: the 6x6 dissipation block (NSD), the 4x4 gain-size block
    (strict NSD), the 6x6 conditioning block (strict PSD), plus scalar
    bounds gamma >= 0 (each), beta > 0, zeta > 0.
    """
    eta = cfg.sigma_bar * params.c_t
    a_hat = dgu.a_hat_ii
    b_hat = dgu.b_hat

    def dissipation(v):
        y = _y_matrix(eta, v[0], v[1], v[2])
        g = np.array([[v[3], v[4], v[5]]])
        tl = a_hat @ y + y @ a_hat.T + b_hat @ g + g.T @ b_hat.T
        out = np.zeros((6, 6))
        out[:3, :3] = tl
        out[:3, 3:] = y
        out[3:, :3] = y
        out[3:, 3:] = -np.diag(v[6:9])
        return out

    def gain_size(v):
        out = np.zeros((4, 4))
        out[:3, :3] = -v[9] * np.eye(3)
        out[3, :3] = [v[3], v[4], v[5]]
        out[:3, 3] = [v[3], v[4], v[5]]
        out[3, 3] = -1.0
        return out

    def conditioning(v):
        out = np.zeros((6, 6))
        out[:3, :3] = _y_matrix(eta, v[0], v[1], v[2])
        out[:3, 3:] = np.eye(3)
        out[3:, :3] = np.eye(3)
        out[3:, 3:] = v[10] * np.eye(3)
        return out

    def affine_block(builder, sense, strict):
        const = builder(np.zeros(11))
        coeffs = np.array([builder(e) for e in np.eye(11)]) - const
        return LmiBlock(const, coeffs, sense=sense, strict=strict)

    def scalar_bound(i, strict):
        return LmiBlock(np.zeros((1, 1)), np.eye(11)[i][:, None, None],
                        sense=PSD, strict=strict)

    blocks = (
        affine_block(dissipation, NSD, False),
        affine_block(gain_size, NSD, True),
        affine_block(conditioning, PSD, True),
        scalar_bound(6, False),
        scalar_bound(7, False),
        scalar_bound(8, False),
        scalar_bound(9, True),
        scalar_bound(10, True),
    )
    objective = np.zeros(11)
    objective[6:] = cfg.alphas
    return LmiProgram(11, objective, blocks)


def _verify_invariants(k, p, q, delta, raw) -> Optional[str]:
    """Eigenvalue-level recheck of everything LocalController promises
    that its closed form does not make literal."""
    local = check_local_stacks(q[None], p[None])
    if local["p_min_eig"][0] <= 0.0:
        return "p not positive definite"
    norm_q = np.linalg.norm(q)
    if local["q_max_eig"][0] > semidefinite_eps(norm_q):
        return "q_local not negative semidefinite"
    if np.max(np.abs(q[0, :])) > 1e-8 * norm_q:
        return "q_local first row not zero"
    if not local["passed"][0]:
        return "local certificate check failed"
    q_tail = q[1:, 1:]
    resid = q_tail @ np.array([1.0, delta])
    if np.linalg.norm(resid) > 1e-6 * np.linalg.norm(q_tail):
        return "q_tail does not annihilate [1, delta]"
    f22_scale = abs(p[1, 1])
    if abs(p[1, 1] + delta * p[1, 2]) > 1e-6 * f22_scale:
        return "p22 = -delta*p23 violated"
    if np.linalg.norm(k) >= np.sqrt(raw["beta"]) * raw["zeta"]:
        return "gain norm bound violated"
    return None


def local_certificate(k: np.ndarray, r_t: np.ndarray, l_t: np.ndarray,
                      c_t: np.ndarray, sigma_bar: float,
                      ids: Optional[Sequence[int]] = None,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """(P, delta) of N stacked gains: k is (N, 3), and r_t, l_t and c_t
    are the units' filter constants (arrays of N, or one value for all).
    P is the (N, 3, 3) stack of each unit's one structured P, P[0,0] =
    eta = sigma_bar C_t, with q_local = F'P + PF NSD, whose trailing block
    annihilates [1, delta]; delta is (N,).

    With b = (k1 - 1)/L_t, c = (k2 - R_t)/L_t and d = k3/L_t, the unit's
    own closed loop F = a_hat + b_hat k has the characteristic
    polynomial s^3 - c s^2 - (b/C_t) s + d/C_t.  By Routh-Hurwitz, F is
    Hurwitz if and only if -c > 0, -b/C_t > 0, d/C_t > 0 and
    (-c)(-b/C_t) > d/C_t; given c < 0 and d > 0, bc > d forces b < 0.
    That is the local design set c < 0, d > 0, d - bc < 0, or k1 < 1,
    k2 < R_t and 0 < k3 < (k1 - 1)(k2 - R_t)/L_t, and P exists exactly
    there (tests/test_closed_form.py checks both symbolically).  Outside
    it, ValueError names the first failing unit, as DGU ids[i] when ids
    are given, and the bound it fails.
    """
    k = np.asarray(k, dtype=float)
    b = (k[:, 0] - 1.0) / l_t
    c = (k[:, 1] - r_t) / l_t
    d = k[:, 2] / l_t
    e = d - b * c
    inside = (c < 0.0) & (d > 0.0) & (e < 0.0)
    if not inside.all():
        i = int(np.argmin(inside))
        k1, k2, k3 = k[i]
        r, l = (np.broadcast_to(x, inside.shape)[i] for x in (r_t, l_t))
        if not c[i] < 0.0:
            bound = f"k2 = {k2:g} is not below R_t = {r:g}"
        elif not d[i] > 0.0:
            bound = f"k3 = {k3:g} is not positive"
        else:
            bound = (f"k3 = {k3:g} is not below (k1 - 1)(k2 - R_t)/L_t = "
                     f"{(k1 - 1.0) * (k2 - r) / l:g}")
        where = "" if ids is None else f"DGU {ids[i]}: "
        raise ValueError(f"{where}gain outside the local design set: "
                         f"{bound}")
    p23 = sigma_bar * d / e
    p = np.zeros((len(k), 3, 3))
    p[:, 0, 0] = sigma_bar * c_t
    p[:, 1, 1] = sigma_bar * c / e
    p[:, 1, 2] = p[:, 2, 1] = p23
    p[:, 2, 2] = b * p23
    return p, -(k[:, 1] - r_t) / k[:, 2]


def _decide(sol: LmiSolution, params: DguParams, cfg: SynthesisConfig,
            ) -> Union[LocalController, Denied, NumericalFailure]:
    """The verdict on one unit from its solver point, in one pass.

    k comes from G Y^-1, with Y's trailing block solved on its own so the
    pinned zeros of Y hold exactly, and a k3 that is numerically zero is
    denied.  P and delta are local_certificate's, so a gain outside the
    local design set is a breakdown.  The controller is rechecked by
    _verify_invariants.
    """
    if sol.status == INFEASIBLE:
        return Denied("local LMI infeasible")
    if sol.status == NUMERICAL_FAILURE:
        return NumericalFailure("LMI solver did not converge")
    eta = cfg.sigma_bar * params.c_t
    y22, y23, y33, g1, g2, g3 = sol.x[:6]
    k_tail = np.linalg.solve(np.array([[y22, y23], [y23, y33]]).T,
                             np.array([g2, g3]))
    k = np.array([g1 * eta, k_tail[0], k_tail[1]])
    if abs(k[2]) <= K3_FLOOR * np.linalg.norm(k):
        return Denied("k3 is numerically zero; re-weight the objective "
                      "and synthesize again")
    raw = {"y": _y_matrix(eta, y22, y23, y33), "g": np.array([g1, g2, g3]),
           "gamma": sol.x[6:9].copy(), "beta": float(sol.x[9]),
           "zeta": float(sol.x[10]), "margins": sol.margins.copy(),
           "solver": {"status": sol.status,
                      "iterations_phase1": sol.phase1,
                      "iterations_phase2": len(sol.trace) - sol.phase1}}
    try:
        ctrl = LocalController(k, raw, params, cfg.sigma_bar)
    except ValueError:
        return NumericalFailure("extracted controller invalid: gain outside "
                                "the local design set")
    problem = _verify_invariants(ctrl.k, ctrl.p, ctrl.q_local, ctrl.delta,
                                 raw)
    if problem is not None:
        return NumericalFailure(f"extracted controller invalid: {problem}")
    return ctrl


def _solve_range(units, cfg: SynthesisConfig) -> list:
    """Verdicts of units, solved _LOCKSTEP_UNITS at a time in lockstep,
    each batch decided before the next is assembled."""
    verdicts: list = []
    for start in range(0, len(units), _LOCKSTEP_UNITS):
        batch = units[start:start + _LOCKSTEP_UNITS]
        # a generator: each program is let go once the solver has read it
        sols = solve_batch(assemble_problem(dgu, params, cfg)
                           for dgu, params in batch)
        verdicts += [_decide(sol, params, cfg)
                     for (_, params), sol in zip(batch, sols)]
    return verdicts


def synthesize_batch(units: Sequence[Tuple[AugmentedDgu, DguParams]],
                     cfg: SynthesisConfig,
                     ) -> List[Union[LocalController, Denied,
                                     NumericalFailure]]:
    """Solve the local programs of many units at once, one verdict each.

    The units are split into contiguous ranges, one per available CPU but
    no more than there are batches of _LOCKSTEP_UNITS.  Forked processes
    solve ranges 1 and up while this one solves range 0 (see _forks);
    a call of one batch or fewer forks nothing.  Each range goes to the
    solver in batches of up to _LOCKSTEP_UNITS units, each run in
    lockstep and decided before the next is assembled.  The verdicts come
    back in unit order, and each is the one `synthesize` gives that unit
    alone, bit for bit.  A breakdown is returned as its NumericalFailure,
    not raised, and does not touch the other units; an exception raised
    while solving a forked range is raised here, with its type and
    message.
    """
    units = list(units)

    def solve_range(lo, hi, spool):
        try:
            outcome = _solve_range(units[lo:hi], cfg)
        except Exception as exc:  # raised again in the caller's process
            outcome = exc
        pickle.dump(outcome, spool)

    ranges = _forks.range_count(-(-len(units) // _LOCKSTEP_UNITS))
    with _forks.forked_ranges(len(units), ranges, solve_range,
                              "synthesis") as (end, spools):
        verdicts = _solve_range(units[:end], cfg)
        for spool in spools:
            # written by this program's own forked children
            outcome = pickle.load(spool)
            if isinstance(outcome, Exception):
                raise outcome
            verdicts += outcome
    return verdicts


def synthesize(dgu: AugmentedDgu, params: DguParams,
               cfg: SynthesisConfig) -> Union[LocalController, Denied]:
    """Solve the local program and extract a verified controller.

    Returns Denied when the program is infeasible or the resulting k3 is
    numerically zero (relative to the gain); raises NumericalFailure when
    the solver breaks down or the extracted controller fails any invariant
    recheck.
    """
    (outcome,) = synthesize_batch([(dgu, params)], cfg)
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


def synthesize_all(topology: MicrogridTopology, cfg: SynthesisConfig,
                   ) -> Dict[int, Union[LocalController, Denied]]:
    """Per-DGU synthesis over a topology, keyed by DGU id, in one batch.

    Synthesis only reads each DGU's own parameters, so the map is pure and
    order-independent.  Raises the NumericalFailure of the first unit, in
    id order, that broke down.
    """
    dgus = topology.dgus
    outcomes = synthesize_batch([(augmented_dgu(dgus[i]), dgus[i])
                                 for i in topology.ids], cfg)
    for outcome in outcomes:
        if isinstance(outcome, NumericalFailure):
            raise outcome
    return dict(zip(topology.ids, outcomes))


def verify_k1_identity(ctrl: LocalController, params: DguParams,
                       cfg: SynthesisConfig) -> Union[float, str]:
    """Residual of the closed-form k1 relation implied by q_local's zeros.

    Returns NOT_APPLICABLE when delta = 0 (k2 = R_t exactly), where the
    relation degenerates.
    """
    if ctrl.delta == 0.0:
        return NOT_APPLICABLE
    lt = params.l_t
    predicted = 1.0 - lt / ctrl.delta - cfg.sigma_bar * lt / ctrl.p[1, 1]
    return float(abs(ctrl.k[0] - predicted))
