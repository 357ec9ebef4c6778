"""Decentralized gain synthesis for one DGU via an LMI program.

Each DGU gets a state-feedback row k = [k1, k2, k3] acting on its augmented
state [V, I_t, v].  Feasibility of the per-DGU LMI yields, besides the gain,
a structured Lyapunov matrix P whose (1,1) entry is pinned to
eta = sigma_bar * C_t; the network-wide constant sigma_bar is what lets the
local certificates compose into a global one (see certify).

The synthesis consumes only the DGU's own matrices, never the lines it
happens to be attached to, which is what makes plug-in decisions local.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
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
from .model import AugmentedDgu, DguParams, MicrogridTopology, augmented_dgu

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
        if not (np.isfinite(self.sigma_bar) and self.sigma_bar > 0):
            raise ValueError("sigma_bar must be positive")
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
    """Synthesized gain with its local stability certificate.

    p is structured: p[0,0] = eta, p[0,1] = p[0,2] = 0, trailing 2x2 block
    positive definite.  q_local = F'P + PF for the closed loop
    F = A_hat + B_hat k is negative semidefinite with zero first row and
    column; its trailing block annihilates [1, delta].
    """

    k: np.ndarray
    p: np.ndarray
    eta: float
    raw: Mapping[str, object]
    delta: float
    q_local: np.ndarray

    def __post_init__(self):
        for name in ("k", "p", "q_local"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __reduce__(self):
        # rebuilt through __init__, so unpickled arrays are read-only too
        return (LocalController, (self.k, self.p, self.eta, self.raw,
                                  self.delta, self.q_local))

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


def _extract(sol: LmiSolution, params: DguParams,
             cfg: SynthesisConfig) -> Tuple[np.ndarray, np.ndarray, dict]:
    """(k, p, raw) from a feasible solver point.

    k comes from g Y^-1, inverted blockwise so the pinned zeros of Y are
    honored exactly.  p is rebuilt from the gain via the closed-form
    structure equations, which zeroes the cross terms of q_local to
    machine precision; if the gain's sign pattern leaves that route (it
    never has in practice), fall back to inverting Y directly.
    """
    eta = cfg.sigma_bar * params.c_t
    y22, y23, y33, g1, g2, g3 = sol.x[:6]
    gammas = sol.x[6:9].copy()
    beta, zeta = float(sol.x[9]), float(sol.x[10])
    y_tail = np.array([[y22, y23], [y23, y33]])
    k_tail = np.linalg.solve(y_tail.T, np.array([g2, g3]))
    k = np.array([g1 * eta, k_tail[0], k_tail[1]])

    lt = params.l_t
    b = (k[0] - 1.0) / lt
    c = (k[1] - params.r_t) / lt
    d = k[2] / lt
    if c < 0.0 and d > 0.0 and (d - b * c) < 0.0:
        p23 = cfg.sigma_bar * d / (d - b * c)
        p22 = cfg.sigma_bar * c / (d - b * c)
        p33 = b * p23
    else:
        p_tail = np.linalg.inv(y_tail)
        p22, p23, p33 = p_tail[0, 0], p_tail[0, 1], p_tail[1, 1]
    p = np.array([[eta, 0.0, 0.0],
                  [0.0, p22, p23],
                  [0.0, p23, p33]])
    raw = {
        "y": _y_matrix(eta, y22, y23, y33),
        "g": np.array([g1, g2, g3]),
        "gamma": gammas,
        "beta": beta,
        "zeta": zeta,
        "margins": sol.margins.copy(),
    }
    return k, p, raw


def _verify_invariants(k, p, q, delta, raw, eta) -> Optional[str]:
    """Eigenvalue-level recheck of everything LocalController promises."""
    norm_p = np.linalg.norm(p)
    if abs(p[0, 0] - eta) > 1e-10 * norm_p:
        return "p[0,0] != eta"
    if max(abs(p[0, 1]), abs(p[0, 2])) > 1e-10 * norm_p:
        return "p cross terms not zero"
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


def _decide(sol: LmiSolution, dgu: AugmentedDgu, params: DguParams,
            cfg: SynthesisConfig,
            ) -> Union[LocalController, Denied, NumericalFailure]:
    """The verdict on one unit from its solver result."""
    if sol.status == INFEASIBLE:
        return Denied("local LMI infeasible")
    if sol.status == NUMERICAL_FAILURE:
        return NumericalFailure("LMI solver did not converge")
    k, p, raw = _extract(sol, params, cfg)
    if abs(k[2]) <= K3_FLOOR * np.linalg.norm(k):
        return Denied("k3 is numerically zero; re-weight the objective "
                      "and synthesize again")
    delta = -(k[1] - params.r_t) / k[2]
    q = local_dissipation(dgu.a_hat_ii, dgu.b_hat[:, 0], k, p)
    eta = cfg.sigma_bar * params.c_t
    problem = _verify_invariants(k, p, q, delta, raw, eta)
    if problem is not None:
        return NumericalFailure(f"extracted controller invalid: {problem}")
    phase1 = sol.iterations.phase1
    raw["solver"] = {"status": sol.status,
                     "iterations_phase1": phase1,
                     "iterations_phase2": len(sol.iterations) - phase1}
    return LocalController(k, p, eta, raw, float(delta), q)


def _solve_range(units, cfg: SynthesisConfig) -> list:
    """Verdicts of units, solved _LOCKSTEP_UNITS at a time in lockstep,
    each batch decided before the next is assembled."""
    verdicts: list = []
    for start in range(0, len(units), _LOCKSTEP_UNITS):
        batch = units[start:start + _LOCKSTEP_UNITS]
        # a generator: each program is let go once the solver has read it
        sols = solve_batch(assemble_problem(dgu, params, cfg)
                           for dgu, params in batch)
        verdicts += [_decide(sol, dgu, params, cfg)
                     for (dgu, params), sol in zip(batch, sols)]
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


def controller_to_json(dgu_id: int, ctrl: LocalController,
                       cfg: SynthesisConfig) -> dict:
    doc = {
        "dgu_id": dgu_id,
        "K": ctrl.k.tolist(),
        "P": ctrl.p.tolist(),
        "eta": ctrl.eta,
        "sigma_bar": cfg.sigma_bar,
        "delta": ctrl.delta,
        "diagnostics": {
            "gamma": np.asarray(ctrl.raw["gamma"]).tolist(),
            "beta": ctrl.raw["beta"],
            "zeta": ctrl.raw["zeta"],
            "gain_norm": float(np.linalg.norm(ctrl.k)),
            "gain_norm_bound": ctrl.norm_bound(),
        },
    }
    if "solver" in ctrl.raw:
        doc["diagnostics"]["solver"] = dict(ctrl.raw["solver"])
    return doc
