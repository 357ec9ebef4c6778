"""Correctness checks on gridforge's outputs, built apart from the program.

Every matrix here comes from the circuit equations written out again in
this file, not from gridforge's own assembly.  Each check returns a list
of problems; an empty list means the output passed.

DGU i, augmented state [V, I_t, v] (PCC voltage, filter current, tracking
integrator v' = v_ref - V), input u = k x:

    C_t V'   = I_t - I_L + sum_j (V_j - V_i) / R_ij
    L_t I_t' = -V - R_t I_t + u
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.linalg

# DGU parameters as plain tuples: (r_t, l_t, c_t)
Filter = Tuple[float, float, float]


def augmented(r_t: float, l_t: float, c_t: float) -> Tuple[np.ndarray,
                                                          np.ndarray]:
    """(A, b) of one DGU with its integrator and no line terms."""
    a = np.array([[0.0, 1.0 / c_t, 0.0],
                  [-1.0 / l_t, -r_t / l_t, 0.0],
                  [-1.0, 0.0, 0.0]])
    b = np.array([0.0, 1.0 / l_t, 0.0])
    return a, b


# ---------------------------------------------------------------------------
# design-sweep: one granted plug-in request

def lmi_blocks(a: np.ndarray, b: np.ndarray, eta: float, y: np.ndarray,
               g: np.ndarray, gamma: np.ndarray, beta: float, zeta: float,
               ) -> List[Tuple[np.ndarray, np.ndarray, float]]:
    """(value, value at zero variables, sign) of each local LMI block.

    The sign turns every block into "must be positive semidefinite".
    The blocks: dissipation, gain size, conditioning, gamma_i >= 0,
    beta > 0, zeta > 0, in the program's order.
    """
    def dissipation(y, g, gamma):
        tl = a @ y + y @ a.T + np.outer(b, g) + np.outer(g, b)
        return np.block([[tl, y], [y, -np.diag(gamma)]])

    def gain_size(g, beta):
        out = -beta * np.eye(4)
        out[3, :3] = out[:3, 3] = g
        out[3, 3] = -1.0
        return out

    def conditioning(y, zeta):
        return np.block([[y, np.eye(3)], [np.eye(3), zeta * np.eye(3)]])

    y0 = np.diag([1.0 / eta, 0.0, 0.0])
    zero3 = np.zeros(3)
    blocks = [
        (dissipation(y, g, gamma), dissipation(y0, zero3, zero3), -1.0),
        (gain_size(g, beta), gain_size(zero3, 0.0), -1.0),
        (conditioning(y, zeta), conditioning(y0, 0.0), 1.0),
    ]
    for value in (*gamma, beta, zeta):
        blocks.append((np.array([[value]]), np.zeros((1, 1)), 1.0))
    return blocks


def check_grant(params: Filter, sigma_bar: float, k: np.ndarray,
                p: np.ndarray, raw: Mapping) -> List[str]:
    """Properties every granted local design must have (Lemma 1 of the
    method): structured P with P11 = sigma_bar C_t, F'P + PF NSD with a
    zero first row, |k| < sqrt(beta) zeta, k3 != 0, and every LMI block
    satisfied at the returned variables.  Block margins are in the
    solver's scaled units: the block divided by 1 + |block at zero|_F.
    """
    problems = []
    r_t, l_t, c_t = params
    a, b = augmented(r_t, l_t, c_t)
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    norm_p = np.linalg.norm(p)
    eta = sigma_bar * c_t
    if abs(p[0, 0] - eta) > 1e-12 * eta:
        problems.append(f"P11 = {p[0, 0]!r}, expected sigma_bar*C_t = {eta!r}")
    if max(abs(p[0, 1]), abs(p[0, 2]), abs(p[1, 0]), abs(p[2, 0])) \
            > 1e-10 * norm_p:
        problems.append("P is not structured (nonzero first-row coupling)")
    if np.linalg.norm(p - p.T) > 1e-12 * norm_p:
        problems.append("P is not symmetric")
    if np.linalg.eigvalsh(0.5 * (p + p.T))[0] <= 0.0:
        problems.append("P is not positive definite")
    f = a + np.outer(b, k)
    q = f.T @ p + p @ f
    norm_q = np.linalg.norm(q)
    q_max = np.linalg.eigvalsh(0.5 * (q + q.T))[-1]
    if q_max > 1e-8 * (1.0 + norm_q):
        problems.append(f"F'P + PF has eigenvalue {q_max:.3g} > 0")
    if np.max(np.abs(q[0, :])) > 1e-8 * norm_q:
        problems.append("F'P + PF has a nonzero first row")
    bound = math.sqrt(raw["beta"]) * raw["zeta"]
    if not np.linalg.norm(k) < bound:
        problems.append(f"|k| = {np.linalg.norm(k):.6g} >= sqrt(beta)*zeta"
                        f" = {bound:.6g}")
    if not abs(k[2]) > 1e-9 * np.linalg.norm(k):
        problems.append("k3 is zero")
    blocks = lmi_blocks(a, b, eta, np.asarray(raw["y"]),
                        np.asarray(raw["g"]), np.asarray(raw["gamma"]),
                        raw["beta"], raw["zeta"])
    for index, (value, const, sign) in enumerate(blocks):
        scale = 1.0 / (1.0 + np.linalg.norm(const))
        margin = np.linalg.eigvalsh(sign * scale * value)[0]
        if margin < -1e-8:
            problems.append(f"LMI block {index} margin {margin:.3g} < -1e-8")
    return problems


# ---------------------------------------------------------------------------
# closed loops assembled from the lines and the gains

def closed_loop(dgus: Mapping[int, Mapping], lines: Sequence[Mapping],
                gains: Mapping[int, Sequence[float]], *, loads: bool,
                rl: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """x' = A x + c over units in ascending id order, then line currents.

    dgus maps id -> {"r_t", "l_t", "c_t", "load", "v_ref"} as in a
    scenario file; lines are {"i", "j", "r", "l"}.  With loads=False the
    loads and references are left out (the model that certification
    uses); with rl=True each line gets a current state, oriented i -> j.
    """
    ids = sorted(dgus)
    pos = {dgu_id: 3 * k for k, dgu_id in enumerate(ids)}
    base = 3 * len(ids)
    dim = base + (len(lines) if rl else 0)
    a = np.zeros((dim, dim))
    c = np.zeros(dim)
    for dgu_id in ids:
        d = dgus[dgu_id]
        s = pos[dgu_id]
        blk, b = augmented(d["r_t"], d["l_t"], d["c_t"])
        a[s:s + 3, s:s + 3] = blk + np.outer(b, gains[dgu_id])
        if loads:
            c[s + 2] = d["v_ref"]
            load = d["load"]
            if load["type"] == "resistance":
                a[s, s] -= 1.0 / (load["value"] * d["c_t"])
            else:
                c[s] -= load["value"] / d["c_t"]
    for m, ln in enumerate(lines):
        si, sj = pos[ln["i"]], pos[ln["j"]]
        ci, cj = dgus[ln["i"]]["c_t"], dgus[ln["j"]]["c_t"]
        if rl:
            row = base + m
            a[row, si], a[row, sj] = 1.0 / ln["l"], -1.0 / ln["l"]
            a[row, row] = -ln["r"] / ln["l"]
            a[si, row] -= 1.0 / ci
            a[sj, row] += 1.0 / cj
        else:
            a[si, si] -= 1.0 / (ln["r"] * ci)
            a[si, sj] += 1.0 / (ln["r"] * ci)
            a[sj, sj] -= 1.0 / (ln["r"] * cj)
            a[sj, si] += 1.0 / (ln["r"] * cj)
    return a, c


def affine_flow(a: np.ndarray, c: np.ndarray, x0: np.ndarray,
                t: float) -> np.ndarray:
    """Exact solution of x' = Ax + c at time t from x0."""
    n = a.shape[0]
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = a
    m[:n, n] = c
    return (scipy.linalg.expm(t * m) @ np.append(x0, 1.0))[:n]


def rk4_flow(a: np.ndarray, c: np.ndarray, x0: np.ndarray, h: float,
             steps: int) -> np.ndarray:
    """Classical RK4 with step h, `steps` times, on x' = Ax + c.

    On a linear system one RK4 step is the degree-4 Taylor polynomial of
    exp(hM) for the augmented matrix M = [[A, c], [0, 0]].
    """
    n = a.shape[0]
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = h * a
    m[:n, n] = h * c
    step = np.eye(n + 1)
    term = np.eye(n + 1)
    for j in range(1, 5):
        term = term @ m / j
        step = step + term
    return (np.linalg.matrix_power(step, steps) @ np.append(x0, 1.0))[:n]


# ---------------------------------------------------------------------------
# replay-shipped

def read_trajectory(path) -> Tuple[List[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_trajectory_grid(header: Sequence[str], data: np.ndarray,
                          ids: Sequence[int], rows: int,
                          t_end: float) -> List[str]:
    problems = []
    expected = ["t"] + [f"dgu{i}.{col}" for i in ids
                        for col in ("V", "It", "v", "u")]
    if list(header) != expected:
        problems.append(f"CSV header {header[:5]}... is not {expected[:5]}...")
        return problems
    if data.shape != (rows, len(expected)):
        problems.append(f"CSV has shape {data.shape}, expected "
                        f"({rows}, {len(expected)})")
        return problems
    t = data[:, 0]
    if not np.all(np.diff(t) > 0.0):
        problems.append("CSV times are not strictly increasing")
    if abs(t[-1] - t_end) > 1e-9 * t_end:
        problems.append(f"CSV ends at t = {t[-1]!r}, not {t_end!r}")
    return problems


def check_voltage_window(header: Sequence[str], data: np.ndarray,
                         v_refs: Mapping[int, float],
                         window: Tuple[float, float],
                         present: Sequence[int], rtol: float) -> List[str]:
    """|V_i - v_ref_i| <= rtol v_ref_i for every present unit, at every
    sample with window[0] <= t <= window[1]."""
    problems = []
    t = data[:, 0]
    rows = (t >= window[0]) & (t <= window[1])
    if not np.any(rows):
        return [f"no samples in window {window}"]
    for dgu_id in present:
        v = data[rows, header.index(f"dgu{dgu_id}.V")]
        if not np.all(np.isfinite(v)):
            problems.append(f"unit {dgu_id} missing in window {window}")
            continue
        err = float(np.max(np.abs(v - v_refs[dgu_id])))
        if err > rtol * v_refs[dgu_id]:
            problems.append(f"unit {dgu_id} voltage off by {err:.3g} V in "
                            f"window {window}")
    return problems


def check_final_agreement(qsl: np.ndarray, rl: np.ndarray,
                          rtol: float) -> List[str]:
    """Final recorded states of the two line models agree entrywise."""
    a, b = qsl[-1, 1:], rl[-1, 1:]
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return ["QSL and RL end with different units present"]
    keep = ~np.isnan(a)
    err = np.abs(a[keep] - b[keep])
    scale = np.maximum(np.abs(a[keep]), np.abs(b[keep]))
    worst = float(np.max(err / scale))
    if worst > rtol:
        return [f"QSL and RL final states differ by {worst:.3g} relative"]
    return []


def check_exact_stretch(header: Sequence[str], data: np.ndarray,
                        scenario: Mapping, gains: Mapping[int, np.ndarray],
                        rl: bool, rows: Sequence[int]) -> List[str]:
    """Samples of the first segment (initial grid, before any event)
    against the exact solution from the t = 0 sample.

    The allowed error is what RK4 at the scenario's step makes on this
    same closed loop (measured here against the exact solution), times
    four, plus a rounding floor of 1e-10 of the state's size.  Line
    currents start at zero (the simulator's default) and are not in the
    CSV, so only unit states are compared.
    """
    dgus = {d["id"]: d for d in scenario["dgus"]}
    ids = sorted(dgus)
    a, c = closed_loop(dgus, scenario["lines"], gains, loads=True, rl=rl)
    cols = [header.index(f"dgu{i}.{name}") for i in ids
            for name in ("V", "It", "v")]
    x0 = np.zeros(a.shape[0])
    x0[:len(cols)] = data[0, cols]
    dt = scenario["dt"]
    record_dt = scenario["record_dt"]
    problems = []
    for row in rows:
        t = data[row, 0]
        steps = int(round(t / dt))
        if abs(steps * dt - t) > 1e-9 or abs(row * record_dt - t) > 1e-9:
            problems.append(f"row {row} is at t = {t!r}, off the step grid")
            continue
        exact = affine_flow(a, c, x0, t)[:len(cols)]
        rk4 = rk4_flow(a, c, x0, dt, steps)[:len(cols)]
        got = data[row, cols]
        allowed = 4.0 * np.max(np.abs(rk4 - exact)) \
            + 1e-10 * np.max(np.abs(exact))
        err = float(np.max(np.abs(got - exact)))
        if err > allowed:
            problems.append(f"t = {t:g}: off the exact solution by {err:.3g}"
                            f" (RK4 allowance {allowed:.3g})")
    return problems


# ---------------------------------------------------------------------------
# certify-mesh

def check_certificate(doc: Mapping, n: int) -> List[str]:
    """Certificate JSON of a grid of n units: Theorem 1 passes, every
    reported closed-loop eigenvalue is in the open left half-plane, the
    LaSalle kernel has dimension n + 1, and the Laplacian rows sum to 0."""
    problems = []
    if doc.get("theorem1", {}).get("verdict") != "Pass":
        problems.append(f"theorem1 verdict {doc.get('theorem1')}")
    eigs = np.asarray(doc.get("closed_loop_eigenvalues", []), dtype=float)
    if eigs.shape != (3 * n, 2):
        problems.append(f"{eigs.shape} closed-loop eigenvalues reported")
    elif not np.all(eigs[:, 0] < 0.0):
        problems.append("reported closed-loop eigenvalue with real part "
                        f"{eigs[:, 0].max():.3g}")
    if doc.get("kernel_dimension") != n + 1:
        problems.append(f"kernel dimension {doc.get('kernel_dimension')},"
                        f" expected {n + 1}")
    lap = np.asarray(doc.get("laplacian", []), dtype=float)
    if lap.shape != (n, n):
        problems.append(f"Laplacian has shape {lap.shape}")
    else:
        sums = np.abs(lap.sum(axis=1))
        if np.any(sums > 1e-12 * np.max(np.abs(lap), axis=1)):
            problems.append(f"Laplacian row sums up to {sums.max():.3g}")
    return problems


def check_hurwitz(a: np.ndarray) -> List[str]:
    eigs = np.linalg.eigvals(a)
    abscissa = float(np.max(eigs.real))
    if not abscissa < 0.0:
        return [f"closed loop has an eigenvalue with real part {abscissa:.3g}"]
    return []


def scenario_dgus(scenario: Mapping) -> Dict[int, Mapping]:
    return {int(d["id"]): d for d in scenario["dgus"]}


def bundle_gains(bundle: Mapping) -> Dict[int, np.ndarray]:
    return {int(e["dgu_id"]): np.asarray(e["K"], dtype=float)
            for e in bundle["controllers"]}


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
