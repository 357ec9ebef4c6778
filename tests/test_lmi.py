import numpy as np
import pytest

from gridforge import lmi
from gridforge.lmi import (
    NSD,
    PSD,
    LmiBlock,
    LmiProgram,
    _Barrier,
    _Run,
    _cone,
    _split,
    general_eig,
    solve,
    solve_batch,
    sym_eig,
)
from gridforge.model import DguParams, LoadModel, augmented_dgu
from gridforge.synthesis import SynthesisConfig, assemble_problem


def scalar_block(constant, coeff, **kw):
    return LmiBlock(np.array([[float(constant)]]), (np.array([[float(coeff)]]),), **kw)


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)

    def test_swap_matrix(self):
        w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-3, 4)
            a = a + a.T
            w, v = sym_eig(a)
            err = np.linalg.norm(a - v @ np.diag(w) @ v.T)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(a))
            assert np.all(np.diff(w) >= 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestGeneralEig:
    def test_companion_spectrum(self):
        # characteristic polynomial (s+1)(s+2)(s+3)
        c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
        w = np.sort_complex(general_eig(c))
        np.testing.assert_allclose(w, [-3.0, -2.0, -1.0], atol=1e-12)

    def test_rotation(self):
        w = general_eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(w.imag), [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(w.real, 0.0, atol=1e-15)

    def test_char_poly_residual(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        for lam in general_eig(a):
            res = abs(np.linalg.det(a - lam * np.eye(6)))
            assert res <= 1e-6 * (1.0 + np.linalg.norm(a)) ** 6


class TestProgramValidation:
    def test_objective_length(self):
        with pytest.raises(ValueError, match="objective length"):
            LmiProgram(2, [1.0], (scalar_block(0.0, 1.0),))

    def test_coeff_count(self):
        with pytest.raises(ValueError, match="expected 2"):
            LmiProgram(2, [1.0, 0.0], (scalar_block(0.0, 1.0),))

    def test_asymmetric_matrix(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            LmiBlock(bad, (np.eye(2),))

    def test_bad_sense(self):
        with pytest.raises(ValueError, match="sense"):
            scalar_block(0.0, 1.0, sense="psd")

    def test_asymmetric_coeff_named_by_index(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^coeffs\[2\] is not symmetric"):
            LmiBlock(np.eye(2), (np.eye(2), np.zeros((2, 2)), bad))

    def test_nonfinite_coeff(self):
        for value in (np.nan, np.inf):
            f = np.eye(2)
            f[1, 1] = value
            with pytest.raises(ValueError,
                               match=r"^coeffs\[1\] has non-finite entries"):
                LmiBlock(np.eye(2), (np.eye(2), f))
        with pytest.raises(ValueError, match="^constant has non-finite"):
            LmiBlock(np.diag([1.0, np.inf]), (np.eye(2),))

    @pytest.mark.parametrize("coeffs, where", [
        ((np.eye(2), np.eye(3)), r"coeffs\[1\] shape \(3, 3\) != \(2, 2\)"),
        ((np.eye(2), np.ones(2)), r"coeffs\[1\] shape \(2,\) != \(2, 2\)"),
        ((np.eye(3), np.eye(3)), r"coeffs\[0\] shape \(3, 3\) != \(2, 2\)"),
        (np.ones((2, 3, 3)), r"coeffs\[0\] shape \(3, 3\) != \(2, 2\)"),
    ], ids=["mixed", "vector", "unlike-constant", "stacked"])
    def test_coeff_shapes(self, coeffs, where):
        with pytest.raises(ValueError, match=f"^{where}$"):
            LmiBlock(np.eye(2), coeffs)

    def test_coeffs_become_one_read_only_stack(self):
        f = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        block = LmiBlock(np.eye(2), (f, np.zeros((2, 2)), np.eye(2)))
        assert isinstance(block.coeffs, np.ndarray)
        assert block.coeffs.shape == (3, 2, 2)
        assert not block.coeffs.flags.writeable
        assert not block.constant.flags.writeable
        np.testing.assert_array_equal(block.coeffs[0], block.coeffs[0].T)
        assert block.coeffs[0, 0, 1] == 0.5 * (2.0 + (2.0 + 1e-14))
        with pytest.raises(ValueError):
            block.coeffs[2, 0, 0] = 5.0
        # a stack in, a checked copy out: the caller's array stays writable
        stack = np.zeros((3, 2, 2))
        assert LmiBlock(np.eye(2), stack).coeffs is not stack
        assert stack.flags.writeable


class TestSolveAnalytic:
    def test_scalar_boundary(self):
        sol = solve(LmiProgram(1, [1.0], (scalar_block(0.0, 1.0),)))
        assert sol.status == "Optimal"
        assert abs(sol.x[0]) < 1e-7

    def test_interval_feasibility(self):
        block = LmiBlock(np.diag([0.0, 1.0]), (np.diag([1.0, -1.0]),))
        sol = solve(LmiProgram(1, [0.0], (block,)))
        assert sol.status == "Optimal"
        assert -1e-8 <= sol.x[0] <= 1.0 + 1e-8
        assert np.all(sol.margins >= 0.0)

    def test_absolute_value(self):
        a = -2.31
        block = LmiBlock(np.array([[0.0, a], [a, 0.0]]), (np.eye(2),))
        sol = solve(LmiProgram(1, [1.0], (block,)))
        assert sol.status == "Optimal"
        assert abs(sol.x[0] - abs(a)) < 1e-6

    def test_largest_eigenvalue(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        sol = solve(LmiProgram(1, [1.0], (LmiBlock(-a, (np.eye(4),)),)))
        assert sol.status == "Optimal"
        assert abs(sol.x[0] - np.linalg.eigvalsh(a)[-1]) < 1e-6

    def test_euclidean_norm(self):
        v = np.array([0.3, -1.2, 2.0])
        c = np.zeros((4, 4))
        c[0, 1:] = v
        c[1:, 0] = v
        sol = solve(LmiProgram(1, [1.0], (LmiBlock(c, (np.eye(4),)),)))
        assert sol.status == "Optimal"
        assert abs(sol.x[0] - np.linalg.norm(v)) < 1e-6

    def test_hyperbola_corner(self):
        # min x+y s.t. [[x,1],[1,y]] psd: xy >= 1, optimum at x=y=1
        coeff_x = np.array([[1.0, 0.0], [0.0, 0.0]])
        coeff_y = np.array([[0.0, 0.0], [0.0, 1.0]])
        block = LmiBlock(np.array([[0.0, 1.0], [1.0, 0.0]]), (coeff_x, coeff_y))
        sol = solve(LmiProgram(2, [1.0, 1.0], (block,)))
        assert sol.status == "Optimal"
        assert abs(sol.objective_value - 2.0) < 1e-6

    def test_nsd_sense(self):
        sol = solve(LmiProgram(1, [-1.0], (scalar_block(0.0, 1.0, sense=NSD),)))
        assert sol.status == "Optimal"
        assert abs(sol.x[0]) < 1e-7


class TestStatuses:
    def test_contradictory_pair_is_infeasible(self):
        prog = LmiProgram(
            1, [0.0], (scalar_block(0.0, 1.0), scalar_block(-1.0, -1.0))
        )
        assert solve(prog).status == "Infeasible"

    def test_fixed_negative_diagonal_is_infeasible(self):
        # the variable only touches the second diagonal entry
        block = LmiBlock(
            np.diag([-1e-3, 0.0]), (np.diag([0.0, 1.0]),)
        )
        assert solve(LmiProgram(1, [0.0], (block,))).status == "Infeasible"

    def test_budget_exhaustion_is_not_infeasible(self, monkeypatch):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        prog = LmiProgram(1, [1.0], (LmiBlock(-a, (np.eye(4),)),))
        # a green-box program and a refusal of the 27-point box: phase I
        # needs about 100 steps on both, so these budgets end in phase I
        phase1 = [synthesis_program(0.05, 1e-3, 1e-3),
                  synthesis_program(0.05, 1e-3, 1e-6)]
        for budget in (1, 2, 5, 20):
            monkeypatch.setattr(lmi, "MAX_ITER", budget)
            sol = solve(prog)
            assert sol.status in ("NumericalFailure", "Feasible", "Optimal")
            if sol.status != "NumericalFailure":
                # an early stop may skip optimality but never feasibility
                assert sol.margins[0] >= -2e-9
            for got in solve_batch(phase1):
                assert got.status == "NumericalFailure"
                assert got.x is None and len(got.iterations) == budget

    def test_strict_margin(self):
        sol = solve(LmiProgram(1, [1.0], (scalar_block(0.0, 1.0, strict=True),)))
        assert sol.status == "Optimal"
        assert sol.margins[0] >= 1e-6
        assert sol.x[0] >= 1e-6


class TestSolverInvariants:
    def prog(self):
        v = np.array([0.3, -1.2, 2.0])
        c = np.zeros((4, 4))
        c[0, 1:] = v
        c[1:, 0] = v
        return LmiProgram(
            1, [1.0], (LmiBlock(c, (np.eye(4),)), scalar_block(0.0, 1.0))
        )

    def test_deterministic(self):
        a = solve(self.prog())
        b = solve(self.prog())
        assert a.status == b.status
        np.testing.assert_array_equal(a.x, b.x)
        assert a.objective_value == b.objective_value
        np.testing.assert_array_equal(a.margins, b.margins)

    def test_margins_reverify_via_sym_eig(self):
        prog = self.prog()
        sol = solve(prog)
        for block, margin in zip(prog.blocks, sol.margins):
            sign = 1.0 if block.sense == PSD else -1.0
            scale = 1.0 / (1.0 + np.linalg.norm(block.constant))
            slack = block.constant.copy()
            for xi, f in zip(sol.x, block.coeffs):
                slack = slack + xi * f
            w, _ = sym_eig(sign * scale * slack)
            assert abs(w[0] - margin) <= 1e-9

    def test_merit_decreases_within_each_centering(self):
        sol = solve(self.prog())
        assert sol.iterations
        last = {}
        for it in sol.iterations:
            key = (it.phase, it.t)
            if key in last:
                assert it.merit <= last[key] + 1e-9 * (1.0 + abs(last[key]))
            last[key] = it.merit

    def test_solution_is_immutable_enough(self):
        prog = self.prog()
        sol = solve(prog)
        assert sol.objective_value == pytest.approx(sol.x[0] * 1.0)


def synthesis_program(r_t, l_t, c_t):
    params = DguParams(r_t, l_t, c_t, LoadModel.constant_current(0.0), 48.0)
    return assemble_problem(augmented_dgu(params), params,
                            SynthesisConfig(10.0))


def phase1_reference(program):
    """Phase I's barrier data built from its own cones: phase II's cones
    widened by an identity coefficient for s, then a guard on s and one
    2x2 box per variable, written as LmiBlocks and folded by `_split`."""
    run = _Run(program)
    n = run.n

    def cone(block, s_coeff):
        c, f, shift = _cone(block.constant, block.coeffs, block.sense,
                            block.strict)
        return c, np.concatenate([f, s_coeff[None]]), shift

    cones = [(c, np.concatenate([f, np.eye(len(c))[None]]), shift)
             for c, f, shift in run.cones]
    cones.append(cone(LmiBlock(np.array([[2.0 * run.start[-1]]]),
                               [np.zeros((1, 1))] * n), np.eye(1)))
    for i in range(n):
        coeffs = [np.zeros((2, 2))] * n
        coeffs[i] = np.diag([-1.0, 1.0])
        cones.append(cone(LmiBlock(np.diag([1e10, 1e10]), coeffs),
                          np.zeros((2, 2))))
    return _split(cones, n + 1), np.eye(n + 1)[n]


class TestSolveBatch:
    # (r_t, l_t, c_t) -> status: four green-box points, a refusal of the
    # 27-point box and two of its points whose phase II ends in a line
    # search failure, at sigma_bar = 10
    POINTS = {
        (0.05, 1e-3, 1e-3): "Feasible",
        (1.0, 1e-2, 5e-3): "Feasible",
        (0.525, 5.5e-3, 3e-3): "Feasible",
        (0.2875, 3.25e-3, 4e-3): "Feasible",
        (0.05, 1e-3, 1e-6): "Infeasible",
        (0.05, 1e-3, 5.5e-6): "Feasible",
        (0.05, 1e-3, 1e-5): "Feasible",
    }

    @pytest.fixture(scope="class")
    def programs(self):
        # two programs of other barrier shapes, between the synthesis ones,
        # so the batch splits into three groups
        progs = [synthesis_program(*p) for p in self.POINTS]
        progs.insert(2, TestSolverInvariants().prog())
        coeff_x = np.array([[1.0, 0.0], [0.0, 0.0]])
        coeff_y = np.array([[0.0, 0.0], [0.0, 1.0]])
        progs.insert(5, LmiProgram(2, [1.0, 1.0], (LmiBlock(
            np.array([[0.0, 1.0], [1.0, 0.0]]), (coeff_x, coeff_y)),)))
        return progs

    def test_mixed_batch_equals_single_solves(self, programs):
        batch = solve_batch(programs)
        assert len(batch) == len(programs)
        for prog, got in zip(programs, batch):
            want = solve(prog)
            assert got.status == want.status
            assert got.objective_value == want.objective_value
            assert got.iterations == want.iterations
            for name in ("x", "margins"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes()
        statuses = [sol.status for sol in batch]
        del statuses[5], statuses[2]
        assert statuses == list(self.POINTS.values())
        assert batch[2].status == batch[5].status == "Optimal"

    def test_breakdowns_end_only_their_own_program(self, programs):
        # without the breakdown points the other results are unchanged
        kept = [p for i, p in enumerate(programs) if i not in (7, 8)]
        whole = solve_batch(programs)
        part = solve_batch(kept)
        assert [whole[i].iterations for i in range(len(programs))
                if i not in (7, 8)] == [s.iterations for s in part]
        # a line search failure after phase-II progress keeps its interior
        # point, short of the budget
        assert whole[7].status == whole[8].status == "Feasible"
        assert [len(whole[i].iterations) for i in (7, 8)] == [207, 261]
        assert all(2 in {it.phase for it in whole[i].iterations}
                   for i in (7, 8))

    def test_empty_batch(self):
        assert solve_batch([]) == []

    @pytest.mark.parametrize("program", [
        synthesis_program(0.05, 1e-3, 1e-3),
        # one diagonal 2x2 cone: two rows of phase II before the guard row
        LmiProgram(1, [0.0], (LmiBlock(np.diag([0.0, 1.0]),
                                       (np.diag([1.0, -1.0]),)),)),
    ], ids=["green-box", "interval"])
    def test_phase1_is_derived_from_phase2(self, program):
        (lp_c, lp_f, matrix), objective = _Run(program).barrier_data(1)
        (ref_c, ref_f, ref_matrix), ref_objective = phase1_reference(program)
        for got, want in [(lp_c, ref_c), (lp_f, ref_f),
                          (objective, ref_objective)]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert len(matrix) == len(ref_matrix)
        for got, want in zip(matrix, ref_matrix):
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_non_pd_member_rejects_only_its_candidate(self):
        # [[a, x], [x, b]] > 0 holds for x = 0.5 in every member, and
        # fails for x = 2 in the middle one
        progs = [LmiProgram(1, [1.0], (LmiBlock(
            np.diag(d), (np.array([[0.0, 1.0], [1.0, 0.0]]),)),))
            for d in ([1.0, 1.0], [2.0, 1.0], [1.0, 3.0])]
        runs = [_Run(p) for p in progs]
        barrier = _Barrier(3, (run.barrier_data(2) for run in runs))
        rows = np.arange(3)
        x = np.array([[0.5], [2.0], [0.5]])
        ok, (ls, s) = barrier.factor(rows, x)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            one_ok, (one_ls, _) = barrier.factor(rows[i:i + 1], x[i:i + 1])
            assert one_ok.tolist() == [True]
            assert ls[0][i].tobytes() == one_ls[0][0].tobytes()
            c, f, shift = runs[i].cones[0]
            np.testing.assert_allclose(ls[0][i] @ ls[0][i].T,
                                       c + shift * np.eye(2) + 0.5 * f[0],
                                       rtol=1e-12)
