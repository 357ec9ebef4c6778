import numpy as np
import pytest
from scipy.linalg import solve_continuous_are
from scipy.signal import place_poles as scipy_place

from gridforge.baselines import (DEMO_TOPOLOGY, LQR, LQR_WEIGHTS,
                                 PLACEMENT_TARGETS, POLE_PLACEMENT,
                                 REFERENCE_COUPLED, REFERENCE_DECOUPLED,
                                 LqrSpec, compare_spectrum,
                                 destabilization_demo, place_poles,
                                 pnp_contrast, solve_care, spectrum_matches)
from gridforge.model import assemble_global, closed_loop_blocks


def benchmark_pairs():
    """Each unit's open-loop diagonal block, its QSL self term folded in,
    and its input column."""
    system = assemble_global(DEMO_TOPOLOGY)
    blocks = closed_loop_blocks(system, {i: np.zeros(3) for i in system.ids})
    return list(zip(blocks, system.unit_b[:, :, None]))


class TestLqrSpec:
    def test_rejects_off_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            LqrSpec(np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="diagonal"):
            LqrSpec(np.diag([1.0, -1.0]), 1.0)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError, match="r must be positive"):
            LqrSpec(np.diag([1.0, 1.0]), 0.0)


class TestCare:
    def test_scalar_by_hand(self):
        # a=0, b=1, q=1, r=1: X solves -X^2 + 1 = 0, so X = 1 and K = -1
        k = solve_care(np.zeros((1, 1)), np.ones((1, 1)),
                       LqrSpec(np.eye(1), 1.0))
        assert k[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("idx", [0, 1])
    def test_benchmark_matches_reference_solver(self, idx):
        a, b = list(benchmark_pairs())[idx]
        spec = LQR_WEIGHTS[idx]
        k = solve_care(a, b, spec)
        x = solve_continuous_are(a, b, spec.q, np.array([[spec.r]]))
        k_ref = -(b.T @ x / spec.r)[0]
        np.testing.assert_allclose(k, k_ref, rtol=1e-7)

    def test_seeded_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, 1))
            q = np.diag(rng.uniform(0.1, 10.0, size=n))
            r = float(rng.uniform(0.1, 10.0))
            k = solve_care(a, b, LqrSpec(q, r))
            x = solve_continuous_are(a, b, q, np.array([[r]]))
            np.testing.assert_allclose(k, -(b.T @ x / r)[0],
                                       rtol=1e-6, atol=1e-9)
            cl = a + b @ k[None, :]
            assert np.max(np.linalg.eigvals(cl).real) < 0.0

    def test_unstabilizable_pair_fails(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0], [0.0]])  # unstable mode 2 is unreachable
        with pytest.raises(ValueError, match="no stabilizing solution"):
            solve_care(a, b, LqrSpec(np.eye(2), 1.0))


class TestPlacePoles:
    def companion(self):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        b = np.array([[0.0], [0.0], [1.0]])
        return a, b

    def test_companion_form(self):
        a, b = self.companion()
        k = place_poles(a, b, [-1.0, -2.0, -3.0])
        got = np.sort(np.linalg.eigvals(a + b @ k[None, :]).real)
        np.testing.assert_allclose(got, [-3.0, -2.0, -1.0], rtol=1e-9)

    def test_complex_targets(self):
        a, b = self.companion()
        targets = [-5.0, -1.0 + 2.0j, -1.0 - 2.0j]
        k = place_poles(a, b, targets)
        got = np.sort_complex(np.linalg.eigvals(a + b @ k[None, :]))
        np.testing.assert_allclose(got, np.sort_complex(targets), atol=1e-9)

    @pytest.mark.parametrize("idx", [0, 1])
    def test_benchmark_targets(self, idx):
        a, b = list(benchmark_pairs())[idx]
        targets = np.array(PLACEMENT_TARGETS[idx])
        k = place_poles(a, b, targets)
        got = np.sort(np.linalg.eigvals(a + b @ k[None, :]).real)
        np.testing.assert_allclose(got, np.sort(targets), rtol=1e-6)
        ref = scipy_place(a, b, targets)
        np.testing.assert_allclose(k, -ref.gain_matrix[0], rtol=1e-6)

    def test_non_conjugate_targets(self):
        a, b = self.companion()
        with pytest.raises(ValueError, match="conjugation"):
            place_poles(a, b, [-1.0, -2.0 + 1.0j, -3.0])

    def test_duplicate_targets(self):
        a, b = self.companion()
        with pytest.raises(ValueError, match="distinct"):
            place_poles(a, b, [-1.0, -1.0, -2.0])

    def test_uncontrollable_pair(self):
        a = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="uncontrollable"):
            place_poles(a, b, [-3.0, -4.0])


@pytest.fixture(scope="module", params=[LQR, POLE_PLACEMENT])
def report(request):
    return request.param, destabilization_demo(request.param)


class TestDestabilizationDemo:
    def test_decoupled_spectra_match_reference(self, report):
        method, rep = report
        for i in range(2):
            assert spectrum_matches(rep.decoupled[i],
                                    REFERENCE_DECOUPLED[method][i])

    def test_coupled_spectrum_matches_reference(self, report):
        method, rep = report
        checks = compare_spectrum(rep.coupled, REFERENCE_COUPLED[method])
        assert all(c.ok for c in checks)

    def test_sign_flip(self, report):
        _, rep = report
        for spectrum in rep.decoupled:
            assert np.max(spectrum.real) < 0.0
        assert np.max(rep.coupled.real) > 0.0
        a, b = rep.unstable_pair
        assert a.real > 0.0 and b.real > 0.0
        assert a == b.conjugate()

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            destabilization_demo("droop")


class TestSpectrumComparison:
    def test_rounding_slack_accepts_near_miss(self):
        # 1% of 11 is 0.11; the half-quantum term covers the remaining gap
        checks = compare_spectrum([-11.14], [(-11.0, 1.0)])
        assert checks[0].ok

    def test_decade_error_rejected(self):
        checks = compare_spectrum([-1.6], [(-0.16, 0.01)])
        assert not checks[0].ok

    def test_sign_error_rejected(self):
        checks = compare_spectrum([11.0], [(-11.0, 1.0)])
        assert not checks[0].ok

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes"):
            compare_spectrum([1.0, 2.0], [(1.0, 0.1)])


def test_pnp_contrast_is_stable():
    spectrum = pnp_contrast()
    assert spectrum.shape == (6,)
    assert np.max(spectrum.real) < 0.0
