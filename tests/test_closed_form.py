"""The closed-form local certificate, checked symbolically.

With unit_blocks' a_hat and b_hat and local_certificate's P, sympy shows
that q_local = F'P + PF has an identically zero first row, a rank-one
trailing block that annihilates [1, delta], and a P whose trailing
determinant has the sign of the design set's last bound; C_t enters
neither.  It also shows F's characteristic polynomial, whose
Routh-Hurwitz conditions are the design set.  The numeric half ties the
symbols to the code: unit_blocks and local_certificate are evaluated at
drawn points and compared with the lambdified expressions, and the
set's membership with the eigenvalues of F.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridforge.model import DguParams, LoadModel, unit_blocks
from gridforge.synthesis import local_certificate, local_dissipation

sp = pytest.importorskip("sympy")

R, L, C, S = sp.symbols("R_t L_t C_t sigma_bar", positive=True)
K1, K2, K3 = sp.symbols("k1 k2 k3", real=True)
A_HAT = sp.Matrix([[0, 1 / C, 0], [-1 / L, -R / L, 0], [-1, 0, 0]])
B_HAT = sp.Matrix([0, 1 / L, 0])
B, CC, D = (K1 - 1) / L, (K2 - R) / L, K3 / L
P23 = S * D / (D - B * CC)
P22 = S * CC / (D - B * CC)
P = sp.Matrix([[S * C, 0, 0], [0, P22, P23], [0, P23, B * P23]])
F = A_HAT + B_HAT * sp.Matrix([[K1, K2, K3]])
Q = F.T * P + P * F
DELTA = (R - K2) / K3
SYMBOLS = (R, L, C, S, K1, K2, K3)


def zero(expr):
    return sp.simplify(sp.together(expr)) == 0


def test_first_row_of_q_is_identically_zero():
    assert all(zero(Q[0, j]) for j in range(3))


def test_q_tail_is_rank_one_along_v():
    v = sp.Matrix([R - K2, -K3])
    expected = 2 * S / (L * K3 - (1 - K1) * (R - K2)) * v * v.T
    assert all(zero(x) for x in Q[1:, 1:] - expected)


def test_q_tail_annihilates_one_delta():
    assert all(zero(x) for x in Q[1:, 1:] * sp.Matrix([1, DELTA]))


def test_det_p_tail():
    det = P[1:, 1:].det()
    assert zero(det - S**2 * L * K3 / ((1 - K1) * (R - K2) - L * K3))


def test_c_t_enters_neither():
    assert C not in sp.simplify(Q[1:, 1:]).free_symbols
    assert C not in sp.simplify(P[1:, 1:].det()).free_symbols


def test_characteristic_polynomial():
    # Routh-Hurwitz on it: -c > 0, -b > 0, d > 0 and bc > d, the set
    s = sp.symbols("s")
    char = (s * sp.eye(3) - F).det()
    assert zero(char - (s**3 - CC * s**2 - (B / C) * s + D / C))


def draws(rng, n):
    """n units and sigma_bar values, log-uniform over wide boxes."""
    def log_uniform(lo, hi):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return (log_uniform(1e-3, 10.0), log_uniform(1e-5, 1e-1),
            log_uniform(1e-6, 1e-1), log_uniform(1.0, 1e3))


def params_of(r, l, c):
    return DguParams(r, l, c, LoadModel.constant_current(0.0), 48.0)


def inside_gains(rng, r, l):
    """One gain per unit, drawn inside the design set."""
    k1 = 1.0 - np.exp(rng.uniform(-6.0, 4.0, len(r)))
    k2 = r - np.exp(rng.uniform(-6.0, 2.0, len(r)))
    k3 = rng.uniform(0.01, 0.99, len(r)) * (k1 - 1.0) * (k2 - r) / l
    return np.stack([k1, k2, k3], axis=1)


def closed_loop(k, r, l, c):
    """a_hat + b_hat k of one unit, from unit_blocks."""
    a, b, _ = unit_blocks([params_of(r, l, c)])
    return a[0] + np.outer(b[0], k)


def test_unit_blocks_are_the_symbolic_blocks():
    blocks = sp.lambdify((R, L, C), (A_HAT, B_HAT))
    r, l, c, _ = draws(np.random.default_rng(1), 50)
    a, b, _ = unit_blocks([params_of(*x) for x in zip(r, l, c)])
    for i in range(len(r)):
        a_sym, b_sym = blocks(r[i], l[i], c[i])
        np.testing.assert_allclose(a[i], a_sym, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(b[i], np.ravel(b_sym), rtol=1e-15,
                                   atol=0.0)


def test_local_certificate_is_the_closed_form_inside_the_set():
    closed = sp.lambdify(SYMBOLS, (P, Q, DELTA))
    rng = np.random.default_rng(2)
    for r, l, c, s in zip(*draws(rng, 200)):
        k1 = 1.0 - np.exp(rng.uniform(-6.0, 4.0))
        k2 = r - np.exp(rng.uniform(-6.0, 2.0))
        k3 = rng.uniform(0.01, 0.99) * (k1 - 1.0) * (k2 - r) / l
        k = np.array([k1, k2, k3])
        params = params_of(r, l, c)
        (p,), (delta,) = local_certificate(k[None], r, l, c, s)
        p_sym, q_sym, delta_sym = closed(r, l, c, s, k1, k2, k3)
        np.testing.assert_allclose(p, p_sym, rtol=1e-12, atol=0.0)
        assert delta == pytest.approx(delta_sym, rel=1e-12)
        a, b, _ = unit_blocks([params])
        q = local_dissipation(a[0], b[0], k, p)
        scale = np.linalg.norm(q_sym)
        np.testing.assert_allclose(q, q_sym, rtol=0.0, atol=1e-9 * scale)
        assert np.all(np.linalg.eigvalsh(p) > 0.0)
        assert np.linalg.eigvalsh(q)[-1] <= 1e-8 * (1.0 + scale)


@pytest.mark.parametrize("outside, bound", [
    (lambda k1, k2, k3, r, l: (k1, r + abs(k2 - r), k3), "k2 = "),
    (lambda k1, k2, k3, r, l: (k1, k2, -k3), "k3 = .* is not positive"),
    (lambda k1, k2, k3, r, l: (k1, k2, 0.0), "k3 = 0 is not positive"),
    (lambda k1, k2, k3, r, l: (k1, k2, 1.01 * (k1 - 1.0) * (k2 - r) / l),
     r"is not below \(k1 - 1\)\(k2 - R_t\)/L_t"),
    (lambda k1, k2, k3, r, l: (2.0 - k1, k2, k3),
     r"is not below \(k1 - 1\)\(k2 - R_t\)/L_t"),
], ids=["k2", "k3-negative", "k3-zero", "k3-above", "k1"])
def test_local_certificate_refuses_outside_the_set(outside, bound):
    # the closed form there has a P_tail that is not positive definite
    # or a q_tail that is not negative semidefinite, by the identities
    rng = np.random.default_rng(3)
    for r, l, c, s in zip(*draws(rng, 50)):
        k1 = 1.0 - np.exp(rng.uniform(-6.0, 4.0))
        k2 = r - np.exp(rng.uniform(-6.0, 2.0))
        k3 = rng.uniform(0.01, 0.99) * (k1 - 1.0) * (k2 - r) / l
        k = np.array(outside(k1, k2, k3, r, l))
        with pytest.raises(ValueError, match="^gain outside the local "
                           f"design set: .*{bound}"):
            local_certificate(k[None], r, l, c, s)


def test_a_stack_is_its_units_bit_for_bit():
    # each unit's P and delta depend on its own row alone, in the same
    # operations whatever the stack's length; a LocalController takes
    # the stack of one, with its scalar constants
    rng = np.random.default_rng(4)
    r, l, c, _ = draws(rng, 500)
    k = inside_gains(rng, r, l)
    p, delta = local_certificate(k, r, l, c, 37.0)
    assert p.shape == (500, 3, 3) and delta.shape == (500,)
    for i in range(len(k)):
        for units in ((r[i], l[i], c[i]), (r[i:i + 1], l[i:i + 1],
                                             c[i:i + 1])):
            (p_i,), (delta_i,) = local_certificate(k[i:i + 1], *units, 37.0)
            assert p_i.tobytes() == p[i].tobytes()
            assert delta_i.tobytes() == delta[i].tobytes()


def test_a_stack_names_its_first_unit_outside_the_set():
    rng = np.random.default_rng(5)
    r, l, c, _ = draws(rng, 50)
    k = inside_gains(rng, r, l)
    k[[7, 30], 1] = r[[7, 30]] + 1.0
    with pytest.raises(ValueError, match=r"^DGU 108: gain outside the local "
                       r"design set: k2 = \S+ is not below R_t = "):
        local_certificate(k, r, l, c, 10.0, range(101, 151))
    with pytest.raises(ValueError, match="^gain outside the local design "
                       "set: k2 = "):
        local_certificate(k, r, l, c, 10.0)


# Routh-Hurwitz, numerically: draws around the set, kept off its
# boundary.  k1 - 1 = -s1 10^u1, k2 - R_t = -s2 R_t 10^u2 and k3 = s3 t
# (k1 - 1)(k2 - R_t)/L_t with t = 10^(+-u3), u3 >= 0.01, so the last
# bound is missed or met by at least 2.3%; and the spectral abscissa of
# the unit is at least 1e-10 |F| away from zero.
sign = st.sampled_from([1.0, -1.0])


@given(r=st.floats(-3.0, 1.0), l=st.floats(-4.0, -1.0),
       c=st.floats(-6.0, -1.0), u1=st.floats(-2.0, 2.0),
       u2=st.floats(-2.0, 2.0), u3=st.floats(0.01, 2.0),
       signs=st.tuples(sign, sign, sign, sign))
@settings(max_examples=300, deadline=None)
def test_accepted_exactly_when_the_unit_is_hurwitz(r, l, c, u1, u2, u3,
                                                   signs):
    r, l, c = 10.0**r, 10.0**l, 10.0**c
    s1, s2, s3, s4 = signs
    k1 = 1.0 - s1 * 10.0**u1
    k2 = r - s2 * r * 10.0**u2
    k = np.array([k1, k2, s3 * 10.0**(s4 * u3) * (k1 - 1.0) * (k2 - r) / l])
    f = closed_loop(k, r, l, c)
    abscissa = np.max(np.linalg.eigvals(f).real)
    assume(abs(abscissa) >= 1e-10 * np.linalg.norm(f))
    try:
        local_certificate(k[None], r, l, c, 10.0)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == (abscissa < 0.0)


@given(r=st.floats(-3.0, 1.0), l=st.floats(-4.0, -1.0),
       c=st.floats(-6.0, -1.0), wn=st.floats(0.0, 4.0),
       zeta=st.floats(0.05, 0.95), pole=st.floats(0.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_placed_poles_give_a_gain_in_the_set(r, l, c, wn, zeta, pole):
    # (s^2 + 2 zeta wn s + wn^2)(s + pole) = s^3 + a2 s^2 + a1 s + a0 is
    # s^3 - c s^2 - (b/C_t) s + d/C_t at k2 = R_t - a2 L_t,
    # k1 = 1 - a1 C_t L_t and k3 = a0 C_t L_t.  zeta <= 0.95 keeps the
    # three poles apart, so each is computed to within 1e-9 |F|
    r, l, c, wn, pole = 10.0**r, 10.0**l, 10.0**c, 10.0**wn, 10.0**pole
    a2 = 2.0 * zeta * wn + pole
    a1 = wn**2 + 2.0 * zeta * wn * pole
    a0 = wn**2 * pole
    k = np.array([1.0 - a1 * c * l, r - a2 * l, a0 * c * l])
    local_certificate(k[None], r, l, c, 10.0)
    f = closed_loop(k, r, l, c)
    eigs = np.linalg.eigvals(f)
    damped = wn * np.sqrt(1.0 - zeta**2)
    for target in (-zeta * wn + 1j * damped, -zeta * wn - 1j * damped,
                   -pole):
        assert np.min(np.abs(eigs - target)) <= 1e-9 * np.linalg.norm(f)


@given(r=st.floats(-3.0, 1.0), l=st.floats(-4.0, -1.0),
       c=st.floats(-6.0, -1.0), u1=st.floats(-2.0, 2.0),
       u2=st.floats(-2.0, 2.0), t=st.floats(0.01, 0.99))
@settings(max_examples=300, deadline=None)
def test_lasalle_invariance_holds_on_the_set(r, l, c, u1, u2, t):
    # 1 + delta b = 1 + (R_t - k2)(k1 - 1)/(k3 L_t) = (d - bc)/d, and the
    # set's last bound, k3 = t (k1 - 1)(k2 - R_t)/L_t with t < 1, makes
    # d - bc = (t - 1) bc negative while d > 0; equal up to the rounding
    # of the terms summed, 1 + |delta b|
    r, l, c = 10.0**r, 10.0**l, 10.0**c
    k1, k2 = 1.0 - 10.0**u1, r - r * 10.0**u2
    k = np.array([k1, k2, t * (k1 - 1.0) * (k2 - r) / l])
    _, (delta,) = local_certificate(k[None], r, l, c, 10.0)
    b, cc, d = (k1 - 1.0) / l, (k2 - r) / l, k[2] / l
    invariance = 1.0 + delta * b
    rounding = 1e-12 * (1.0 + abs(delta * b))
    assert abs(invariance - (d - b * cc) / d) <= rounding
    assert invariance < 0.0
