import itertools
import math
import random
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdq.errors import DomainError, ModeError
from tdq.scalar import Mode, QWeight, Ratios, Scalar, tau_float, tau_scaled
from tdq.takagi import (
    DEFAULT_SERIES_TOL,
    DeRhamSystem,
    F_q,
    F_q_grid,
    G_tilde_gamma,
    derham_eval,
    fq_system,
    hat_F_q,
    series_truncation_length,
    takagi_at,
    takagi_dyadic_exact,
    takagi_grid,
    takagi_series,
    takagi_system,
    tilde_F_q,
    tilde_F_q_grid,
    tilde_F_q_log2,
    tilde_F_q_log2_range,
)

dyadics = st.integers(0, 1 << 12).map(lambda n: Fraction(n, 1 << 12))


def closed_forms(a):
    """T_a at the thirds and sevenths: their doubling orbits are cycles of
    lengths 2 and 3, so T_a(x) = (sum of a^j tau over one cycle) / (1 - a^L)."""
    third = Fraction(1, 3) / (1 - a)
    c7 = 1 - a**3
    s1, s2, s4 = (1 + 2 * a + 3 * a**2) / 7 / c7, (2 + 3 * a + a**2) / 7 / c7, (3 + a + 2 * a**2) / 7 / c7
    return {
        Fraction(1, 3): third, Fraction(2, 3): third,
        Fraction(1, 7): s1, Fraction(2, 7): s2, Fraction(3, 7): s4,
        Fraction(4, 7): s4, Fraction(5, 7): s2, Fraction(6, 7): s1,
    }


def test_classic_pinned_values():
    # T_{1/2}(1/2) = 1/2, T_{1/2}(1/4) = 1/2, T_{1/2}(1/3) = 2/3
    a = Fraction(1, 2)
    assert takagi_dyadic_exact(Fraction(1, 2), a).value == Fraction(1, 2)
    assert takagi_dyadic_exact(Fraction(1, 4), a).value == Fraction(1, 2)
    assert abs(takagi_series(1 / 3, 0.5).value - 2 / 3) < 1e-13
    # thirds and sevenths, given as rationals and shifted by an integer; the
    # series sums them as given, through one cycle and its closed tail
    for a in (Fraction(1, 2), Fraction(3, 4), Fraction(-2, 3), Fraction(1, 16), Fraction(-15, 16)):
        for x, want in closed_forms(a).items():
            for shift in (0, 2, -1):
                got = takagi_series(x + shift, float(a)).value
                assert math.isclose(got, want, rel_tol=1e-14), (x, a)
                assert takagi_at(x + shift, a).value == got


@given(dyadics)
def test_parabola_identity(x):
    # a = 1/4 collapses the curve to the parabola 2x(1-x)
    assert takagi_dyadic_exact(x, Fraction(1, 4)).value == 2 * x * (1 - x)


@given(dyadics)
def test_symmetry_and_endpoints(x):
    a = Fraction(2, 5)
    t = takagi_dyadic_exact(x, a).value
    assert takagi_dyadic_exact(1 - x, a).value == t
    assert takagi_dyadic_exact(x + 1, a).value == t  # 1-periodic
    assert takagi_dyadic_exact(Fraction(0), a).value == 0
    assert takagi_dyadic_exact(Fraction(1), a).value == 0


@pytest.mark.parametrize("a", [-0.5, -1.0, -0.25 + 0.0j, complex(-0.5, -0.0), 0.5])
def test_dyadic_zero_is_positive_zero(a):
    # the float and complex sums start at +0: 0 * a would be -0.0 at a negative a
    for x in (0, 1, Fraction(3)):
        t = complex(takagi_dyadic_exact(x, a).value)
        assert math.copysign(1.0, t.real) == math.copysign(1.0, t.imag) == 1.0


def test_F_q_at_zero_is_positive_zero():
    # q x = -0.0 at x = 0 for a negative q
    for x in (0, 0.0):
        for q in (-0.6, complex(-0.6, 0.1)):
            f = complex(F_q(x, q).value)
            assert math.copysign(1.0, f.real) == math.copysign(1.0, f.imag) == 1.0


@given(dyadics)
def test_functional_equations(x):
    # T(x/2) = a T(x) + x/2 and T((x+1)/2) = a T(x) + (1-x)/2
    a = Fraction(-3, 7)
    t = takagi_dyadic_exact(x, a).value
    assert takagi_dyadic_exact(x / 2, a).value == a * t + x / 2
    assert takagi_dyadic_exact((x + 1) / 2, a).value == a * t + (1 - x) / 2


def test_series_truncation_length_certifies_tail():
    for abs_a, tol in [(0.5, 1e-14), (0.9, 1e-10), (0.75, 1e-6), (0.01, 1e-14)]:
        n = series_truncation_length(abs_a, tol)
        tail = abs_a ** (n + 1) / (2 * (1 - abs_a))
        assert tail <= tol / 2
        if n > 0:
            assert abs_a**n / (2 * (1 - abs_a)) > tol / 2  # minimal N
    with pytest.raises(DomainError):
        series_truncation_length(0.5, 0.0)


@given(dyadics, st.fractions(min_value=Fraction(-7, 8), max_value=Fraction(7, 8), max_denominator=64))
def test_series_agrees_with_exact_on_dyadics(x, a):
    exact = float(takagi_dyadic_exact(x, a).value)
    approx = takagi_series(x, float(a)).value
    assert abs(approx - exact) <= DEFAULT_SERIES_TOL


def test_series_at_a_float_ends_with_its_binary_digits():
    # |a| = 1 - 2^-30 asks for ~2^35 terms, but 2^n x mod 1 is 0 once n passes
    # the last binary digit of the float x, and so is every later term
    a = 1 - Fraction(1, 1 << 30)
    for x in (1e-9, 0.3, 1 / 7):
        exact = float(takagi_dyadic_exact(Fraction(x), a).value)
        assert math.isclose(takagi_series(x, float(a)).value, exact, rel_tol=1e-12)
    for x in (0.0, -0.0, 2.0):
        assert takagi_series(x, float(a)).value.hex() == "0x0.0p+0"


def test_series_at_a_rational_closes_its_cycle():
    # |a| = 1 - 1e-8 asks for ~5e9 terms; the doubling orbit of 1/7 is a
    # 3-cycle, so T_a(1/7) = (1/7 + 2a/7 + 3a^2/7) / (1 - a^3)
    a = 1 - 1e-8
    want = (Fraction(1, 7) + 2 * Fraction(a) / 7 + 3 * Fraction(a) ** 2 / 7) / (1 - Fraction(a) ** 3)
    start = time.perf_counter()
    got = takagi_series(Fraction(1, 7), a).value
    assert time.perf_counter() - start < 1.0
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want
    # the same a as a complex number, whose 1 - a^3 is (1 - a)(1 + a + a^2)
    got = takagi_series(Fraction(1, 7), complex(a, 0.0)).value
    assert abs(Fraction(got.real) - want) <= Fraction(1, 10**12) * want and got.imag == 0
    # 1/3 and 2/3 are mirror images, both with tau = 1/3, so the terms repeat
    # with period 1: T_a(1/3) = (1/3) / (1 - a), also at a near -1, where the
    # period-2 sum (1/3)(1 + a) / (1 - a^2) would cancel
    a = -(1 - 1e-8)
    want = Fraction(1, 3) / (1 - Fraction(a))
    assert abs(Fraction(takagi_series(Fraction(1, 3), a).value) - want) <= Fraction(1, 10**12) * want
    # a pre-period s = v2(d) before the cycle: 5/12 = 5/(2^2 3) goes 5/12, 5/6, 2/3, 1/3, 2/3
    for a in (Fraction(1, 2), Fraction(-3, 4), Fraction(99, 100)):
        head = Fraction(5, 12) + a * Fraction(1, 6)
        want = head + a**2 * Fraction(1, 3) / (1 - a)
        assert math.isclose(takagi_series(Fraction(5, 12), float(a)).value, want, rel_tol=1e-13)


def gaussian_cycle_sum(x, a):
    """T_a(x) at a rational x for the float or complex a taken exactly, as a
    pair of Fractions: the head before the doubling orbit of x mod 1 turns
    periodic, plus the sum over one full cycle of the orbit over 1 - a^L."""
    A = (Fraction(a.real), Fraction(a.imag))

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    d = x.denominator
    m, seen, taus = x.numerator % d, {}, []
    while m not in seen:
        seen[m] = len(taus)
        taus.append(Fraction(min(m, d - m), d))
        m = 2 * m % d
    s = seen[m]
    head, cycle, w = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for n, t in enumerate(taus):
        if n == s:
            w_s = w
        part = (w[0] * t, w[1] * t)
        if n < s:
            head = (head[0] + part[0], head[1] + part[1])
        else:
            cycle = (cycle[0] + part[0], cycle[1] + part[1])
        w = mul(w, A)
    # w = a^{s + L} and w_s = a^s, so a^L = w / w_s
    n2 = w_s[0] ** 2 + w_s[1] ** 2
    a_L = ((w[0] * w_s[0] + w[1] * w_s[1]) / n2, (w[1] * w_s[0] - w[0] * w_s[1]) / n2)
    den = (1 - a_L[0], -a_L[1])
    n2 = den[0] ** 2 + den[1] ** 2
    return (head[0] + (cycle[0] * den[0] + cycle[1] * den[1]) / n2,
            head[1] + (cycle[1] * den[0] - cycle[0] * den[1]) / n2)


@pytest.mark.parametrize("x, a", [
    (Fraction(2, 21), complex(-(1 - 1e-8), 0)),  # p = 6: a^6 near 1 from a near -1
    (Fraction(1, 17), complex(0, 1 - 1e-8)),  # p = 4: a^4 near 1 from a near i
    (Fraction(1, 17), complex(0, -(1 - 1e-8))),  # ... and from a near -i
    (Fraction(5, 12), complex(-(1 - 1e-5), 1e-3)),  # pre-period 2, then p = 1
    (Fraction(1, 7), complex(1 - 1e-8, 0)),  # a near 1 itself
], ids=str)
def test_series_closure_near_a_root_of_unity(x, a):
    # 1 - a^p is (1 - a)(1 + a + ... + a^{p-1}) after a turn of a by -1 or +-i,
    # without which it cancelled near the other p-th roots of unity: 2/21 at
    # a = -(1 - 1e-8) was 2.2e-9 off relative where the real a is exact
    got = takagi_series(x, a).value
    want = gaussian_cycle_sum(x, a)
    err2 = (Fraction(got.real) - want[0]) ** 2 + (Fraction(got.imag) - want[1]) ** 2
    assert err2 <= Fraction(1, 10**26) * (want[0] ** 2 + want[1] ** 2)


@settings(deadline=None)
@given(x=st.floats(0, 8), a=st.floats(-0.999, 0.999))
@example(x=0.3, a=0.75)
def test_series_at_a_negative_float_is_even(x, a):
    # T_a is even, and x mod 1 is exact only as |x| - floor(|x|): -0.3 - floor(-0.3)
    # rounds, which put takagi_series(-0.3, 0.75) 1.4e-7 off T_0.75(0.3)
    want = takagi_series(x, a).value.hex()
    assert takagi_series(-x, a).value.hex() == want
    assert takagi_series(Fraction(x), a).value.hex() == want


def ref_float_series(x: float, a, n_terms: int):
    """The series at a float x, summed with the sawtooth taken by ``tau_float``."""
    acc = 0j if isinstance(a, complex) else 0.0
    w = a ** 0
    y = abs(x) - math.floor(abs(x))
    for _ in range(n_terms):
        acc = acc + w * tau_float(y)
        y = 2.0 * y
        if y >= 1.0:
            y -= 1.0
        if not y:
            break
        w = w * a
    return acc


@settings(deadline=None)
@given(
    x=st.floats(-4, 4),
    a=st.one_of(st.floats(-0.999, 0.999), st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))),
    tol=st.sampled_from((DEFAULT_SERIES_TOL, 1e-8, 1e-1)),
)
def test_series_float_loop_is_the_tau_float_loop(x, a, tol):
    # the series reads tau(y) on [0, 1) inline as 1 - y if 1 - y < y else y
    n_terms = series_truncation_length(abs(a), tol) + 1
    assert repr(takagi_series(x, a, tol).value) == repr(ref_float_series(x, a, n_terms))


# |a| in [0.9, 0.999], where the series needs the most terms and the tail
# certificate's headroom is tightest
near_one = st.tuples(st.floats(0.9, 0.999), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(j=st.integers(922, 1023), tol=st.sampled_from((DEFAULT_SERIES_TOL, 1e-10, 1e-6, 1e-1)))
def test_series_tail_certificate_near_one_is_exact(j, tol):
    # |a| = j/1024: N is the least length whose tail |a|^{N+1} / (2 (1 - |a|))
    # is at most tol/2, decided in integers as j^K 1024 t_d <= t_n (1024 - j) 1024^K
    n = series_truncation_length(j / 1024, tol)
    t = Fraction(tol)

    def tail_fits(k):
        return j ** k * 1024 * t.denominator <= t.numerator * (1024 - j) << (10 * k)

    assert tail_fits(n + 1)
    assert n == 0 or not tail_fits(n)


def series_error_bound(a: float, tol: float, n: int) -> float:
    """tol/2 for the certified tail, plus the forward rounding bound 4 n eps M
    of a float sum of n terms whose moduli sum to at most M = 1/(2(1 - |a|)).
    Near |a| = 1 that rounding term is larger than the default tol: M is ~500
    at |a| = 0.999, where one ulp of M is 1.1e-13."""
    return tol / 2 + 4 * n * 2.0 ** -53 / (2 * (1 - abs(a)))


@settings(deadline=None)
@given(x=st.floats(2.0 ** -8, 1, exclude_max=True), a=near_one, tol=st.sampled_from((DEFAULT_SERIES_TOL, 1e-6, 1e-1)))
def test_series_off_the_grid_near_one(x, a, tol):
    # a float x has at most 61 binary digits from 2^-8 on, so at most 61 terms
    exact = takagi_dyadic_exact(Fraction(x), Fraction(a)).value
    assert abs(Fraction(takagi_series(x, a, tol).value) - exact) <= series_error_bound(a, tol, 61)


@settings(deadline=None)
@given(
    x=st.fractions(0, 1, max_denominator=64).filter(lambda x: x.denominator & (x.denominator - 1)),
    a=near_one,
    tol=st.sampled_from((DEFAULT_SERIES_TOL, 1e-6, 1e-1)),
)
@example(x=Fraction(17, 24), a=0.9977879349466108, tol=DEFAULT_SERIES_TOL)
def test_series_cycle_closure_near_one(x, a, tol):
    # a rational x off the dyadic grid: the pre-period and one cycle of its
    # doubling orbit take at most d terms, then the cycle closes the sum
    want, _ = gaussian_cycle_sum(x, a)
    err = abs(Fraction(takagi_series(x, a, tol).value) - want)
    assert err <= series_error_bound(a, tol, x.denominator + 1)


def test_series_rejects_non_contractive():
    with pytest.raises(DomainError):
        takagi_series(0.3, 1.0)
    with pytest.raises(DomainError):
        takagi_series(0.3, -1.25)


def test_alt_route_matches_exact_route():
    # T_a(n/2^{k+1}) = a^{k+1} sum_{i=1}^{k+1} a^{-i} tau(n/2^i): the definition's
    # finite sum reindexed from the top digit down
    for a in (Fraction(1, 2), Fraction(1, 4), Fraction(7, 5), Fraction(-3)):
        for n in range(1, 256):
            k = n.bit_length() - 1
            alt = a ** (k + 1) * sum(a ** -i * Fraction(tau_scaled(n, i), 1 << i) for i in range(1, k + 2))
            assert alt == takagi_dyadic_exact(Fraction(n, 1 << (k + 1)), a).value


def test_derham_exact_dyadic_descent():
    sys_t = takagi_system(Fraction(2, 3))
    for d in range(1, 9):
        for j in range(0, (1 << d) + 1):
            x = Fraction(j, 1 << d)
            got = derham_eval(sys_t, x)
            assert got.error_bound == 0.0
            assert got.value.value == takagi_dyadic_exact(x, Fraction(2, 3)).value


def test_derham_non_contractive_dyadic_still_exact():
    a = Fraction(3, 2)  # |a| > 1: dyadic descent is still pinned by the system
    sys_t = takagi_system(a)
    for x in (Fraction(1, 2), Fraction(3, 8), Fraction(5, 16)):
        assert derham_eval(sys_t, x).value.value == takagi_dyadic_exact(x, a).value
    # the float 1/3 is a dyadic of depth 54, read exactly; the rational 1/3
    # has no finite descent
    assert derham_eval(sys_t, 1 / 3).value.value == takagi_dyadic_exact(Fraction(1 / 3), a).value
    with pytest.raises(ModeError):
        derham_eval(sys_t, Fraction(1, 3))


def test_derham_reads_its_abscissa_by_one_rule():
    systems = (takagi_system(Fraction(9, 10)), takagi_system(0.9), takagi_system(0.9 + 0j))
    # an int, a Fraction, a float, or an exact or float Scalar is read exactly,
    # so an exact system descends the dyadic float 0.375 too
    for system in systems:
        want = derham_eval(system, Fraction(3, 8))
        for x in (0.375, Scalar(Fraction(3, 8)), Scalar(0.375)):
            assert derham_eval(system, x) == want
        assert derham_eval(system, 1) == derham_eval(system, Fraction(1))
    assert derham_eval(systems[0], 0.375).value.value == takagi_dyadic_exact(Fraction(3, 8), Fraction(9, 10)).value
    for system in systems:
        # a complex or non-numeric abscissa is a mode error
        for x in (0.5j, Scalar(0.5 + 0j), "0.5"):
            with pytest.raises(ModeError):
                derham_eval(system, x)
        # a non-dyadic rational is refused in every mode, not rounded to a
        # float and reported exact: T_0.9(1/3) = 10/3, T_0.9(float(1/3)) = 3.32...
        with pytest.raises(ModeError, match=r"float\(x\)"):
            derham_eval(system, Fraction(1, 3))


def test_derham_float_descent_with_certificate():
    sys_t = takagi_system(0.5)
    got = derham_eval(sys_t, 1 / 3, depth=60)
    assert abs(got.value.value - 2 / 3) <= got.error_bound + 1e-12
    assert got.error_bound < 1e-15
    # a float abscissa is a dyadic of mantissa depth, so cap the descent short
    # of termination to exercise the contraction requirement
    with pytest.raises(DomainError):
        derham_eval(takagi_system(1.5), 1 / 3, depth=20)


def test_derham_refuses_uncertified_bounds():
    # the sup of |g0|, |g1| comes from the coefficients: |w| max(|v|, |u + v|)
    assert takagi_system(0.5).g_sup == 0.5
    q = 0.8 - 0.3j
    c0, c1 = (2 * q - 3) / 4, (2 * q - 1) / 4
    assert fq_system(q).g_sup == max(abs(c0), 2 * abs(c1))
    # Lebesgue's system at p = -1/4: a0 = -1/4, a1 = 5/4; one non-contractive
    # branch leaves a truncated descent without a proven bound, so it is refused
    p = -0.25
    system = DeRhamSystem(a0=Scalar(p), a1=Scalar(1 - p), g0=(0, 0, 0), g1=(0, 1, p))
    with pytest.raises(DomainError):
        derham_eval(system, 1 / 3, depth=20)
    # a descent that terminates needs no bound: 1/3 rounds to a dyadic of depth 54
    got = derham_eval(system, 1 / 3)
    assert got.error_bound == 0.0
    exact = DeRhamSystem(a0=Scalar(Fraction(-1, 4)), a1=Scalar(Fraction(5, 4)),
                         g0=(0, 0, 0), g1=(0, 1, Fraction(-1, 4)))
    assert got.value.value == pytest.approx(float(derham_eval(exact, Fraction(1 / 3)).value.value), rel=1e-12)


@pytest.mark.parametrize(
    "system",
    [lambda: takagi_system(1), lambda: takagi_system(1.0), lambda: fq_system(Fraction(1, 2))],
    ids=["takagi-1", "takagi-1.0", "fq-1/2"],
)
def test_derham_coefficient_one_is_a_domain_error(system):
    # a0 = 1 (or a1 = 1) leaves f(0) = g0(0)/(1 - a0) undefined
    with pytest.raises(DomainError):
        system().consistency_residual()
    with pytest.raises(DomainError):
        derham_eval(system(), Fraction(1, 3))


@pytest.mark.parametrize(
    "a0, a1",
    [(Scalar(Fraction(1, 3)), Scalar(0.5)), (Scalar(0.5), Scalar(0.5 + 0j))],
    ids=["exact-float", "float-complex"],
)
def test_derham_system_refuses_mixed_modes(a0, a1):
    # the descent runs in the system's one mode: the exact descent cannot read
    # a float a1, and a float system would return a complex value
    g0, g1 = (1, 0, Fraction(1, 2)), (-1, 1, Fraction(1, 2))
    for b0, b1 in ((a0, a1), (a1, a0)):
        with pytest.raises(ModeError, match="a0 and a1 of one mode"):
            DeRhamSystem(a0=b0, a1=b1, g0=g0, g1=g1)


def test_derham_consistency_residuals_vanish():
    assert takagi_system(Fraction(2, 3)).consistency_residual().value == 0
    assert fq_system(Fraction(2, 3)).consistency_residual().value == 0
    assert abs(fq_system(0.5 + 0.5j).consistency_residual().value) < 1e-15


def test_fq_system_solves_F_q():
    q = Fraction(2, 3)
    sys_f = fq_system(q)
    for x in (Fraction(0), Fraction(1, 2), Fraction(3, 8), Fraction(1)):
        assert derham_eval(sys_f, x).value.value == F_q(x, q).value


def test_F_q_pinned_values():
    # F_{2/3}(1/2) = 2/3*1/2 - T_{3/4}(1/2)/2 = 1/3 - 1/4 = 1/12
    assert F_q(Fraction(1, 2), Fraction(2, 3)).value == Fraction(1, 12)
    assert F_q(Fraction(0), Fraction(2, 3)).value == 0
    assert F_q(Fraction(1), Fraction(2, 3)).value == Fraction(2, 3)
    # off-dyadic evaluation needs |q| > 1/2
    with pytest.raises(DomainError):
        F_q(1 / 3, Fraction(1, 3))
    assert abs(F_q(0.5, Fraction(2, 3)).value - 1 / 12) < 1e-13


def test_F_q_sums_a_rational_abscissa_as_given():
    # F_{2/3}(1/3) = 2/9 - T_{3/4}(1/3)/2 = 2/9 - 2/3; the series at float(1/3)
    # was 1.1e-7 off, since T_a moves by ~|dx|^{-log2 |a|} under a rounding dx
    v = F_q(Fraction(1, 3), Fraction(2, 3))
    assert v.mode is Mode.FLOAT
    assert abs(v.value - (-4 / 9)) <= 1e-15
    # the domain is [0,1] for x as given, not for float(x)
    with pytest.raises(DomainError):
        F_q(1 + Fraction(1, 3 << 60), Fraction(2, 3))
    with pytest.raises(ModeError):
        F_q(0.5j, Fraction(2, 3))


def type_and_bits(v):
    """A payload's type and value, a float's or a complex number's as its IEEE
    bytes, so 0.0 and -0.0 differ."""
    if type(v) is Fraction:
        return Fraction, v
    return type(v), struct.pack("<2d", v.real, v.imag) if type(v) is complex else struct.pack("<d", v)


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize(
    "q", [Fraction(2, 3), Fraction(-3, 5), Fraction(1, 3), 0.7, -0.6, 1j, 0.5 + 0.5j, -0.6 + 0.1j], ids=str
)
def test_F_q_grid_is_F_q_at_each_point(q, m):
    want = [F_q(Fraction(j, 1 << m), q).value for j in range((1 << m) + 1)]
    got = F_q_grid(q, m)
    assert list(map(type_and_bits, got)) == list(map(type_and_bits, want))
    # a grid is a Ratios, as takagi_grid's is, and an exact one integers over one denominator
    assert isinstance(got, Ratios) and (got.den is not None) == isinstance(q, Fraction)


@pytest.mark.parametrize("tol", [DEFAULT_SERIES_TOL, 1e-3])
@pytest.mark.parametrize("q", [Fraction(2, 3), 1, 1.0, Fraction(3, 2), 4, 0.5000001, 1e308], ids=str)
def test_tilde_F_q_grid_and_range_are_the_point_functions(q, tol):
    want = [tilde_F_q(j / 64, q, tol).value for j in range(65)]
    assert list(map(type_and_bits, tilde_F_q_grid(q, 6, tol))) == list(map(type_and_bits, want))
    want = [tilde_F_q_log2(n, q, tol).value for n in range(1, 300)]
    assert list(map(type_and_bits, tilde_F_q_log2_range(q, 299, tol))) == list(map(type_and_bits, want))


@pytest.mark.parametrize("form, args, shown", [
    (takagi_grid, (1e300, 3), "inf"),
    (takagi_grid, (1e200j, 3), "(-inf+nanj)"),
    (F_q_grid, (1e-300, 3), "inf"),
    (F_q_grid, (1e-300 + 0j, 3), "(inf+nanj)"),
], ids=["takagi-float", "takagi-complex", "F-float", "F-complex"])
def test_many_point_forms_keep_their_overflow_message(form, args, shown):
    with pytest.raises(DomainError) as err:
        form(*args)
    assert str(err.value) == f"a float overflowed: the result is {shown}, not a finite number"


@pytest.mark.parametrize("a", [Fraction(2, 3), Fraction(0), 0.7, -0.6, 1j, 0.5 + 0.5j], ids=str)
def test_takagi_grid_has_two_points_at_m_0(a):
    # the grid 0, 1 has one point below its middle, and a mirror of it alone is one point
    want = [type_and_bits(takagi_dyadic_exact(x, a).value) for x in (0, 1)]
    assert list(map(type_and_bits, takagi_grid(a, 0))) == want


def test_grid_forms_check_their_parameter():
    with pytest.raises(DomainError):
        F_q_grid(0, 3)
    with pytest.raises(DomainError):
        tilde_F_q_grid(Fraction(1, 2), 3)
    with pytest.raises(ModeError):
        tilde_F_q_grid(1j, 3)
    with pytest.raises(DomainError):
        tilde_F_q_grid(2, 3, 0.0)
    with pytest.raises(DomainError):
        tilde_F_q_grid(2, -1)
    with pytest.raises(DomainError):
        tilde_F_q_log2_range(Fraction(1, 2), 5)
    assert tilde_F_q_log2_range(2, 0) == []


@pytest.mark.parametrize(
    "q", [Fraction(2, 3), Fraction(-7, 5), 1, 0.7, -0.6, 5.0, 1j, 0.5 + 0.5j, -0.6 + 0.1j], ids=str
)
def test_hat_F_q_is_the_scaled_series(q):
    a = QWeight.of(q).a
    mode = Mode.COMPLEX if a.mode is Mode.COMPLEX else Mode.FLOAT
    for u, tol in itertools.product((0.0, 0.3, 0.999, 1.0, 2.5, -1.25, 1e-300), (DEFAULT_SERIES_TOL, 1e-3)):
        uf = u - math.floor(u)
        want = Scalar.lift(2.0 ** (1.0 - uf), mode).value * takagi_series(2.0 ** (uf - 1.0), a, tol).value
        got = hat_F_q(u, q, tol)
        assert (got.mode, type_and_bits(got.value)) == (mode, type_and_bits(want))


def test_hat_F_periodicity():
    q = Fraction(2, 3)
    for u in (0.1, 0.37, 0.9):
        v = hat_F_q(u, q).value
        # u+1 reduces mod 1 with ~1 ulp of argument noise; the curve is only
        # Holder continuous, so allow a correspondingly loose tolerance
        assert hat_F_q(u + 1.0, q).value == pytest.approx(v, abs=1e-6)
        assert hat_F_q(u + 3.0, q).value == pytest.approx(v, abs=1e-6)
    with pytest.raises(DomainError):
        hat_F_q(0.3, Fraction(1, 2))


def test_tilde_F_2_vanishes():
    for j in range(0, 101):
        u = j / 100
        assert abs(tilde_F_q(u, Fraction(2)).value) <= 1e-12


def test_tilde_F_q_domain():
    with pytest.raises(DomainError):
        tilde_F_q(0.5, Fraction(1, 2))
    with pytest.raises(ModeError):
        tilde_F_q(0.5, 1j)


def test_tilde_F_q_at_one_endpoints_and_negativity():
    # the classic curve: tilde F_1(0) = tilde F_1(1) = 0, interior values negative
    assert abs(tilde_F_q(0.0, 1).value) < 1e-12
    assert abs(tilde_F_q(1.0, 1).value) < 1e-12
    assert tilde_F_q(0.5, 1).value < 0


def test_tilde_F_q_at_an_integer_is_positive_zero():
    # at u = 1 and q > 1 the head (1 - q^0) / (1 - q) is -0.0
    for q in (Fraction(3, 2), Fraction(4), 1e308, Fraction(2, 3), 1):
        for u in (0.0, 1.0, 2.0):
            v = tilde_F_q(u, q).value
            assert v == 0.0 and math.copysign(1.0, v) == 1.0


def test_tilde_F_q_at_one_is_the_classic_correction():
    # the head (1 - q^{1-u}) / (1 - q) becomes 1 - u at q = 1, its limit
    for tol in (DEFAULT_SERIES_TOL, 1e-6):
        for u in [j / 512 for j in range(513)]:
            want = 1.0 - u - 2.0 ** (1.0 - u) * takagi_series(2.0 ** (u - 1.0), 0.5, tol).value
            for q in (1, 1.0, Fraction(1)):
                assert tilde_F_q(u, q, tol).value.hex() == want.hex()


def test_G_tilde_gamma_pinned_point():
    # 1-periodicity forces G~(log2 3) = G~(log2 3 - 1) = -1/3 for unit limit
    import math

    v = G_tilde_gamma(math.log2(3), 1.0, 1e-12).value
    assert v == pytest.approx(-1 / 3, abs=1e-10)
    assert G_tilde_gamma(0.25, 0.0, 1e-12).value == 0.0
    w = G_tilde_gamma(0.25, 1.0, 1e-12).value
    assert G_tilde_gamma(5.25, 1.0, 1e-12).value == pytest.approx(w, abs=1e-12)


def test_route_agreement_random_sample():
    rng = random.Random(12345)
    for _ in range(500):
        x = Fraction(rng.randrange(0, (1 << 12) + 1), 1 << 12)
        a = Fraction(rng.randrange(-15, 16), 16)
        if abs(a) >= 1:
            continue
        tol = 10.0 ** -rng.randrange(6, 15)
        exact = float(takagi_dyadic_exact(x, a).value)
        approx = takagi_series(x, float(a), tol).value
        assert abs(approx - exact) <= tol
