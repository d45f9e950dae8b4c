import math
import re
from fractions import Fraction

import pytest

from tdq.digit_sums import S_q_direct, iter_S_direct
from tdq.errors import DomainError
from tdq.takagi import G_tilde_gamma
from tdq.trollope import (
    classic_formula,
    dyadic_formula,
    dyadic_num,
    larcher_residual,
    theorem1_num,
    theorem1_rhs,
    vdc_star_discrepancy,
)


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-2, 3), Fraction(3, 2), Fraction(-1)])
def test_theorem1_exact_small_sweep(q):
    for n, s in iter_S_direct(512, q):
        assert theorem1_rhs(n, q).value == s / n


def test_theorem1_pinned_value():
    # q = 2, n = 3: S_2(3)/3 = (s(1)+s(2))/3 = (2+4)/3 = 2
    assert theorem1_rhs(3, Fraction(2)).value == 2
    assert S_q_direct(3, Fraction(2)).value == 6


def test_theorem1_domain():
    with pytest.raises(DomainError):
        theorem1_rhs(5, Fraction(1))  # q = 1 excluded
    with pytest.raises(DomainError):
        theorem1_rhs(5, Fraction(1, 3))  # |q| <= 1/2 excluded
    with pytest.raises(DomainError):
        theorem1_rhs(0, Fraction(2, 3))


@pytest.mark.parametrize(
    "q",
    [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1), Fraction(3, 2)],
)
def test_dyadic_formula_all_q_small_sweep(q):
    # unlike the hat-F form this holds with no modulus constraint
    for n, s in iter_S_direct(512, q):
        assert dyadic_formula(n, q).value == s / n


def test_dyadic_formula_excludes_one():
    with pytest.raises(DomainError):
        dyadic_formula(5, Fraction(1))


@pytest.mark.parametrize("num, formula", [(theorem1_num, theorem1_rhs), (dyadic_num, dyadic_formula)])
def test_numerator_kernels_take_exact_q_and_the_formulas_domain(num, formula):
    for n in (1, 6, 777):
        top, den = num(n, Fraction(-5, 3))
        assert type(top) is int and type(den) is int and den > 0
        assert Fraction(top, den) == formula(n, Fraction(-5, 3)).value
    # at a float q too, and at 1e300, where a power the formula takes overflows
    for n, q in ((0, Fraction(2, 3)), (5, Fraction(1)), (5, 1), (0, 0.7), (5, 1.0), (4, 1e300)):
        with pytest.raises(DomainError) as exc:
            formula(n, q)
        with pytest.raises(DomainError, match=re.escape(str(exc.value))):
            num(n, q)
    # a float or complex q gives the formula's payload over 1, bit for bit
    for q in (0.7, -0.6, 4.0, 0.5 + 0.5j, -0.3 + 0.9j):
        for n in [*range(1, (1 << 12) + 1), (1 << 40) + 1, 1 << 62]:
            top, den = num(n, q)
            value = formula(n, q).value
            assert (type(top), repr(top), den) == (type(value), repr(value), 1)


def test_overflow_is_raised_at_the_power_the_formula_takes():
    # a float power out of range raises where the formula computes it, in
    # the order of the calls: dyadic_formula takes (2q)^i only at the levels
    # where the sawtooth is not 0 (at n = 4 only i = 3), and theorem1_rhs
    # takes q^{k+1}; a large n first must not move the message of a small one
    calls = [
        (dyadic_formula, (1 << 40) + 1, 1e200, "2e+200 ** 2 overflows a float"),
        (dyadic_formula, 4, 1e200, "2e+200 ** 3 overflows a float"),
        (dyadic_formula, 4, complex(1e200, 1), "(2e+200+2j) ** 3 overflows a float"),
        (theorem1_rhs, 1 << 40, 1e300, "1e+300 ** 41 overflows a float"),
        (theorem1_rhs, 2, 1e300, "1e+300 ** 2 overflows a float"),
        # a complex power that turns nan raises no OverflowError: the result does
        (theorem1_rhs, 1 << 40, complex(1e300, -1), "a float overflowed: the result is (nan+nanj), not a finite number"),
        (dyadic_formula, 1, 1e200, "a float overflowed: the result is inf, not a finite number"),
    ]
    for _ in range(2):
        for formula, n, q, message in calls:
            with pytest.raises(DomainError) as err:
                formula(n, q)
            assert str(err.value) == message


def test_complex_formulas_agree_with_direct():
    for q in (1j, 0.5 + 0.5j, 0.5 - 0.5j):
        for n, s in iter_S_direct(256, q):
            assert abs(theorem1_rhs(n, q).value - s / n) < 1e-12
            assert abs(dyadic_formula(n, q).value - s / n) < 1e-12


def test_classic_formula_small():
    for n in range(1, 2048):
        expected = sum(k.bit_count() for k in range(n)) / n
        assert abs(classic_formula(n).value - expected) < 1e-12


def test_vdc_identity_and_example():
    # (1 - D*_n)/2 = S_{1/2}(n)/n, exactly
    assert vdc_star_discrepancy(3).value == Fraction(1, 2)
    half = Fraction(1, 2)
    for n, s in iter_S_direct(512, half):
        d = vdc_star_discrepancy(n).value
        assert (1 - d) / 2 == s / n


def test_larcher_constant_weights_residual_vanishes():
    for n in (3, 17, 100, 255):
        r = larcher_residual(n, (), 1.0, 1e-10).value
        assert abs(r) <= n * 1e-9


def test_larcher_decaying_weights_trend():
    c = 1.0
    weights = [c + 2.0**-i for i in range(64)]
    small = abs(larcher_residual(1 << 6, weights, c, 1e-10).value) / (1 << 6)
    big = abs(larcher_residual(1 << 10, weights, c, 1e-10).value) / (1 << 10)
    assert big < small  # o(n): the per-n residual shrinks


def test_larcher_weighted_sum_matches_brute_force():
    # S(n, gamma) summed one j < n and one set bit at a time
    weights, limit = [3.0, -1.0, 0.5], 2.0
    gamma = weights + [limit] * 5  # gamma_0 .. gamma_7 cover every n < 256
    for n in (2, 3, 17, 100, 255):
        s = sum(gamma[i] for j in range(n) for i in range(j.bit_length()) if j >> i & 1)
        head = sum(gamma[i] for i in range(n.bit_length()))
        g = G_tilde_gamma(math.log2(n), limit, 1e-10).value
        r = larcher_residual(n, weights, limit, 1e-10).value
        assert r == pytest.approx(s - 0.5 * n * head - n * g, abs=1e-9)
