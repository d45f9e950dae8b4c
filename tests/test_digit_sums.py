from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdq.digit_sums import (
    S_q_direct,
    S_q_pow2,
    S_q_recursive,
    WeightSequence,
    binary_digits,
    digits_value,
    iter_S_direct,
    popcount_partial_sum,
    s_q,
    weighted_digit_sum,
)
from tdq.errors import DomainError

Q_PANEL = [
    Fraction(2, 3),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1),
    Fraction(1),
    Fraction(3, 2),
    Fraction(4),
]


def test_binary_digits_examples():
    assert binary_digits(6) == [0, 1, 1]
    assert binary_digits(0) == []
    assert binary_digits(1) == [1]
    with pytest.raises(DomainError):
        binary_digits(-1)


@given(st.integers(0, 10**9))
def test_digits_round_trip(n):
    assert digits_value(binary_digits(n)) == n


def test_sq_examples():
    # s_q(6) = q^2 + q^3 (bits at positions 1 and 2)
    q = Fraction(2, 3)
    assert s_q(6, q).value == q**2 + q**3
    assert s_q(0, q).value == 0
    # q = 1 recovers the popcount
    assert s_q(6, 1).value == 2
    assert s_q(255, 1).value == 8


@given(st.integers(0, 2**20))
def test_sq_shift_identities(n):
    q = Fraction(2, 3)
    # even shift: s_q(2n) = q * s_q(n); odd: s_q(2n+1) = q + q * s_q(n)
    assert s_q(2 * n, q).value == q * s_q(n, q).value
    assert s_q(2 * n + 1, q).value == q + q * s_q(n, q).value


def test_weighted_digit_sum_matches_sq():
    q = Fraction(-2, 3)
    gamma = WeightSequence.geometric(q)
    for n in range(200):
        assert weighted_digit_sum(n, gamma).value == s_q(n, q).value


def test_weighted_digit_sum_explicit_and_constant():
    gamma = WeightSequence.explicit([Fraction(5), Fraction(7)], Fraction(1))
    # n = 11 = 1101 LSB-first: bits at 0, 1, 3
    assert weighted_digit_sum(11, gamma).value == 5 + 7 + 1
    const = WeightSequence.constant(Fraction(1))
    assert weighted_digit_sum(11, const).value == 3
    assert const.limit.value == 1
    assert WeightSequence.geometric(Fraction(2, 3)).limit.value == 0
    assert WeightSequence.geometric(1).limit.value == 1
    assert WeightSequence.geometric(2).limit is None


@pytest.mark.parametrize("q", Q_PANEL)
def test_routes_agree_exactly(q):
    for n in range(1, 300):
        direct = S_q_direct(n, q).value
        assert S_q_recursive(n, q).value == direct
        if n & (n - 1) == 0:
            assert S_q_pow2(n.bit_length() - 1, q).value == direct


def test_pow2_closed_form_values():
    # S_q(2^k) = q (1 - q^k) / (1 - q) * 2^{k-1}
    q = Fraction(2, 3)
    assert S_q_pow2(0, q).value == 0
    assert S_q_pow2(1, q).value == q
    assert S_q_pow2(3, q).value == q * (1 - q**3) / (1 - q) * 4
    # q = 1 limit: k 2^{k-1}
    assert S_q_pow2(5, 1).value == 5 * 16


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4000))
def test_classic_case_is_popcount_sum(n):
    assert S_q_direct(n, 1).value == popcount_partial_sum(n)


@pytest.mark.parametrize("q", Q_PANEL)
def test_even_and_odd_descent_recursions(q):
    # S_q(2n) = 2q S_q(n) + n q   and   S_q(2^k + m) = S_q(2^k) + S_q(m) + m q^{k+1}
    for n in range(1, 128):
        assert (
            S_q_direct(2 * n, q).value
            == 2 * q * S_q_direct(n, q).value + n * q
        )
    for k in range(1, 8):
        for m in range(1, 1 << k):
            assert (
                S_q_direct((1 << k) + m, q).value
                == S_q_pow2(k, q).value + S_q_direct(m, q).value + m * q ** (k + 1)
            )


def test_complex_routes_agree():
    q = 0.5 + 0.5j
    for n in range(1, 200):
        assert abs(S_q_recursive(n, q).value - S_q_direct(n, q).value) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        S_q_direct(0, Fraction(2, 3))
    with pytest.raises(DomainError):
        S_q_recursive(0, Fraction(2, 3))
    with pytest.raises(DomainError):
        S_q_pow2(-1, Fraction(2, 3))
    with pytest.raises(DomainError):
        s_q(-1, Fraction(2, 3))


@pytest.mark.parametrize("n_max", [0, -3])
@pytest.mark.parametrize("q", [Fraction(2, 3), 0.7, 0.5 + 0.5j], ids=["exact", "float", "complex"])
def test_iter_S_direct_empty_range(n_max, q):
    # an exact q used to yield (1, 0) here, as if S_q(1) had been asked for
    assert list(iter_S_direct(n_max, q)) == []
