from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdq.digit_sums import (
    S_q_direct,
    S_q_pow2,
    S_q_recursive,
    S_rec_num,
    S_rec_payload,
    bit_counts,
    iter_S_direct,
    s_q,
)
from tdq.errors import DomainError
from tdq.odometer import OdometerPoint
from tdq.scalar import tau_scaled

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


@given(st.integers(0, 10**9))
def test_digits_round_trip(n):
    assert OdometerPoint.from_int(n).value == n


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


def test_bit_counts_brute_force():
    # c_i(n) = #{j < n : bit i of j set}, counted one j at a time
    counts = []
    for n in range(1 << 12):
        counts += [0] * (n.bit_length() - len(counts))
        assert bit_counts(n) == counts
        for i in range(n.bit_length()):
            counts[i] += n >> i & 1
    with pytest.raises(DomainError):
        bit_counts(-1)


def test_trollope_delange_lemma():
    # 2 c_{i-1}(n) = n - tau_scaled(n, i), past the bit length too, where
    # c_{i-1}(n) = 0 and tau_scaled(n, i) = n; test_bit_counts_brute_force
    # checks the counts themselves against a count over every j < n
    for n in range(1 << 12):
        counts = bit_counts(n)
        for i in range(1, n.bit_length() + 3):
            c = counts[i - 1] if i <= len(counts) else 0
            assert 2 * c == n - tau_scaled(n, i)


@pytest.mark.parametrize("q", Q_PANEL)
def test_bit_counts_weigh_to_S_q(q):
    # S_q(n) = sum_i c_i(n) q^{i+1}: each j < n adds q^{i+1} for every set bit i
    for n, s in iter_S_direct(300, q):
        assert sum(c * q ** (i + 1) for i, c in enumerate(bit_counts(n))) == s


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
    assert S_q_direct(n, 1).value == sum(k.bit_count() for k in range(n))


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


def test_S_rec_num_refuses_n_below_one():
    # the integer kernel returned (0, 1) at n = 0 and (-456, 81) at n = -8
    for n in (0, -8):
        for call in (lambda: S_rec_num(n, 2, 3), lambda: S_rec_payload(n, Fraction(2, 3)), lambda: S_rec_payload(n, 0.7)):
            with pytest.raises(DomainError, match=r"^S_q is defined for n >= 1$"):
                call()


@pytest.mark.parametrize("n_max", [0, -3])
@pytest.mark.parametrize("q", [Fraction(2, 3), 0.7, 0.5 + 0.5j], ids=["exact", "float", "complex"])
def test_iter_S_direct_empty_range(n_max, q):
    # an exact q used to yield (1, 0) here, as if S_q(1) had been asked for
    assert list(iter_S_direct(n_max, q)) == []
