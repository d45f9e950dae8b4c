import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdq.errors import DomainError, ModeError, ParseError
from tdq.scalar import (
    Mode,
    QWeight,
    Regime,
    Scalar,
    as_qweight,
    as_scalar,
    checked_pow,
    parse_scalar,
    tau_float,
    tau_profile,
    tau_scaled,
)

rationals = st.fractions(max_denominator=10**6)


def test_tau_examples():
    # tau_scaled(n, i) = 2^i tau(n / 2^i)
    assert tau_scaled(1, 1) == 1  # tau(1/2) = 1/2
    assert tau_scaled(3, 0) == 0  # tau(3) = 0
    assert tau_scaled(3, 2) == 1  # tau(3/4) = 1/4


def test_tau_profile_is_tau_scaled_level_by_level():
    for n in range(1 << 12):
        for K in range(15):
            assert tau_profile(n, K) == [tau_scaled(n, i) for i in range(1, K + 1)]
    assert tau_profile(0, 5) == [0] * 5
    assert tau_profile(12345, 0) == []


def by_bit_length(top):
    """n >= 0 of every bit length up to top, each length as likely (a plain
    integers(0, 2^top) draws mostly small n)."""
    return st.integers(0, top).flatmap(lambda b: st.integers((1 << b) >> 1, (1 << b) - 1))


WIDE_N = by_bit_length(70)


@given(WIDE_N, st.integers(0, 80))
def test_tau_profile_wide_n(n, K):
    profile = tau_profile(n, K)
    assert profile == [tau_scaled(n, i) for i in range(1, K + 1)]
    # from level bit_length(n) + 1 on, n mod 2^i = n <= 2^i - n
    assert profile[n.bit_length():] == [n] * (K - n.bit_length())


@pytest.mark.parametrize("K", [63, 64, 65, 70])
def test_tau_profile_across_the_level_table_edge(K):
    # levels up to 64 are read from a table, deeper ones from the loop
    ns = [0, 1, 3, (1 << 62) + 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1]
    ns += [(1 << 70) - 1, 1 << 69, 0x2AAAAAAAAAAAAAAAAA, 0x355555555555555555]
    for n in ns:
        profile = tau_profile(n, K)
        assert profile == [tau_scaled(n, i) for i in range(1, K + 1)]
        assert all(type(t) is int for t in profile)


def test_tau_float_and_complex():
    assert tau_float(0.75) == 0.25
    # the sawtooth is defined on reals only; a complex input is refused
    with pytest.raises(TypeError):
        tau_float(1 + 1j)


# |m| <= 2^40, so m / 2^i + n is still a float exactly
SIGNED_M = st.builds(lambda s, m: s * m, st.sampled_from((1, -1)), st.one_of(by_bit_length(40), st.just(1 << 40)))


@given(SIGNED_M, st.integers(0, 40), st.integers(-50, 50))
def test_tau_periodicity_and_symmetry(m, i, n):
    t = tau_scaled(m, i)
    assert tau_scaled(m + n * (1 << i), i) == t
    assert tau_scaled(-m, i) == t
    assert tau_scaled((1 << i) - m, i) == t
    assert 0 <= 2 * t <= 1 << i
    # m / 2^i is a float exactly, and so are x + n, -x and 1 - x
    x = m / (1 << i)
    assert tau_float(x) == t / (1 << i)
    assert tau_float(x + n) == tau_float(-x) == tau_float(1 - x) == tau_float(x)


def test_promotion_is_explicit_and_upward_only():
    s = Scalar.exact(Fraction(1, 3))
    assert s.promote(Mode.FLOAT).value == pytest.approx(1 / 3)
    assert s.promote(Mode.COMPLEX).value == pytest.approx(complex(1 / 3))
    with pytest.raises(ModeError):
        Scalar.flt(0.5).promote(Mode.EXACT)


def test_parse_examples():
    assert parse_scalar("2/3", Mode.EXACT).value == Fraction(2, 3)
    assert parse_scalar("0.5+0.5i", Mode.COMPLEX).value == 0.5 + 0.5j
    with pytest.raises(ParseError):
        parse_scalar("1/0", Mode.EXACT)
    with pytest.raises(ParseError):
        parse_scalar("0.5", Mode.EXACT)
    assert parse_scalar("i", Mode.COMPLEX).value == 1j


@given(rationals)
def test_parse_render_round_trip_exact(x):
    s = Scalar.exact(x)
    assert parse_scalar(s.render(), Mode.EXACT) == s


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_parse_render_round_trip_float(x):
    s = Scalar.flt(x)
    assert parse_scalar(s.render(), Mode.FLOAT).value == x


def test_qweight_regimes():
    assert QWeight.of(Fraction(2, 3)).regime is Regime.CONTRACTIVE
    assert QWeight.of(Fraction(1, 2)).regime is Regime.BOUNDARY
    assert QWeight.of(Fraction(-1, 3)).regime is Regime.EXPANDING
    assert QWeight.of(complex(0, 1)).regime is Regime.CONTRACTIVE
    assert QWeight.of(1).is_one
    # q = 0 boxes like any other q; only a = 1/(2q) is refused
    assert QWeight.of(0).regime is Regime.EXPANDING
    with pytest.raises(DomainError, match="q = 0 has no associated a"):
        QWeight.of(0).a


def test_as_qweight_boxes_an_exact_q_once():
    assert as_qweight(Fraction(2, 3)) is as_qweight(Fraction(4, 6))
    assert as_qweight(Fraction(2, 3)).a.value == Fraction(3, 4)
    # 1, 1.0 and Fraction(1) are equal keys to a dict: each keeps its own mode
    for q, mode in ((Fraction(1), Mode.EXACT), (1.0, Mode.FLOAT), (1, Mode.EXACT), (1 + 0j, Mode.COMPLEX)):
        qw = as_qweight(q)
        assert qw.q.mode is mode and qw.is_one
    # float and complex q are cached by their bits, so their signed zeros stay apart
    assert math.copysign(1.0, as_qweight(complex(0.0, 1)).q.value.real) == 1.0
    assert math.copysign(1.0, as_qweight(complex(-0.0, 1)).q.value.real) == -1.0


def test_as_qweight_boxes_a_float_or_complex_q_once():
    qs = [0.75, -2.5, 1e-310, -1e-310, 0.5 + 0.5j, 2 + 0j, complex(2, -0.0), complex(-0.0, 1), 1j, 2.0]
    for q in qs:
        qw = as_qweight(q)
        assert as_qweight(q) is qw
        v = qw.q.value
        assert type(v) is type(q) and (v.real.hex(), v.imag.hex()) == (q.real.hex(), q.imag.hex())
    # equal numbers are equal dict keys; each of these keeps a QWeight of its own
    for q, other in ((2.0, 2 + 0j), (2 + 0j, complex(2, -0.0)), (complex(-0.0, 1), 1j)):
        assert as_qweight(q) is not as_qweight(other)
    # a q that cannot be boxed raises at every call
    for bad in (math.inf, complex(1, math.nan)):
        for _ in range(2):
            with pytest.raises(DomainError):
                as_qweight(bad)
    # a zero q boxes, each signed zero apart, and only its a is refused, at every read
    for q in (0.0, -0.0, 0j, complex(-0.0, 0.0)):
        qw = as_qweight(q)
        assert qw is as_qweight(q) and qw.regime is Regime.EXPANDING
        assert math.copysign(1.0, qw.q.value.real) == math.copysign(1.0, q.real)
        for _ in range(2):
            with pytest.raises(DomainError, match="q = 0 has no associated a"):
                qw.a
    assert as_qweight(0.0) is not as_qweight(-0.0)


def test_as_qweight_has_one_cache_for_every_kind_of_q():
    # a Scalar and an int q share the box of their payload
    assert as_qweight(Scalar.flt(0.75)) is as_qweight(0.75)
    assert as_qweight(Scalar.exact(3)) is as_qweight(3) is as_qweight(Fraction(3))
    assert as_qweight(0) is as_qweight(Fraction(0))
    qw = as_qweight(Fraction(2, 3))
    assert as_qweight(qw) is qw
    # an exact key needs no float, which would overflow past 1e308
    big = Fraction(10) ** 400
    assert as_qweight(big) is as_qweight(Fraction(10) ** 400)
    assert as_qweight(big).a.value == Fraction(1, 2) / big
    with pytest.raises(ModeError):
        as_qweight("2/3")


@given(rationals.filter(lambda q: q != 0))
def test_qweight_inverse_identity(q):
    w = QWeight.of(q)
    assert w.a.value * 2 * w.q.value == 1


def test_scalar_mode_is_its_payloads_type():
    for v, mode in ((Fraction(1, 3), Mode.EXACT), (0.5, Mode.FLOAT), (0.5 + 1j, Mode.COMPLEX)):
        assert Scalar(v).mode is mode and Scalar(v).value is v
    # an int, a bool or a str is no payload: as_scalar is the step that makes an int exact
    for bad in (1, True, "1"):
        with pytest.raises(ModeError):
            Scalar(bad)
    # equal numbers of different types are different Scalars
    assert len({Scalar(Fraction(1)), Scalar(1.0), Scalar(1 + 0j)}) == 3
    assert Scalar(Fraction(1)) != Scalar(1.0)
    assert math.copysign(1.0, Scalar(-0.0).value) == -1.0 and Scalar(-0.0).render() == "-0"


def test_as_scalar_modes():
    assert as_scalar(3).mode is Mode.EXACT
    assert as_scalar(0.5).mode is Mode.FLOAT
    assert as_scalar(1j).mode is Mode.COMPLEX


def test_float_and_complex_scalars_are_finite():
    # an overflowed result raises where it becomes a Scalar, never printed as inf or nan
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            Scalar.flt(bad)
        with pytest.raises(DomainError):
            Scalar.cplx(complex(1.0, bad))
    # a tiny q still weighs digits; only its a = 1/(2q) overflows, on use
    qw = QWeight.of(1e-310)
    assert qw.q.value == 1e-310 and qw.regime is Regime.EXPANDING
    with pytest.raises(DomainError):
        qw.a


def test_checked_pow():
    assert checked_pow(Fraction(2, 3), 3) == Fraction(8, 27)
    assert checked_pow(Fraction(10) ** 400, 2) == Fraction(10) ** 800  # exact powers never overflow
    assert checked_pow(1e300, 1) == 1e300 and checked_pow(1e-300, 2) == 0.0  # underflow is not an error
    for x in (1e300, -1e300, 1e300 + 1j):
        with pytest.raises(DomainError):
            checked_pow(x, 2)
