import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdq.digit_sums import S_q_direct, orbit_sums, s_q
from tdq.errors import DomainError
from tdq.odometer import (
    FluctuationCurve,
    G_q,
    Normalization,
    OdometerPoint,
    Ratios,
    birkhoff_deviation,
    dyadic_grid,
    ergodic_sum,
    odometer_step,
    orbit_partial_sums,
    phi_curve,
    prop2_R,
    prop2_exact,
    stabilizer_search,
    sup_distance_to_limit,
)
from tdq.scalar import Mode, Scalar
from tdq.takagi import F_q, takagi_dyadic_exact


@given(st.integers(0, 1 << 16))
def test_step_is_successor_from_zero_orbit(n):
    pt = OdometerPoint.from_int(n)
    assert (pt.value, pt.width) == (n, n.bit_length())
    assert odometer_step(pt).value == n + 1


def test_step_widens_on_a_full_carry_and_points_are_checked():
    assert odometer_step(OdometerPoint((1, 1, 1))) == OdometerPoint((0, 0, 0, 1))
    assert odometer_step(OdometerPoint((1, 1, 0, 0))) == OdometerPoint((0, 0, 1, 0))
    with pytest.raises(DomainError):
        OdometerPoint((0, 2))
    with pytest.raises(DomainError):
        OdometerPoint.from_int(-1)


def test_s_q_point_matches_integer_digit_sum():
    # the one-point orbit sum is s_q at the point
    q = Fraction(2, 3)
    for n in range(200):
        assert ergodic_sum(OdometerPoint.from_int(n), q, 1).value == s_q(n, q).value


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-1), Fraction(3, 2)])
def test_ergodic_sum_from_zero_is_S_q(q):
    for n in range(1, 200):
        assert ergodic_sum(OdometerPoint.zero(), q, n).value == S_q_direct(n, q).value


def test_ergodic_sum_translated_start():
    # starting at omega = m, the orbit sum telescopes to S_q(m+n) - S_q(m)
    q = Fraction(2, 3)
    for m in (1, 5, 12):
        for n in (1, 7, 33):
            expected = S_q_direct(m + n, q).value - S_q_direct(m, q).value
            assert ergodic_sum(OdometerPoint.from_int(m), q, n).value == expected


def test_orbit_partial_sums_prefix_property():
    q = Fraction(-2, 3)
    p = orbit_partial_sums(OdometerPoint.zero(), q, 64)
    assert len(p) == 65
    assert p[0] == 0
    for j in range(1, 65):
        assert p[j] == S_q_direct(j, q).value


@pytest.mark.parametrize("q", [Fraction(2, 3), 2 / 3, 0.5 + 0.5j])
def test_empty_windows_are_rejected(q):
    with pytest.raises(DomainError):
        orbit_partial_sums(OdometerPoint.zero(), q, 0)
    partials = orbit_partial_sums(OdometerPoint.zero(), q, 4)
    with pytest.raises(DomainError):
        phi_curve(partials, 0, [Fraction(0), Fraction(1)], Normalization.MAX_ABS)


# -- orbit_partial_sums' read-only sequence over the integer core

PARTIAL_QS = {"exact": Fraction(2, 3), "exact-negative": Fraction(-5, 3), "float": -1.3, "complex": 0.5 + 0.7j}


def bits_of(x):
    """A payload's value with its bits: tells 0.0 from -0.0 and 1 from 1.0."""
    if isinstance(x, complex):
        return complex, struct.pack("<dd", x.real, x.imag)
    return (float, struct.pack("<d", x)) if isinstance(x, float) else (type(x), x)


@pytest.mark.parametrize("q", PARTIAL_QS.values(), ids=PARTIAL_QS)
def test_partial_sums_read_like_the_list_of_the_orbit_stream(q):
    # what orbit_partial_sums returned as a list: 0 q, then the orbit sums from omega's value
    v, l = 1000, 64
    want = [0 * q, *orbit_sums(v, q, l)]
    p = orbit_partial_sums(OdometerPoint.from_int(v), q, l)
    assert len(p) == l + 1 and p == want and want == p and list(p) == want
    assert [bits_of(p[j]) for j in range(l + 1)] == [bits_of(w) for w in want]
    assert [bits_of(x) for x in p] == [bits_of(w) for w in want]
    assert bits_of(p[-1]) == bits_of(p[l]) == bits_of(want[-1])
    assert bits_of(p[-(l + 1)]) == bits_of(want[0])
    for j in (l + 1, -(l + 2)):
        with pytest.raises(IndexError):
            p[j]
    # bit_length(1000 + 63) = 11: exact sums are numerators over 3^11
    assert p.den == (3 ** 11 if isinstance(q, Fraction) else None)
    assert p != want[:-1] and p != [*want[:-1], want[-1] + 1]


@pytest.mark.parametrize("q", PARTIAL_QS.values(), ids=PARTIAL_QS)
def test_phi_curve_on_a_slice_is_the_curve_of_the_shorter_orbit(q):
    # the slice keeps the longer orbit's den (3^11 at v + 63 = 1063), the
    # shorter orbit has its own (3^10 at v + 22 = 1022): the curves agree bit for bit
    v, l = 1000, 23
    partials = orbit_partial_sums(OdometerPoint.from_int(v), q, 64)
    short = orbit_partial_sums(OdometerPoint.from_int(v), q, l)
    if isinstance(q, Fraction):
        assert (partials.den, short.den) == (3 ** 11, 3 ** 10)
    grid = [Fraction(j, 16) for j in range(17)] + [Fraction(1, 3), Fraction(5, 7)]
    for norm, R in ((Normalization.MAX_ABS, None), (Normalization.EXPLICIT, Fraction(7, 5))):
        got = phi_curve(partials[: l + 1], l, grid, norm, R)
        want = phi_curve(short, l, grid, norm, R)
        assert bits_of(got.R.value) == bits_of(want.R.value)
        assert [bits_of(x.value) for x in got.values] == [bits_of(x.value) for x in want.values]
    if isinstance(q, Fraction):  # S(t l) - t S(l) by Fraction arithmetic, t = 5/7: 115/7 = 16 + 3/7
        s = [S_q_direct(v + j, q).value - S_q_direct(v, q).value for j in range(l + 1)]
        raw = s[16] + Fraction(3, 7) * (s[17] - s[16]) - Fraction(5, 7) * s[l]
        assert got.values[-1].value == raw / Fraction(7, 5)


def test_phi_curve_reads_a_list_of_exact_sums_like_partial_sums():
    # a plain list is read over the lcm of its denominators: Fractions at
    # q = 2/3, ints (the popcount sums) at q = 1; it used to raise AttributeError
    grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for q, kind in ((Fraction(2, 3), Fraction), (1, int)):
        partials = orbit_partial_sums(OdometerPoint.zero(), q, 8)
        sums = [kind(x) for x in partials]
        for norm, R in ((Normalization.MAX_ABS, None), (Normalization.EXPLICIT, Fraction(7, 5))):
            got, want = phi_curve(sums, 8, grid, norm, R), phi_curve(partials, 8, grid, norm, R)
            assert bits_of(got.R.value) == bits_of(want.R.value)
            assert [bits_of(x.value) for x in got.values] == [bits_of(x.value) for x in want.values]
            assert any(x.value for x in got.values)


@pytest.mark.parametrize(
    "sums, widest",
    [
        ([0, 0.5, 1.0, 1.5, 2.0], Mode.FLOAT),
        ([0, Fraction(1, 2), 1 + 0.5j, 1.5, Fraction(2)], Mode.COMPLEX),
        ([Fraction(0), 0.25, -0.0, 2, 1.5], Mode.FLOAT),
        ([0.0, 1, Fraction(1, 3), 2.0 - 1j, 3], Mode.COMPLEX),
    ],
)
def test_phi_curve_takes_the_widest_mode_of_a_plain_list(sums, widest):
    # the mode was read off S(0) alone: an int 0 first sent floats and
    # complex numbers down the exact path, which raised AttributeError
    lift = {Mode.FLOAT: float, Mode.COMPLEX: complex}[widest]
    grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for g in (grid, dyadic_grid(2)):
        for norm, R in ((Normalization.MAX_ABS, None), (Normalization.EXPLICIT, Fraction(7, 5))):
            got, want = phi_curve(sums, 4, g, norm, R), phi_curve([lift(x) for x in sums], 4, g, norm, R)
            assert {v.mode for v in got.values} == {widest} and got.payloads.den is None
            assert bits_of(got.R.value) == bits_of(want.R.value)
            assert [bits_of(x.value) for x in got.values] == [bits_of(x.value) for x in want.values]


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_ratios_read_like_the_tuple_of_their_payloads(m):
    # the points j/2^m over a range (dyadic_grid) and over a list: one Fraction per read
    size = 1 << m
    want = [Fraction(j, size) for j in range(size + 1)]
    grid, listed = dyadic_grid(m), Ratios(list(range(size + 1)), size)
    assert repr(grid) == f"Ratios(range(0, {size + 1}), {size})"
    for g in (grid, listed):
        assert len(g) == size + 1 and g.den == size
        assert list(g) == want and [type(t) for t in g] == [Fraction] * (size + 1)
        assert g == want and g == tuple(want) and want == g and tuple(want) == g and g == grid and listed == g
        assert g != dyadic_grid(m + 1) and g != want[:-1] and g != [*want[:-1], Fraction(2)]
        assert hash(g) == hash(tuple(want))
        assert g[0] == 0 and g[-1] == g[size] == 1 and g[-(size + 1)] == 0
        for j in range(-(size + 1), size + 1):
            assert g[j] == want[j] and type(g[j]) is Fraction
        for j in (size + 1, -(size + 2)):
            with pytest.raises(IndexError):
                g[j]
        for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, 5, 2), slice(7, 2)):
            part = g[sl]
            assert type(part) is Ratios and part.den == size and part == want[sl] and tuple(want[sl]) == part
        assert [g.index(t) for t in want] == list(range(size + 1))
    assert hash(prop2_exact(Fraction(2, 3), m + 1).curve)
    # Ratios.of: a Ratios as it is, ints and Fractions over their lcm, other payloads with den None
    assert Ratios.of(grid) is grid and Ratios.of(listed) is listed
    mixed = Ratios.of([1, Fraction(1, 6), Fraction(-3, 4 * size), 0])
    assert (mixed.numerators, mixed.den) == ([12 * size, 2 * size, -9, 0], 12 * size)
    assert mixed == [1, Fraction(1, 6), Fraction(-3, 4 * size), 0] and type(mixed[0]) is Fraction
    payloads = [0.5, -0.0, Fraction(1, 3), 1 + 2j, size]
    floats = Ratios.of(payloads)
    assert floats.den is None and floats == payloads and floats == tuple(payloads)
    assert [bits_of(x) for x in floats] == [bits_of(x) for x in payloads]
    assert type(floats[1:]) is Ratios and floats[1:].den is None and [bits_of(x) for x in floats[::-2]] == \
        [bits_of(x) for x in payloads[::-2]]
    with pytest.raises(DomainError):
        dyadic_grid(-1)


@pytest.mark.parametrize("q", PARTIAL_QS.values(), ids=PARTIAL_QS)
@pytest.mark.parametrize("m", [0, 1, 4, 6])
def test_phi_curve_on_a_dyadic_grid_is_the_list_curve(q, m):
    # dyadic_grid(m) is read on integers (exact sums) or as j / 2^m (float
    # and complex sums): every value and R as on the list of its Fractions
    grid = [Fraction(j, 1 << m) for j in range((1 << m) + 1)]
    for omega, l in ((OdometerPoint.zero(), 1 << (m + 1)), (OdometerPoint.from_int(1000), 77)):
        partials = orbit_partial_sums(omega, q, l)
        for norm, R in ((Normalization.MAX_ABS, None), (Normalization.EXPLICIT, Fraction(-7, 5)),
                        (Normalization.EXPLICIT, prop2_R(q, m + 1)), (Normalization.EXPLICIT, 0.5)):
            got = phi_curve(partials, l, dyadic_grid(m), norm, R)
            want = phi_curve(partials, l, grid, norm, R)
            assert type(got.grid) is Ratios and got.grid == want.grid == tuple(grid)
            assert (type(got.R.value), repr(got.R.value)) == (type(want.R.value), repr(want.R.value))
            assert [(type(v.value), repr(v.value)) for v in got.values] == \
                [(type(v.value), repr(v.value)) for v in want.values]
            if got.values[0].mode is Mode.EXACT:  # unreduced numerators over one positive denominator
                X, D = got.payloads.numerators, got.payloads.den
                assert D > 0 and [Fraction(x, D) for x in X] == [v.value for v in got.values]
            else:
                assert got.payloads.den is None


def ref_residual(curve, q):
    """max |phi(t) + q T_a(t)| by Fraction arithmetic, T_a from takagi_dyadic_exact at each point."""
    a = 1 / (2 * q)
    return max(abs(v.value + q * takagi_dyadic_exact(t, a).value) for t, v in zip(curve.grid, curve.values))


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-7, 6), Fraction(3), Fraction(8219, 8209)], ids=str)
def test_sup_distance_is_the_fraction_max_where_it_is_not_zero(q):
    # the integer max against a test-local one, on curves that miss -q T_a:
    # twice Proposition 2's R, a curve measured at another q', and max-abs
    # normalization, from omega = 0 and (not symmetric about 1/2) from 1000;
    # on the dyadic_grid of prop2_exact, on its list and on the odd points
    # j/2^{m+1}, a dyadic grid that is not whole
    seen = 0
    for N in range(1, 10):
        l, m = 1 << N, N - 1
        partials = orbit_partial_sums(OdometerPoint.zero(), q, l)
        shifted = orbit_partial_sums(OdometerPoint.from_int(1000), q, l)
        grid = [Fraction(j, 1 << m) for j in range((1 << m) + 1)]
        odd = [Fraction(j, 2 << m) for j in range(1, 2 << m, 2)]
        for g in (dyadic_grid(m), grid, odd):
            doubled = phi_curve(partials, l, g, Normalization.EXPLICIT, 2 * prop2_R(q, N).value)
            max_abs = phi_curve(partials, l, g, Normalization.MAX_ABS)
            exact_R = phi_curve(partials, l, g, Normalization.EXPLICIT, prop2_R(q, N))
            off = phi_curve(shifted, l, g, Normalization.MAX_ABS)
            for curve, at in ((doubled, q), (max_abs, q), (exact_R, Fraction(5, 6)), (exact_R, Fraction(-9, 8)),
                              (off, q)):
                got = sup_distance_to_limit(curve, at)
                assert curve.payloads.den is not None and got.mode is Mode.EXACT
                assert got.value == ref_residual(curve, at)
                seen += got.value != 0
    assert seen >= 60


def test_G_q_equals_F_at_dyadic_points():
    q = Fraction(2, 3)
    for n in range(1, 512):
        p = 1 << (n.bit_length() - 1)
        assert F_q(Fraction(n - p, p), q).value == G_q(n, q).value


def test_G_q_pinned_value():
    # G_{2/3}(3) = F_{2/3}(1/2) = 1/12
    assert G_q(3, Fraction(2, 3)).value == Fraction(1, 12)


def test_phi_curve_interpolation_and_normalization():
    q = Fraction(2, 3)
    partials = orbit_partial_sums(OdometerPoint.zero(), q, 8)
    grid = [Fraction(j, 4) for j in range(5)]
    c = phi_curve(partials, 8, grid, Normalization.MAX_ABS)
    assert max(abs(v.value) for v in c.values) == 1
    # explicit R = 1 returns raw differences, zero at the endpoints
    c_raw = phi_curve(partials, 8, grid, Normalization.EXPLICIT, Fraction(1))
    assert c_raw.values[0].value == 0
    assert c_raw.values[-1].value == 0
    with pytest.raises(DomainError):
        phi_curve(partials, 8, [], Normalization.MAX_ABS)
    with pytest.raises(DomainError):
        phi_curve(partials, 8, [Fraction(3, 2)], Normalization.MAX_ABS)


def test_phi_curve_takes_R_with_explicit_normalization_alone():
    partials = orbit_partial_sums(OdometerPoint.zero(), Fraction(2, 3), 8)
    grid = [Fraction(j, 4) for j in range(5)]
    # max-abs used to drop a given R silently and return its own, 20/27 here
    with pytest.raises(DomainError, match="max-abs normalization computes R and takes none"):
        phi_curve(partials, 8, grid, Normalization.MAX_ABS, Fraction(1000))
    with pytest.raises(DomainError, match="explicit normalization needs R"):
        phi_curve(partials, 8, grid, Normalization.EXPLICIT)
    assert phi_curve(partials, 8, grid, Normalization.MAX_ABS).R.value == Fraction(20, 27)


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-1), Fraction(3, 2)])
def test_prop2_residual_is_exactly_zero(q):
    for N in range(2, 9):
        res = prop2_exact(q, N)
        assert res.max_residual.value == 0
        # values really are -q T_a on the dyadic grid
        for t, v in zip(res.curve.grid, res.curve.values):
            target = takagi_dyadic_exact(t, Fraction(1, 2) / q).value
            assert v.value == -q * target


def test_prop2_pinned_value():
    res = prop2_exact(Fraction(2, 3), 2)
    mid = res.curve.grid.index(Fraction(1, 2))
    assert res.curve.values[mid].value == Fraction(-1, 3)  # -q/2


def test_curve_values_are_boxed_once_on_first_read():
    # a curve holds its payloads alone: prop2_exact and the sup distance read
    # them, and values boxes one Scalar per payload when first read, then keeps them
    curve = prop2_exact(Fraction(2, 3), 12).curve
    assert "values" not in curve.__dict__
    sup_distance_to_limit(curve, Fraction(2, 3))
    assert "values" not in curve.__dict__
    assert curve.values is curve.values and "values" in curve.__dict__
    assert curve.values == tuple(Scalar(x) for x in curve.payloads)
    assert curve.payloads.den > 0 and len(curve.values) == 2049


@pytest.mark.parametrize("q", [0.7, Fraction(2, 3)], ids=str)
def test_phi_curve_raises_a_float_overflow_where_it_is_built(q):
    # R = 5e-324 takes the curve's values past the float range; phi_curve
    # checks its float payloads itself, so the error comes before any read
    partials = orbit_partial_sums(OdometerPoint.zero(), q, 16)
    with pytest.raises(DomainError) as err:
        phi_curve(partials, 16, dyadic_grid(3), Normalization.EXPLICIT, 5e-324)
    assert str(err.value) == "a float overflowed: the result is -inf, not a finite number"


@pytest.mark.parametrize("q", [0.7, 0.3 + 0.8j], ids=str)
@pytest.mark.parametrize("R, message", [
    (Fraction(1, 10**400), "normalizer R must be non-zero (given, or underflowed to 0)"),
    (Fraction(10**400), "an exact value is beyond the float range"),
], ids=["float-0", "past-float-range"])
def test_phi_curve_refuses_an_exact_R_with_no_float_to_divide_float_sums_by(q, R, message):
    # float and complex sums are divided by float(R): 0.0 and out of range
    # were an uncaught ZeroDivisionError and OverflowError
    partials = orbit_partial_sums(OdometerPoint.zero(), q, 16)
    with pytest.raises(DomainError) as err:
        phi_curve(partials, 16, dyadic_grid(2), Normalization.EXPLICIT, R)
    assert str(err.value) == message


@pytest.mark.parametrize("q", [0.7, 0.3 + 0.8j], ids=str)
def test_sup_distance_raises_a_domain_error_on_exact_values_past_the_float_range(q):
    # an exact curve read against -q T_a at a float or complex q: float(x) overflowed bare
    curve = phi_curve(orbit_partial_sums(OdometerPoint.zero(), Fraction(2, 3), 8), 8, dyadic_grid(1),
                      Normalization.EXPLICIT, Fraction(1, 10**400))
    assert curve.payloads.den is not None
    with pytest.raises(DomainError) as err:
        sup_distance_to_limit(curve, q)
    assert str(err.value) == "an exact value is beyond the float range"


def test_prop2_domain():
    with pytest.raises(DomainError):
        prop2_exact(Fraction(1, 3), 4)
    with pytest.raises(DomainError):
        prop2_exact(Fraction(2, 3), 0)


def test_prop2_complex_panel():
    for q in (1j, 0.5 + 0.5j, 0.5 - 0.5j):
        for N in range(2, 7):
            assert prop2_exact(q, N).max_residual.value <= 1e-9


def test_sup_distance_matches_prop2():
    q = Fraction(2, 3)
    res = prop2_exact(q, 6)
    assert sup_distance_to_limit(res.curve, q).value == 0


def test_birkhoff_deviation_scaling():
    q = Fraction(2, 3)
    omega = OdometerPoint.zero()
    d10 = abs(float(birkhoff_deviation(omega, q, 1 << 10).value))
    d14 = abs(float(birkhoff_deviation(omega, q, 1 << 14).value))
    assert d14 < d10
    with pytest.raises(DomainError):
        birkhoff_deviation(omega, Fraction(3, 2), 100)


def test_stabilizer_search_prefers_power_of_two_from_zero():
    report = stabilizer_search(
        OdometerPoint.zero(),
        Fraction(2, 3),
        [48, 64, 100, 256],
        [Fraction(j, 8) for j in range(9)],
    )
    assert report.best_l in (64, 256)
    assert report.best_distance <= min(d for _, d in report.entries)
    with pytest.raises(DomainError):
        stabilizer_search(OdometerPoint.zero(), Fraction(1, 3), [8], [Fraction(1, 2)])


@pytest.mark.parametrize("q", [1e-170, -1e-170, 1e-170j])
def test_G_q_underflowed_denominator_is_a_domain_error(q):
    # p q^k = 4e-340 is 0 in float: the division is refused, not raised raw;
    # at n = 2 the denominator 2q is still a float
    assert G_q(2, q).value == 0
    with pytest.raises(DomainError, match="underflows"):
        G_q(5, q)


@pytest.mark.parametrize("q", [1e300, -1e300, 1e300 + 1j])
def test_float_powers_out_of_range_are_domain_errors(q):
    # library callers get DomainError, never a raw OverflowError
    with pytest.raises(DomainError):
        G_q(8, q)
    with pytest.raises(DomainError):
        prop2_R(q, 10)
