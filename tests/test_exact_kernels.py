"""The integer-numerator kernels against plain payload reference loops.

Exact q = a/b (and a = p/r) run the kernels on Python ints over a common
denominator.  The references below are the straightforward loops on
``Fraction`` / float / complex payloads: exact results must be equal
``Fraction``s, float and complex results bit-identical.  ``ergodic_sum``
rounds other terms than the orbit stream does, so its float and complex
results are checked against the exact value at the same q instead, within
the bound its docstring derives.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdq import scalar
from tdq.digit_sums import S_pow2_payload, S_q_counts, S_q_direct, S_rec_payload, geometric_num, iter_S_direct
from tdq.errors import DomainError
from tdq.odometer import (
    Normalization,
    OdometerPoint,
    birkhoff_deviation,
    ergodic_sum,
    iter_ergodic_sums,
    odometer_step,
    orbit_partial_sums,
    phi_curve,
    prop2_exact,
    stabilizer_search,
    sup_distance_to_limit,
)
from tdq.scalar import Mode, Scalar, as_dyadic_fraction, as_qweight, as_scalar, tau_scaled
from tdq.takagi import (
    DeRhamSystem,
    F_q,
    derham_eval,
    fq_system,
    takagi_dyadic_exact,
    takagi_grid,
    takagi_series,
    takagi_system,
)
from tdq.trollope import classic_formula, dyadic_formula, theorem1_rhs, vdc_star_discrepancy

# -- references ----------------------------------------------------------------


def ref_sq(n, q):
    total, w = 0 * q, q
    while n:
        if n & 1:
            total = total + w
        n >>= 1
        if n:
            w = w * q
    return total


def ref_point_sq(j, q):
    """s_q(j) summed in the orbit stream's order: the bits at and above bit 8,
    then the low byte, each from its digits."""
    return ref_sq(j & ~255, q) + ref_sq(j & 255, q)


def ref_iter_S(n_max, q):
    total = 0 * q
    for n in range(1, n_max + 1):
        if n > 1:
            total = total + ref_point_sq(n - 1, q)
        yield n, total


def ref_S_pow2(k, q):
    if not k:
        return 0 * q
    if q == 1:
        return (0 * q) + k * (1 << (k - 1))
    return q * (1 - q ** k) / (1 - q) * (1 << (k - 1))


def ref_S_rec(n, q):
    if n == 1:
        return 0 * q
    if n & (n - 1) == 0:
        return ref_S_pow2(n.bit_length() - 1, q)
    if n & 1 == 0:
        return 2 * q * ref_S_rec(n >> 1, q) + (n >> 1) * q
    k = n.bit_length() - 1
    m = n - (1 << k)
    return ref_S_pow2(k, q) + ref_S_rec(m, q) + m * q ** (k + 1)


def ref_tau(y: Fraction) -> Fraction:
    f = y - math.floor(y)
    return min(f, 1 - f)


def ref_takagi_dyadic(x: Fraction, a):
    exact = isinstance(a, Fraction)
    acc, w = (0 * a if exact else type(a)(0)), a ** 0  # +0, never 0 * a = -0.0 at a negative a
    y = x - math.floor(x)
    while y != 0:
        t = ref_tau(y)
        acc = acc + w * (t if exact else float(t))
        y = 2 * y
        if y >= 1:
            y -= 1
        w = w * a
    return acc


def ref_dyadic_formula(n, q):
    exact = isinstance(q, Fraction)
    k = n.bit_length() - 1
    total = 0 * q
    for i in range(1, k + 2):
        t = ref_tau(Fraction(n, 1 << i))
        if t:
            total = total + (2 * q) ** i * (t if exact else float(t))
    return q / 2 * (1 - q ** (k + 1)) / (1 - q) - total / (2 * n)


def ref_theorem1_rhs(n, q):
    exact = isinstance(q, Fraction)
    k = n.bit_length() - 1
    t = ref_takagi_dyadic(Fraction(n, 1 << (k + 1)), 1 / (2 * q))
    scale = Fraction(1 << (k + 1), n)
    hat_f = (scale if exact else float(scale)) * t
    return q / 2 * ((1 - q ** (k + 1)) / (1 - q) - q ** k * hat_f)


def ref_vdc(n):
    total = Fraction(1)
    for j in range(1, n.bit_length()):
        total += ref_tau(Fraction(n, 1 << j))
    return total / n


def finite(v):
    """v, or DomainError where a float or complex step overflowed: the check
    a ``Scalar`` makes on every payload it boxes."""
    if not isinstance(v, Fraction) and not cmath.isfinite(v):
        raise DomainError(f"a float overflowed: {v}")
    return v


def ref_payload_systems(kind, p):
    """(mode, a0, a1, g0, g1, g_sup) of the Takagi, F_q or Lebesgue system on
    payloads of the mode; ints and Fractions are lifted into it by ``Scalar.lift``."""
    if kind == "fq":
        qw = as_qweight(p)
        q, mode = qw.q.value, qw.q.mode
        two, three, one, quarter = (Scalar.lift(v, mode).value for v in (2, 3, 1, Fraction(1, 4)))
        c0 = finite(finite(finite(q * two) - three) * quarter)
        c1 = finite(finite(finite(q * two) - one) * quarter)
        g_sup = max(float(abs(c0)), 2 * float(abs(c1)))
        a = qw.a.value
        return mode, a, a, (lambda x: finite(c0 * x)), (lambda x: finite(c1 * finite(x + one))), g_sup
    a = as_scalar(p)
    half, one, zero = (Scalar.lift(v, a.mode).value for v in (Fraction(1, 2), 1, 0))
    if kind == "takagi":
        g0, g1 = (lambda x: finite(x * half)), (lambda x: finite(finite(one - x) * half))
        return a.mode, a.value, a.value, g0, g1, 0.5
    # Lebesgue: a0 = p, a1 = 1 - p, g0 = 0, g1 = p; in complex mode 1 * p
    # sets the sign of a zero part as the system's affine map (0 x + 1) p does
    g1 = finite(one * a.value)
    return a.mode, a.value, finite(one - a.value), (lambda x: zero), (lambda x: g1), float(abs(a.value))


def lebesgue_system(p) -> DeRhamSystem:
    return DeRhamSystem(a0=as_scalar(p), a1=as_scalar(1 - p), g0=(0, 0, 0), g1=(0, 1, p))


def ref_derham(mode, a0, a1, g0, g1, g_sup, x, depth):
    """Digit descent on payloads, checking the system on every call and each
    step for overflow."""
    one, zero = (Scalar.lift(v, mode).value for v in (1, 0))
    d0, d1 = finite(one - a0), finite(one - a1)
    r = abs(finite(finite(
        finite(finite(finite(a0 * g1(one)) / d1) + g0(one))
        - finite(finite(a1 * g0(zero)) / d0)
    ) - g1(zero)))
    if (mode is Mode.EXACT and r != 0) or (mode is not Mode.EXACT and r > 1e-9):
        raise DomainError("inconsistent")
    f0, f1 = finite(g0(zero) / d0), finite(g1(one) / d1)
    exact = mode is Mode.EXACT
    y = x if isinstance(x, Fraction) else float(x)
    path = []
    while y not in (0, 1) and (isinstance(x, Fraction) or len(path) < depth):
        if y <= Fraction(1, 2):
            y = 2 * y
            path.append((a0, g0, y))
        else:
            y = 2 * y - 1
            path.append((a1, g1, y))
    bound = 0.0
    if y == 0:
        v = f0
    elif y == 1:
        v = f1
    else:
        rho = float(max(abs(a0), abs(a1)))
        if rho >= 1:
            raise DomainError("non-contractive")
        bound = rho ** len(path) * g_sup / (1.0 - rho)
        v = zero
    for a, g, arg in reversed(path):
        v = finite(finite(a * v) + g(Scalar.lift(arg if exact else float(arg), mode).value))
    return v, bound


def bits_value(bits):
    return sum(b << i for i, b in enumerate(bits))


def ref_walk(bits, q, steps):
    """(s_q at the first steps + 1 points of the orbit, the bits of the last
    point); a carry past the top bit appends a bit.

    A bit-list add-with-carry.  For exact q it keeps s_q up to date: powers
    q^{i+1} by repeated multiplication, prefix sums q + ... + q^{i+1}, and a
    step that clears j trailing ones gives s - (q + ... + q^j) + q^{j+1}.
    Float and complex s_q is summed afresh at each point the walk reaches,
    in the orbit stream's order (``ref_point_sq``): the carry step rounds.
    """
    bits = list(bits)
    powers, prefix = [q], [q]
    exact = not isinstance(q, (float, complex))

    def power(i):
        while len(powers) <= i:
            p = powers[-1] * q
            powers.append(p)
            prefix.append(prefix[-1] + p)
        return powers[i]

    s = 0 * q
    for i, b in enumerate(bits):
        if b:
            s = s + power(i)
    out = [s if exact else ref_point_sq(bits_value(bits), q)]
    for _ in range(steps):
        j = 0
        while j < len(bits) and bits[j] == 1:
            bits[j] = 0
            j += 1
        if j < len(bits):
            bits[j] = 1
        else:
            bits.append(1)
        p = power(j)
        s = s - prefix[j - 1] + p if j else s + p
        out.append(s if exact else ref_point_sq(bits_value(bits), q))
    return out, bits


def ref_partial_sums(walk, q):
    """P[0] = 0, P[j + 1] = P[j] + s_q at point j; the last point is not summed."""
    out = [0 * q]
    for s in walk[:-1]:
        out.append(out[-1] + s)
    return out


def ref_ergodic(walk):
    total = walk[0]
    for s in walk[1:]:
        total = total + s
    return total


@dataclass(frozen=True)
class Gaussian:
    """re + im i with Fraction parts: a complex float q as an exact number."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(z: complex) -> "Gaussian":
        return Gaussian(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        return Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return Gaussian(other * self.re, other * self.im)
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__


def ref_window_sum(v, n, q):
    """s_q(v) + s_q(v + 1) + ... + s_q(v + n - 1): the set bits of the points
    tallied one by one, tally i weighted by q^{i+1}."""
    tally = [0] * (v + n).bit_length()
    for j in range(v, v + n):
        for i in range(j.bit_length()):
            tally[i] += j >> i & 1
    total, w = 0 * q, q
    for c in tally:
        total = total + c * w
        w = w * q
    return total


def ref_limit_target(t, a):
    """T_a at a grid point: exact at a dyadic t, the certified series at t as given otherwise."""
    if as_dyadic_fraction(t if isinstance(t, (Fraction, int)) else as_scalar(t)) is not None:
        return takagi_dyadic_exact(t, a).value
    return takagi_series(t, a).value


def ref_prop2_residual(curve, q):
    """max |phi + q T_a| over the dyadic grid of Proposition 2, folded from 0."""
    qw = as_qweight(q)
    worst = Fraction(0) if qw.q.mode is Mode.EXACT else 0.0
    for t, v in zip(curve.grid, curve.values):
        worst = max(worst, abs(v.value + qw.q.value * takagi_dyadic_exact(t, qw.a).value))
    return Scalar.lift(worst, Mode.EXACT if qw.q.mode is Mode.EXACT else Mode.FLOAT)


def ref_sup_distance(curve, q):
    qw = as_qweight(q)
    worst = None
    for t, v in zip(curve.grid, curve.values):
        d = abs(v.value + qw.q.value * ref_limit_target(t, qw.a))
        worst = d if worst is None else max(worst, d)
    return Scalar.lift(worst, Mode.EXACT if isinstance(worst, Fraction) else Mode.FLOAT)


def ref_stabilizer_entries(omega, q, windows, grid):
    """(l, sup |phi_l / max|phi_l| - target|) with target = -q T_a / max|q T_a|."""
    qw = as_qweight(q)
    targets = [-qw.q.value * ref_limit_target(t, qw.a) for t in grid]
    t_norm = max(abs(v) for v in targets)
    targets = [v / (t_norm if t_norm != 0 else 1) for v in targets]
    partials = orbit_partial_sums(omega, qw, max(windows))
    entries = []
    for l in sorted(set(windows)):
        curve = phi_curve(partials[: l + 1], l, grid, Normalization.MAX_ABS)
        entries.append((l, float(max(abs(v.value - tv) for v, tv in zip(curve.values, targets)))))
    return entries


def ref_max_abs_R(sums, l, grid):
    """The MAX_ABS normaliser R of phi_curve: max |S(t l) - t S(l)|, 1 when that is 0."""
    exact, cplx = isinstance(sums[0], Fraction), isinstance(sums[0], complex)
    raw = []
    for t in grid:
        tq = t if exact else float(t)
        i = math.floor(tq * l)
        frac = tq * l - i
        lo = sums[i] if frac == 0 else sums[i] + frac * (sums[i + 1] - sums[i])
        raw.append(lo - tq * sums[l])
    m = max(abs(v) for v in raw)
    r = m if m != 0 else (1 if exact else 1.0)
    return Scalar.lift(r, Mode.EXACT if exact and not isinstance(r, float) else Mode.FLOAT)


# -- the per-level sawtooth loops --------------------------------------------------
# The kernels read every level of the sawtooth from one ``tau_profile`` pass.
# These are the loops they replaced, one ``tau_scaled`` call per level, kept
# verbatim on payloads: exact results must be equal, float and complex ones
# bit-identical.


def per_level_takagi_dyadic(x: Fraction, a):
    y = x - math.floor(x)
    m, size = y.numerator, y.denominator
    e = size.bit_length() - 1
    if isinstance(a, Fraction):
        p, r = a.numerator, a.denominator
        acc = 0
        pj = 1
        for j in range(e):
            acc = acc * r + pj * tau_scaled(m << j, e)
            pj *= p
        return Fraction(acc, r ** (e - 1) << e) if e else Fraction(0)
    acc = type(a)(0)  # +0, never 0 * a = -0.0 at a negative a
    w = a ** 0
    for j in range(e):
        acc = acc + w * (tau_scaled(m << j, e) / size)
        w = w * a
    return acc


def per_level_dyadic_formula(n, q):
    k = n.bit_length() - 1
    if isinstance(q, Fraction):
        a, b = q.numerator, q.denominator
        acc = 0
        ai = 1
        for i in range(1, k + 2):
            ai *= a
            acc = acc * b + ai * tau_scaled(n, i)
        return Fraction(a * geometric_num(k + 1, a, b) * n - acc, 2 * n * b ** (k + 1))
    total = 0 * q
    for i in range(1, k + 2):
        t = tau_scaled(n, i)
        if t:
            total = total + (2 * q) ** i * (t / (1 << i))
    return q / 2 * (1 - q ** (k + 1)) / (1 - q) - total / (2 * n)


def per_level_theorem1_rhs(n, q: Fraction):
    k = n.bit_length() - 1
    t = per_level_takagi_dyadic(Fraction(n, 1 << (k + 1)), 1 / (2 * q))
    a, b = q.numerator, q.denominator
    tn, td = t.numerator, t.denominator
    num = a * (geometric_num(k + 1, a, b) * n * td - (a ** k * tn << (k + 1)))
    return Fraction(num, 2 * b ** (k + 1) * n * td)


def per_level_classic_formula(n):
    k = n.bit_length() - 1
    tk_scaled = sum(tau_scaled(n, i) for i in range(1, k + 2))
    lg = math.log2(n)
    return 0.5 * lg + 0.5 * (1.0 - (lg - k) - tk_scaled / n)


def per_level_vdc(n):
    k = n.bit_length() - 1
    total = 1 << k
    for j in range(1, k + 1):
        total += tau_scaled(n, j) << (k - j)
    return Fraction(total, n << k)


# -- draws -----------------------------------------------------------------------

SIGNS = st.sampled_from((1, -1))
RATIONALS = st.builds(lambda s, p, r: s * Fraction(p, r), SIGNS, st.integers(1, 12), st.integers(1, 12))
Q_CLASSES = {
    "small": RATIONALS.filter(lambda q: abs(q) < Fraction(1, 2)),
    "half": st.builds(lambda s: s * Fraction(1, 2), SIGNS),
    "large": RATIONALS.filter(lambda q: abs(q) > Fraction(1, 2) and q.denominator > 1),
    "integer": st.builds(lambda s, p: Fraction(s * p), SIGNS, st.integers(1, 5)).filter(lambda q: q != 1),
    "one": st.just(Fraction(1)),
}
FLOATS = st.floats(-3, 3, allow_nan=False).filter(lambda v: v != 0)
COMPLEXES = st.complex_numbers(min_magnitude=0.05, max_magnitude=3, allow_nan=False, allow_infinity=False)
# |q| > 1/2 and q != 1, the range of Theorem 1
CONTRACTIVE = {
    "float": FLOATS.filter(lambda v: abs(v) > 0.5 and v != 1),
    "complex": COMPLEXES.filter(lambda v: abs(v) > 0.5 and v != 1),
}


def by_bit_length(top):
    """n >= 1 of every bit length up to top, each length as likely (a plain
    integers(1, 2^top) draws mostly small n)."""
    return st.integers(1, top).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def same_bits(x, y) -> bool:
    """Bit-identical floats / complexes (tells 0.0 from -0.0)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex()) == (y.real.hex(), y.imag.hex())
    return x.hex() == y.hex()


def assert_exact(got, want):
    assert type(got) is Fraction
    assert got == want


def assert_same_scalar(got, want):
    """Equal modes, and equal Fractions or bit-identical floats / complexes."""
    assert got.mode is want.mode
    if isinstance(want.value, Fraction):
        assert_exact(got.value, want.value)
    else:
        assert same_bits(got.value, want.value)


# -- S_q routes --------------------------------------------------------------------


@pytest.mark.parametrize("cls", sorted(Q_CLASSES))
@settings(deadline=None, max_examples=25)
@given(data=st.data(), n=st.integers(1, 700), k=st.integers(0, 14))
def test_S_routes_exact(cls, data, n, k):
    q = data.draw(Q_CLASSES[cls], label="q")
    assert_exact(S_rec_payload(n, q), ref_S_rec(n, q))
    assert_exact(S_pow2_payload(k, q), ref_S_pow2(k, q))
    got = list(iter_S_direct(n, q))
    assert [m for m, _ in got] == list(range(1, n + 1))
    for (_, s), (_, want) in zip(got, ref_iter_S(n, q)):
        assert_exact(s, want)


def test_S_rec_exact_descends_without_recursion():
    # 1500 odd steps: a Python recursion per level would pass the interpreter's limit
    n = (1 << 1500) - 1
    assert_exact(S_rec_payload(n, Fraction(2, 3)), S_q_counts(n, Fraction(2, 3)).value)


def test_S_rec_exact_every_n_to_2_12():
    # the q alternate at every n, so each call reads another q's power table
    # than the call before; at q = 1 S_q(2^k) is the limit k 2^{k-1}
    qs = [Fraction(1), Fraction(-3), Fraction(2, 3), Fraction(-2, 7), Fraction(1, 2), Fraction(7, 2)]
    for n in range(1, (1 << 12) + 1):
        for q in qs:
            assert_exact(S_rec_payload(n, q), ref_S_rec(n, q))


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=25)
# past n = 768 a point has two high bits, whose order the sum of s_q shows
@given(data=st.data(), n=st.integers(1, 2048), k=st.integers(0, 14))
def test_S_routes_float_complex_bit_identical(draw, data, n, k):
    q = data.draw(draw, label="q")
    assert same_bits(S_rec_payload(n, q), ref_S_rec(n, q))
    assert same_bits(S_pow2_payload(k, q), ref_S_pow2(k, q))
    got = list(iter_S_direct(n, q))
    assert [m for m, _ in got] == list(range(1, n + 1))
    assert all(same_bits(s, want) for (_, s), (_, want) in zip(got, ref_iter_S(n, q)))


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=25)
@given(data=st.data(), m=st.integers(1, 2048), n=st.integers(1, 2048))
def test_iter_S_direct_is_the_orbit_from_zero(draw, data, m, n):
    # one stream for every mode: the direct route is the orbit sums from 0,
    # and a shorter run is a bitwise prefix of a longer one
    q = data.draw(draw, label="q")
    m, n = sorted((m, n))
    got = [s for _, s in iter_S_direct(n, q)]
    orbit = orbit_partial_sums(OdometerPoint.zero(), q, n)[1:]
    assert len(got) == len(orbit) == n
    assert all(same_bits(g, w) for g, w in zip(got, orbit))
    assert all(same_bits(g, w) for (_, g), w in zip(iter_S_direct(m, q), got))


@pytest.mark.parametrize("cls", ["small", "half", "large", "integer", "one"])
@settings(deadline=None, max_examples=25)
@given(data=st.data(), n=st.integers(1, (1 << 10) - 1))
def test_S_q_counts_is_S_q_direct(cls, data, n):
    q = data.draw(Q_CLASSES[cls], label="q")
    got, want = S_q_counts(n, q), S_q_direct(n, q)
    assert got.mode is want.mode is Mode.EXACT
    assert_exact(got.value, want.value)


# -- T_a at dyadics ------------------------------------------------------------------

DYADICS = st.builds(lambda j, e: Fraction(j, 1 << e), st.integers(-3000, 3000), st.integers(0, 40))


@pytest.mark.parametrize("cls", sorted(Q_CLASSES))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), x=DYADICS)
def test_takagi_dyadic_exact(cls, data, x):
    a = data.draw(Q_CLASSES[cls], label="a")
    assert_exact(takagi_dyadic_exact(x, a).value, ref_takagi_dyadic(x, a))
    assert_exact(takagi_dyadic_exact(x, Fraction(0)).value, ref_takagi_dyadic(x, Fraction(0)))


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=60)
@given(data=st.data(), x=DYADICS)
def test_takagi_dyadic_float_complex_bit_identical(draw, data, x):
    a = data.draw(draw, label="a")
    assert same_bits(takagi_dyadic_exact(x, a).value, ref_takagi_dyadic(x, a))


def assert_grid_is_pointwise(a, m):
    got = takagi_grid(a, m)
    assert len(got) == (1 << m) + 1
    for j, v in enumerate(got):
        assert_same_scalar(v, takagi_dyadic_exact(Fraction(j, 1 << m), a))


GRID_AS = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-4),
    Fraction(-2, 3), Fraction(-7, 5), Fraction(5, 7), Fraction(3, 4),
    0.0, -0.5, 0.7, -2.0, 1j, 0.5 + 0.5j, -0.3 - 0.9j,
]


@pytest.mark.parametrize("a", GRID_AS, ids=repr)
def test_takagi_grid_is_takagi_dyadic_exact(a):
    for m in range(11):
        assert_grid_is_pointwise(a, m)


@pytest.mark.parametrize("draw", [*(Q_CLASSES[c] for c in sorted(Q_CLASSES)), FLOATS, COMPLEXES],
                         ids=[*sorted(Q_CLASSES), "float", "complex"])
@settings(deadline=None, max_examples=10)
@given(data=st.data(), m=st.integers(0, 10))
def test_takagi_grid_drawn(draw, data, m):
    assert_grid_is_pointwise(data.draw(draw, label="a"), m)


def test_takagi_grid_domain():
    with pytest.raises(DomainError):
        takagi_grid(Fraction(1, 2), -1)


# -- Theorem 1, the all-q dyadic formula, van der Corput ------------------------------


@pytest.mark.parametrize("cls", sorted(set(Q_CLASSES) - {"one"}))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), n=st.integers(1, 1 << 16))
def test_dyadic_formula_and_theorem1_exact(cls, data, n):
    q = data.draw(Q_CLASSES[cls], label="q")
    assert_exact(dyadic_formula(n, q).value, ref_dyadic_formula(n, q))
    if abs(q) > Fraction(1, 2):
        assert_exact(theorem1_rhs(n, q).value, ref_theorem1_rhs(n, q))


def test_theorem1_exact_every_n_to_2_12():
    # q = 5/4 has an even b, so a = 1/(2q) = 4/10 is 2/5 only after reduction
    qs = [Fraction(2, 3), Fraction(-7, 4), Fraction(4), Fraction(5, 4)]
    for n in range(1, (1 << 12) + 1):
        for q in qs:
            assert_exact(theorem1_rhs(n, q).value, ref_theorem1_rhs(n, q))


@pytest.mark.parametrize("kind", ["float", "complex"])
@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(1, 1 << 16))
def test_dyadic_formula_and_theorem1_float_complex_bit_identical(kind, data, n):
    q = data.draw(CONTRACTIVE[kind], label="q")
    assert same_bits(dyadic_formula(n, q).value, ref_dyadic_formula(n, q))
    assert same_bits(theorem1_rhs(n, q).value, ref_theorem1_rhs(n, q))
    small = data.draw((FLOATS if kind == "float" else COMPLEXES).filter(lambda v: v != 1), label="any q")
    assert same_bits(dyadic_formula(n, small).value, ref_dyadic_formula(n, small))


# q values no other test draws: a sweep reads what its first call, at a
# large n, left in any per-q cache, so that call comes first
WARM_QS = {"float": -0.6180339887498949, "complex": complex(0.61, -0.83), "exact": Fraction(-13, 11)}


@pytest.mark.parametrize("kind", sorted(WARM_QS))
def test_dyadic_formula_and_theorem1_on_a_warm_cache(kind):
    q = WARM_QS[kind]
    for n in [(1 << 40) + 1, *range(1, (1 << 12) + 1)]:
        for formula, ref in ((theorem1_rhs, ref_theorem1_rhs), (dyadic_formula, ref_dyadic_formula)):
            got, want = formula(n, q).value, ref(n, q)
            if kind == "exact":
                assert_exact(got, want)
            else:
                assert same_bits(got, want), (formula.__name__, n)


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["plus-zero-first", "minus-zero-first"])
def test_signed_zero_q_keep_tables_of_their_own(first):
    # 2+0j and 2-0j (and 0.0 and -0.0) are equal dict keys; each keeps its own
    # boxed q and power tables whichever is used first, so the cache starts empty
    scalar._qweight.cache_clear()
    for q in (complex(2, first), complex(2, -first)):
        for n in range(1, 300):
            assert same_bits(theorem1_rhs(n, q).value, ref_theorem1_rhs(n, q)), (q, n)
            assert same_bits(dyadic_formula(n, q).value, ref_dyadic_formula(n, q)), (q, n)
    for q in (first, -first, complex(first, first), complex(-first, -first)):
        for n in range(1, 300):
            assert same_bits(dyadic_formula(n, q).value, ref_dyadic_formula(n, q)), (q, n)
    # Theorem 1's values at the two q differ in the sign of a zero
    assert not same_bits(theorem1_rhs(5, 2 + 0j).value, theorem1_rhs(5, complex(2, -0.0)).value)


@settings(deadline=None, max_examples=200)
@given(n=st.one_of(by_bit_length(40), st.just(1 << 40)))
def test_vdc_star_discrepancy(n):
    assert_exact(vdc_star_discrepancy(n).value, ref_vdc(n))


# n of every bit length up to 70; past 2^53 the scaled sawtooth no longer fits
# a float, so t / 2^e rounds
WIDE_N = by_bit_length(70)
WIDE_DYADICS = st.builds(lambda s, n, e: s * Fraction(n, 1 << e), SIGNS, WIDE_N, st.integers(0, 72))


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=150)
@given(data=st.data(), x=WIDE_DYADICS)
def test_takagi_dyadic_float_complex_is_the_per_level_loop(draw, data, x):
    a = data.draw(draw, label="a")
    assert same_bits(takagi_dyadic_exact(x, a).value, per_level_takagi_dyadic(x, a))


@pytest.mark.parametrize("cls", sorted(Q_CLASSES))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), x=WIDE_DYADICS)
def test_takagi_dyadic_exact_is_the_per_level_loop(cls, data, x):
    a = data.draw(Q_CLASSES[cls], label="a")
    assert_exact(takagi_dyadic_exact(x, a).value, per_level_takagi_dyadic(x, a))


@pytest.mark.parametrize("kind", ["float", "complex"])
@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=WIDE_N)
def test_dyadic_formula_float_complex_is_the_per_level_loop(kind, data, n):
    q = data.draw((FLOATS if kind == "float" else COMPLEXES).filter(lambda v: v != 1), label="q")
    assert same_bits(dyadic_formula(n, q).value, per_level_dyadic_formula(n, q))


@pytest.mark.parametrize("cls", sorted(set(Q_CLASSES) - {"one"}))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), n=WIDE_N)
def test_exact_identities_are_the_per_level_loops(cls, data, n):
    q = data.draw(Q_CLASSES[cls], label="q")
    assert_exact(dyadic_formula(n, q).value, per_level_dyadic_formula(n, q))
    if abs(q) > Fraction(1, 2):
        assert_exact(theorem1_rhs(n, q).value, per_level_theorem1_rhs(n, q))
    assert_exact(vdc_star_discrepancy(n).value, per_level_vdc(n))


def test_classic_formula_is_the_per_level_loop():
    for start in (1, (1 << 40) - 2000, (1 << 62) - 2000):
        for n in range(start, start + 4000):
            assert classic_formula(n).value.hex() == per_level_classic_formula(n).hex()


# -- de Rham digit descent ---------------------------------------------------------

UNIT_DYADICS = st.integers(0, 14).flatmap(
    lambda e: st.builds(lambda j: Fraction(j, 1 << e), st.integers(0, 1 << e))
)


@pytest.mark.parametrize("cls", sorted(set(Q_CLASSES) - {"one"}))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), x=UNIT_DYADICS)
def test_derham_exact_descent(cls, data, x):
    # any exact a != 1, |a| >= 1 and negative a included: dyadics pin the value
    a = data.draw(Q_CLASSES[cls], label="a")
    got = derham_eval(takagi_system(a), x)
    assert got.error_bound == 0.0
    assert_exact(got.value.value, takagi_dyadic_exact(x, a).value)
    assert got.value.value == ref_takagi_dyadic(x, a)
    assert got.value.value == ref_derham(*ref_payload_systems("takagi", a), x, 64)[0]


@pytest.mark.parametrize("cls", sorted(set(Q_CLASSES) - {"half"}))
@settings(deadline=None, max_examples=30)
@given(data=st.data(), x=UNIT_DYADICS)
def test_fq_system_descent_is_F_q(cls, data, x):
    q = data.draw(Q_CLASSES[cls], label="q")  # q != 1/2 keeps a = 1/(2q) != 1
    got = derham_eval(fq_system(q), x)
    assert_exact(got.value.value, F_q(x, q).value)


DEEP_DYADICS = st.integers(15, 64).flatmap(
    lambda e: st.builds(lambda j: Fraction(2 * j + 1, 1 << e), st.integers(0, (1 << (e - 1)) - 1))
)


@pytest.mark.parametrize("cls", sorted(set(Q_CLASSES) - {"one"}))
@settings(deadline=None, max_examples=25)
@given(data=st.data(), x=DEEP_DYADICS)
def test_derham_exact_descent_deep(cls, data, x):
    # odd numerators over 2^15 .. 2^64: every level of the descent is taken
    a = data.draw(Q_CLASSES[cls], label="a")
    got = derham_eval(takagi_system(a), x)
    assert got.error_bound == 0.0
    assert_exact(got.value.value, ref_derham(*ref_payload_systems("takagi", a), x, 64)[0])


def lebesgue_digit_product(p, j, e):
    """Lebesgue's singular function at j/2^e, x = 0.d_1 d_2 ... d_e in binary:
    sum over d_k = 1 of p prod_{i<k} w(d_i), w(0) = p, w(1) = 1 - p, on the
    integers n = p r and r over r^e; L(1) = 1."""
    if j == 1 << e:
        return Fraction(1)
    n, r = p.numerator, p.denominator
    acc, prod = 0, 1
    for k in range(1, e + 1):
        d = (j >> (e - k)) & 1
        if d:
            acc += n * prod * r ** (e - k)
        prod *= r - n if d else n
    return Fraction(acc, r**e)


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7)], ids=str)
def test_derham_lebesgue_system_is_its_digit_product(p):
    # a0 = p != a1 = 1 - p, g0 = 0, g1 = p: every dyadic of depth <= 14
    system = DeRhamSystem(a0=Scalar.exact(p), a1=Scalar.exact(1 - p), g0=(0, 0, 0), g1=(0, 1, p))
    e = 14
    for j in range((1 << e) + 1):
        got = derham_eval(system, Fraction(j, 1 << e))
        assert got.error_bound == 0.0
        assert_exact(got.value.value, lebesgue_digit_product(p, j, e))


def ref_fraction_descent(a0, a1, g0, g1, x):
    """f(x) from f(x/2) = a0 f(x) + g0(x), f((x+1)/2) = a1 f(x) + g1(x) on
    Fractions, recursing from x down to an endpoint."""
    if x == 0:
        return g0(Fraction(0)) / (1 - a0)
    if x == 1:
        return g1(Fraction(1)) / (1 - a1)
    if x <= Fraction(1, 2):
        return a0 * ref_fraction_descent(a0, a1, g0, g1, 2 * x) + g0(2 * x)
    return a1 * ref_fraction_descent(a0, a1, g0, g1, 2 * x - 1) + g1(2 * x - 1)


def test_derham_mixed_denominators():
    # a0 = 1/3, a1 = 2/5 (R = 15), g0(x) = x/7, g1(x) = (13x + 50)/105 (C = 105):
    # consistent, since a0 f(1) + g0(1) = 10/21 = a1 f(0) + g1(0) with f(0) = 0, f(1) = 1
    a0, a1 = Fraction(1, 3), Fraction(2, 5)
    system = DeRhamSystem(a0=Scalar.exact(a0), a1=Scalar.exact(a1),
                          g0=(1, 0, Fraction(1, 7)), g1=(13, 50, Fraction(1, 105)))
    assert system.consistency_residual().value == 0
    for e in range(11):
        for j in range((1 << e) + 1):
            x = Fraction(j, 1 << e)
            want = ref_fraction_descent(a0, a1, lambda y: y / 7, lambda y: (13 * y + 50) / 105, x)
            assert_exact(derham_eval(system, x).value.value, want)


FLOAT_ABSCISSAE = st.one_of(
    st.floats(0, 1),
    st.builds(lambda j, e: j / (1 << e), st.integers(0, 1 << 12), st.just(12)),
    UNIT_DYADICS,
)


# the system of each kind, and the parameters where one of its coefficients is 1
SYSTEMS = {"takagi": (takagi_system, (1,)), "fq": (fq_system, (0.5,)), "lebesgue": (lebesgue_system, (0, 1))}


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=60)
@given(data=st.data(), x=FLOAT_ABSCISSAE, depth=st.integers(1, 64))
def test_derham_float_complex_bit_identical(kind, draw, data, x, depth):
    # Lebesgue's a0 = p differs from a1 = 1 - p, so each step must take its own branch's coefficient
    make, poles = SYSTEMS[kind]
    p = data.draw(draw.filter(lambda v: all(abs(v - c) > 1e-3 for c in poles)), label="param")
    try:
        want = ref_derham(*ref_payload_systems(kind, p), x, depth)
    except DomainError:  # an overflow, or a truncated descent that does not contract
        with pytest.raises(DomainError):
            derham_eval(make(p), x, depth)
        return
    system = make(p)
    got = derham_eval(system, x, depth)
    assert same_bits(got.value.value, want[0])
    assert same_bits(got.error_bound, want[1])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_inconsistent_system_raises_on_every_call(mode):
    lift = Scalar.exact if mode == "exact" else Scalar.flt
    system = DeRhamSystem(a0=lift(Fraction(1, 2)), a1=lift(Fraction(1, 2)), g0=(1, 0, 1), g1=(1, 0, 1))
    for x in (Fraction(1, 2), Fraction(3, 8), Fraction(1, 2)):
        with pytest.raises(DomainError):
            derham_eval(system, x)


# -- orbit partial sums and the odometer step --------------------------------------

OMEGAS = st.one_of(
    st.integers(0, (1 << 64) - 1).map(lambda v: (v, 64)),
    st.integers(0, 40).map(lambda d: ((1 << 64) - 1 - d, 64)),  # carries past bit 63
    st.integers(0, 6).flatmap(lambda c: st.integers(0, (1 << c) - 1).map(lambda v: (v, c))),
).map(lambda vc: tuple((vc[0] >> i) & 1 for i in range(vc[1])))


@pytest.mark.parametrize("cls", ["small", "large", "integer", "one"])
@settings(deadline=None, max_examples=30)
@given(data=st.data(), bits=OMEGAS, l=st.integers(1, 80))
def test_orbit_partial_sums_exact(cls, data, bits, l):
    q = data.draw(Q_CLASSES[cls], label="q")
    omega = OdometerPoint(bits)
    walk, _ = ref_walk(bits, q, l)
    got = orbit_partial_sums(omega, q, l)
    assert len(got) == l + 1
    for g, w in zip(got, ref_partial_sums(walk, q)):
        assert_exact(g, w)
    assert_exact(ergodic_sum(omega, q, l).value, ref_ergodic(walk[:-1]))
    got = list(iter_ergodic_sums(omega, q, l))
    assert len(got) == l
    for j, g in enumerate(got, 1):
        assert_exact(g, ergodic_sum(omega, q, j).value)


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=40)
@given(data=st.data(), bits=OMEGAS, l=st.integers(1, 80))
def test_orbit_sums_float_complex_bit_identical(draw, data, bits, l):
    q = data.draw(draw, label="q")
    omega = OdometerPoint(bits)
    walk, _ = ref_walk(bits, q, l)
    got = orbit_partial_sums(omega, q, l)
    want = ref_partial_sums(walk, q)
    assert len(got) == len(want) == l + 1
    assert all(same_bits(g, w) for g, w in zip(got, want))
    got = list(iter_ergodic_sums(omega, q, l))
    assert len(got) == l
    assert all(same_bits(g, w) for g, w in zip(got, accumulate(walk[:-1])))


U = Fraction(1, 1 << 53)  # the unit roundoff of a double
ETA = Fraction(1, 1 << 1075)  # half the smallest subnormal: a product's underflow error


def ergodic_bound(v, n, abs_q):
    """4 (K + 1) u sum_i d_i |q|^{i+1} + 4 K eta sum_i d_i mu^i, mu = max(1, |q|):
    ergodic_sum's float error bound, underflow included.

    sum_i d_i x^{i+1} is the window's sum of s_x; abs_q bounds |q| from above.
    """
    K = (v + n - 1).bit_length()
    mu = max(1, abs_q)
    return 4 * (K + 1) * U * window_of_S(v, n, abs_q) + 4 * K * ETA * window_of_S(v, n, mu) / mu


def window_of_S(v, n, q):
    """s_q(v) + ... + s_q(v + n - 1) = S_q(v + n) - S_q(v) for exact q, by the
    shift recursions: windows too long to tally point by point."""
    q = Fraction(q)
    return S_rec_payload(v + n, q) - (S_rec_payload(v, q) if v else 0)


def assert_within(got, exact, bound):
    """|got - exact| <= bound, all in exact arithmetic; exact a Fraction or a Gaussian."""
    if isinstance(exact, Gaussian):
        err2 = (Fraction(got.real) - exact.re) ** 2 + (Fraction(got.imag) - exact.im) ** 2
        assert err2 <= bound ** 2
    else:
        assert abs(Fraction(got) - exact) <= bound


@pytest.mark.parametrize("draw", [FLOATS, COMPLEXES], ids=["float", "complex"])
@settings(deadline=None, max_examples=40)
@given(data=st.data(), bits=OMEGAS, l=st.integers(1, 80))
def test_ergodic_sum_float_complex_within_bound(draw, data, bits, l):
    q = data.draw(draw, label="q")
    omega = OdometerPoint(bits)
    v = omega.value
    got = ergodic_sum(omega, q, l).value
    assert type(got) is type(q)
    exact_q = Gaussian.of(q) if isinstance(q, complex) else Fraction(q)
    # abs of a complex is within one ulp; 1 + 2^-50 makes it an upper bound
    abs_q = Fraction(abs(q)) * (1 + Fraction(1, 1 << 50))
    exact = ref_window_sum(v, l, exact_q)
    bound = ergodic_bound(v, l, abs_q)
    assert_within(got, exact, bound)
    if abs(q) < 1:
        dev = birkhoff_deviation(omega, q, l).value
        assert same_bits(dev, got / l - q / (2 * (1 - q)))
        if isinstance(q, float):
            # S/l and E = q/(2(1 - q)) take one and two roundings, the
            # difference one more, and the two quotients may underflow:
            # well within 2B/l + 4u(|S|/l + |E|) + 4 eta
            mean = exact_q / (2 * (1 - exact_q))
            slack = 4 * U * (abs(exact) / l + abs(mean)) + 4 * ETA
            assert_within(dev, exact / l - mean, 2 * bound / l + slack)


def test_window_sums_are_a_left_fold():
    # the terms d_i q^{i+1} are added in order with +: builtin sum() is
    # compensated for floats from Python 3.12 on, where it gave ...aafp+16
    assert ergodic_sum(OdometerPoint.from_int(0), 2 / 3, 100003).value.hex() == "0x1.85f98d7d3baaep+16"
    assert S_q_counts(100003, 2 / 3).value.hex() == "0x1.85f98d7d3baaep+16"


@pytest.mark.parametrize("n", [1, 2, 3, 1 << 10, 1 << 20])
def test_ergodic_sum_at_the_capacity_edge(n):
    # 64 given bits: the window ends at 2^64 - 1, the top of the bits, and
    # (n > 1) at 2^64, where the last point needs bit 64
    top = 1 << 64
    for v in [top - n] + ([top + 1 - n] if n > 1 else []):
        omega = OdometerPoint(tuple((v >> i) & 1 for i in range(64)))
        assert_exact(ergodic_sum(omega, Fraction(2, 3), n).value, window_of_S(v, n, Fraction(2, 3)))
        # q > 0, so sum_i d_i |q|^{i+1} is the exact sum itself
        exact_f = window_of_S(v, n, Fraction(2 / 3))
        assert_within(ergodic_sum(omega, 2 / 3, n).value, exact_f, ergodic_bound(v, n, Fraction(2 / 3)))


@pytest.mark.parametrize(
    "v, n, q",
    [
        # from 0 the window ends at n - 1 = 2^k - 1: q^{k+1} overflows or
        # underflows, and the sum needs only q .. q^k
        (0, 8, 1e100), (0, 2, 1e200), (0, 1, 1e300), (0, 4, -1e150), (0, 8, 1e100j),
        (0, 8, 1e-200), (0, 16, 5e-324), (0, 4, 1e-170 + 1e-170j),
        # no bit 0 in the window: the whole sum is subnormal, and only the
        # bound's underflow term covers the rounding of q^2
        (2, 1, 1e-160), (2, 1, -3e-160), (2, 1, 3e-160 + 1e-160j), (4, 1, 1e-108),
    ],
)
def test_ergodic_sum_at_the_float_range_edge(v, n, q):
    got = ergodic_sum(OdometerPoint.from_int(v), q, n).value
    exact_q = Gaussian.of(q) if isinstance(q, complex) else Fraction(q)
    bound = ergodic_bound(v, n, Fraction(abs(q)) * (1 + Fraction(1, 1 << 50)))
    assert_within(got, ref_window_sum(v, n, exact_q), bound)


@pytest.mark.parametrize("cls", ["small", "large", "integer"])
@settings(deadline=None, max_examples=30)
# v of every bit length, and 2^64 - v too, so that windows ending at or past
# 2^64, past the 64 given bits, are drawn
@given(
    data=st.data(),
    v=st.one_of(by_bit_length(64), by_bit_length(64).map(lambda d: (1 << 64) - d)),
    n=st.one_of(by_bit_length(20), st.just(1 << 20)),
)
def test_ergodic_sum_is_a_difference_of_S_q(cls, data, v, n):
    q = data.draw(Q_CLASSES[cls], label="q")
    omega = OdometerPoint(tuple((v >> i) & 1 for i in range(64)))
    assert_exact(ergodic_sum(omega, q, n).value, S_rec_payload(v + n, q) - S_rec_payload(v, q))
    qf = Fraction(float(q))  # the float q, exactly
    assert_within(ergodic_sum(omega, float(q), n).value, window_of_S(v, n, qf), ergodic_bound(v, n, abs(qf)))


@settings(deadline=None, max_examples=200)
@given(bits=OMEGAS)
def test_odometer_step_is_ref_walk_successor(bits):
    # a point is its value and the number of bits it was given; the step
    # widens it by one bit exactly when the carry runs past the top
    omega = OdometerPoint(bits)
    assert (omega.value, omega.width) == (bits_value(bits), len(bits))
    _, successor = ref_walk(bits, 0, 1)
    step = odometer_step(omega)
    assert (step.value, step.width) == (bits_value(successor), len(successor))
    assert step == OdometerPoint(tuple(successor))


# -- the limiting curve -q T_a -------------------------------------------------------

# q with |q| > 1/2, the range of Proposition 2, in each mode
LIMIT_QS = {
    "exact": st.one_of(Q_CLASSES["large"], Q_CLASSES["integer"], Q_CLASSES["one"]),
    **CONTRACTIVE,
}
# dyadic Fractions, other Fractions and floats in [0, 1]: T_a is exact at the
# first and a certified series at the others
MIXED_GRIDS = st.lists(
    st.one_of(
        st.integers(0, 10).flatmap(lambda e: st.builds(lambda j: Fraction(j, 1 << e), st.integers(0, 1 << e))),
        st.integers(0, 7).map(lambda j: Fraction(j, 7)),
        st.floats(0, 1),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("kind", sorted(LIMIT_QS))
@settings(deadline=None, max_examples=15)
@given(data=st.data(), N=st.integers(1, 9))
def test_prop2_exact_residual_is_the_reference(kind, data, N):
    q = data.draw(LIMIT_QS[kind], label="q")
    got = prop2_exact(q, N)
    assert_same_scalar(got.max_residual, ref_prop2_residual(got.curve, q))
    if kind == "exact":
        assert got.max_residual.value == 0


@pytest.mark.parametrize("kind", sorted(LIMIT_QS))
@settings(deadline=None, max_examples=25)
@given(data=st.data(), bits=OMEGAS, l=st.integers(1, 300), grid=MIXED_GRIDS)
def test_sup_distance_and_max_abs_R_are_the_reference(kind, data, bits, l, grid):
    q = data.draw(LIMIT_QS[kind], label="q")
    partials = orbit_partial_sums(OdometerPoint(bits), q, l)
    curve = phi_curve(partials, l, grid, Normalization.MAX_ABS)
    assert_same_scalar(curve.R, ref_max_abs_R(partials, l, grid))
    assert_same_scalar(sup_distance_to_limit(curve, q), ref_sup_distance(curve, q))


def ref_phi_values(sums, l, grid, R=None):
    """phi_l on the grid by Fraction arithmetic: S(t l) - t S(l), over R or max-abs."""
    raw = []
    for t in grid:
        i, frac = divmod(t * l, 1)
        lo = sums[i] if frac == 0 else sums[i] + frac * (sums[i + 1] - sums[i])
        raw.append(lo - t * sums[l])
    if R is None:
        R = max(abs(v) for v in raw) or 1
    return [v / R for v in raw]


RATIONAL_GRIDS = st.lists(
    st.one_of(
        st.integers(0, 10).flatmap(lambda e: st.builds(lambda j: Fraction(j, 1 << e), st.integers(0, 1 << e))),
        st.integers(0, 7).map(lambda j: Fraction(j, 7)),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=12,
)


@settings(deadline=None, max_examples=40)
@given(q=LIMIT_QS["exact"], bits=OMEGAS, l=st.integers(1, 300), grid=RATIONAL_GRIDS,
       R=st.one_of(st.none(), RATIONALS))
def test_phi_curve_exact_is_the_reference(q, bits, l, grid, R):
    partials = orbit_partial_sums(OdometerPoint(bits), q, l)
    if R is None:
        curve = phi_curve(partials, l, grid, Normalization.MAX_ABS)
    else:
        curve = phi_curve(partials, l, grid, Normalization.EXPLICIT, R)
    assert curve.R.mode is Mode.EXACT
    for v, want in zip(curve.values, ref_phi_values(partials, l, grid, R)):
        assert v.mode is Mode.EXACT
        assert_exact(v.value, want)


PAYLOAD_TYPES = {Mode.EXACT: Fraction, Mode.FLOAT: float, Mode.COMPLEX: complex}
NORMALISERS = st.one_of(
    st.none(),
    RATIONALS,
    st.floats(0.1, 10),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("kind", sorted(LIMIT_QS))
@settings(deadline=None, max_examples=25)
@given(data=st.data(), bits=OMEGAS, l=st.integers(1, 100), grid=MIXED_GRIDS, R=NORMALISERS)
def test_phi_curve_payloads_match_their_mode(kind, data, bits, l, grid, R):
    q = data.draw(LIMIT_QS[kind], label="q")
    partials = orbit_partial_sums(OdometerPoint(bits), q, l)
    if R is None:
        curve = phi_curve(partials, l, grid, Normalization.MAX_ABS)
    else:
        curve = phi_curve(partials, l, grid, Normalization.EXPLICIT, R)
    modes = {v.mode for v in curve.values}
    assert len(modes) == 1
    for v in curve.values:
        assert type(v.value) is PAYLOAD_TYPES[v.mode]
    assert type(curve.R.value) is PAYLOAD_TYPES[curve.R.mode]


def test_phi_curve_float_abscissa_makes_a_float_curve():
    # exact sums and a float abscissa or normaliser gave float payloads tagged exact
    partials = orbit_partial_sums(OdometerPoint.zero(), Fraction(2, 3), 8)
    curve = phi_curve(partials, 8, [Fraction(0), 0.3, Fraction(1)])
    assert [v.mode for v in curve.values] == [Mode.FLOAT] * 3
    assert all(type(v.value) is float for v in curve.values)
    assert curve.R.mode is Mode.FLOAT
    explicit = phi_curve(partials, 8, [Fraction(0), Fraction(1, 2), Fraction(1)], Normalization.EXPLICIT, 0.5)
    assert [v.mode for v in explicit.values] == [Mode.FLOAT] * 3
    cplx = phi_curve(partials, 8, [Fraction(1, 2)], Normalization.EXPLICIT, 1j)
    assert cplx.values[0].mode is Mode.COMPLEX and type(cplx.values[0].value) is complex


def test_phi_curve_rejects_rationals_outside_the_unit_interval():
    # float(t) rounds 1 + 2^-60 to 1.0 and -2^-1100 to -0.0; the check compares t itself,
    # on all-rational grids and on grids that mix in a float
    partials = orbit_partial_sums(OdometerPoint.zero(), Fraction(2, 3), 8)
    for grid in (
        [1 + Fraction(1, 1 << 60)],
        [Fraction(-1, 1 << 1100)],
        [1 + Fraction(1, 1 << 60), 0.5],
        [Fraction(-1, 1 << 1100), 0.5],
    ):
        with pytest.raises(DomainError):
            phi_curve(partials, 8, grid)


@pytest.mark.parametrize("kind", sorted(LIMIT_QS))
@settings(deadline=None, max_examples=15)
@given(
    data=st.data(),
    bits=OMEGAS,
    windows=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    grid=MIXED_GRIDS,
)
def test_stabilizer_search_is_the_reference(kind, data, bits, windows, grid):
    q = data.draw(LIMIT_QS[kind], label="q")
    report = stabilizer_search(OdometerPoint(bits), q, windows, grid)
    want = ref_stabilizer_entries(OdometerPoint(bits), q, windows, grid)
    assert [(l, d.hex()) for l, d in report.entries] == [(l, d.hex()) for l, d in want]
    assert (report.best_l, report.best_distance) == min(want, key=lambda e: (e[1], e[0]))


def test_stabilizer_search_at_the_edge_of_the_contractive_range():
    # |q| = 1/2 + 3.7e-9 puts |a| = 1/(2|q|) within 1e-8 of 1, and the series
    # at the non-dyadic grid points asked for ~5e9 terms (a draw of the test above)
    q, windows, grid = complex(0.5, 2.0 ** -14), [3, 40], [Fraction(4, 7), 1e-09, Fraction(5, 7)]
    report = stabilizer_search(OdometerPoint((1, 0, 1)), q, windows, grid)
    want = ref_stabilizer_entries(OdometerPoint((1, 0, 1)), q, windows, grid)
    assert [(l, d.hex()) for l, d in report.entries] == [(l, d.hex()) for l, d in want]
