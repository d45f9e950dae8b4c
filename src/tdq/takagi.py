"""Takagi-Landsberg functions and the generic two-branch de Rham solver.

Three evaluation routes are kept separate on purpose: the truncated series
(with a certified geometric tail bound), the exact finite sum at dyadic
rationals, and digit descent through a de Rham system.  Route agreement is
the correctness argument, so each route stays callable and tested on its
own; ``takagi_at`` is the one place a caller gets T_a at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import DomainError, ModeError
from .scalar import (
    Mode,
    Ratios,
    Regime,
    Scalar,
    as_dyadic_fraction,
    as_qweight,
    as_scalar,
    finite,
    powers_of,
    tau_float,
    tau_profile,
    tau_weighted_levels,
    tau_weighted_sum,
)

DEFAULT_SERIES_TOL = 1e-14


# ---------------------------------------------------------------------------
# generic de Rham systems


class DeRhamValue(NamedTuple):
    value: Scalar
    error_bound: float  # 0.0 when the digit descent terminated exactly


@dataclass(frozen=True)
class DeRhamSystem:
    """The quadruple (a0, a1, g0, g1) of f(x/2) = a0 f(x) + g0(x),
    f((x+1)/2) = a1 f(x) + g1(x), with affine g_b(x) = (u_b x + v_b) w_b.

    g0 and g1 are the coefficient triples (u_b, v_b, w_b): ints, Fractions or
    payloads of the system's mode (a0's), lifted into it.  Held as
    coefficients, the maps give the exact descent its integers and a
    truncated descent its certified ``g_sup``.  a0 and a1 share one mode,
    or the system is refused with ``ModeError``.
    """

    a0: Scalar
    a1: Scalar
    g0: tuple
    g1: tuple

    def __post_init__(self):
        if self.a0.mode is not self.a1.mode:
            modes = f"{self.a0.mode.value} and {self.a1.mode.value}"
            raise ModeError(f"a de Rham system needs a0 and a1 of one mode, not {modes}")

    @property
    def mode(self) -> Mode:
        return self.a0.mode

    def _lift(self, v):
        return Scalar.lift(v, self.mode).value

    @cached_property
    def _coefficients(self) -> tuple:
        """((u0, v0, w0), (u1, v1, w1)) as payloads of the system's mode."""
        return tuple(tuple(self._lift(c) for c in g) for g in (self.g0, self.g1))

    def _g(self, b: int, x):
        u, v, w = self._coefficients[b]
        return (u * x + v) * w

    @cached_property
    def g_sup(self) -> float:
        """The sup of |g0|, |g1| on [0,1]: |w_b| max(|v_b|, |u_b + v_b|), since
        the modulus of an affine map peaks at an end of the interval."""
        return max(float(abs(w)) * float(max(abs(v), abs(u + v))) for u, v, w in self._coefficients)

    @cached_property
    def _integers(self) -> tuple:
        """(P, R, Cn, Dn, C) of an exact system: a_b = P_b / R with R the lcm
        of the denominators of a0, a1, and g_b(k/2^i) = ((Cn_b << i) + Dn_b k)
        / (C 2^i) with C the lcm of the denominators of v_b w_b and u_b w_b."""
        coefs = (self.a0.value, self.a1.value)
        R = math.lcm(*(c.denominator for c in coefs))
        parts = [(v * w, u * w) for u, v, w in self._coefficients]
        C = math.lcm(*(t.denominator for pair in parts for t in pair))
        return (
            tuple(c.numerator * (R // c.denominator) for c in coefs),
            R,
            tuple((vw * C).numerator for vw, _ in parts),
            tuple((uw * C).numerator for _, uw in parts),
            C,
        )

    def consistency_residual(self) -> Scalar:
        one, zero = self._lift(1), self._lift(0)
        a0, a1 = self.a0.value, self.a1.value
        if a0 == one or a1 == one:
            raise DomainError("a de Rham system needs a0 != 1 and a1 != 1")
        return Scalar(
            a0 * self._g(1, one) / (one - a1)
            + self._g(0, one)
            - a1 * self._g(0, zero) / (one - a0)
            - self._g(1, zero)
        )

    @cached_property
    def endpoints(self) -> tuple:
        """Payloads f(0) = g0(0)/(1-a0), f(1) = g1(1)/(1-a1) of a consistent system.

        Raises DomainError for an inconsistent system; only a successful
        check is cached, so every later call raises again.
        """
        r = self.consistency_residual().modulus()
        if (self.mode is Mode.EXACT and r != 0) or (self.mode is not Mode.EXACT and r > 1e-9):
            raise DomainError(f"inconsistent de Rham system (residual {r})")
        one, zero = self._lift(1), self._lift(0)
        return (
            self._g(0, zero) / (one - self.a0.value),
            self._g(1, one) / (one - self.a1.value),
        )


def _dyadic_steps(m: int, e: int, depth: int):
    """The first ``depth`` steps of the descent from m/2^e in (0, 1), m odd.

    Yields (branch, k, i) in ascent order: the branch taken at level i and
    its argument k/2^i.  The whole descent (depth >= e) passes 1/2 on its
    last step and ends at f(1).
    """
    if depth >= e:
        yield 0, 1, 0
    for i in range(max(1, e - depth), e):
        yield (m >> i) & 1, m & ((1 << i) - 1), i


def derham_eval(sys: DeRhamSystem, x, depth: int = 64) -> DeRhamValue:
    """Evaluate the de Rham fixed point at x in [0,1].

    x is an int, a Fraction, a float or an exact or float Scalar, read
    exactly, so it must be a dyadic rational; every finite float is one.
    Dyadic rationals descend to an endpoint and are exact regardless of
    contraction (the system alone pins those values).  In a float or complex
    system a float x descends ``depth`` digits at most; when that cuts the
    descent, the system must be contractive, and the returned radius
    C*rho^depth, C = g_sup / (1 - rho), certifies the truncation.
    """
    f0, f1 = sys.endpoints
    if isinstance(x, Scalar) and x.mode is not Mode.COMPLEX:
        x = x.value
    if not isinstance(x, (int, Fraction, float)):
        raise ModeError(f"derham_eval reads an int, Fraction or float abscissa, not {type(x).__name__}")
    if not 0 <= x <= 1:
        raise DomainError("derham_eval domain is [0,1]")
    fr = x if isinstance(x, Fraction) else Fraction(x)
    if fr.denominator & (fr.denominator - 1):
        raise ModeError(f"{fr} has no finite digit descent: pass float(x) for a truncated one")
    if fr == 0 or fr == 1:
        return DeRhamValue(Scalar(f0 if fr == 0 else f1), 0.0)
    m, e = fr.numerator, fr.denominator.bit_length() - 1
    if sys.mode is not Mode.EXACT and isinstance(x, float) and e > depth:
        rho = float(max(sys.a0.modulus(), sys.a1.modulus()))
        if rho >= 1:
            raise DomainError("non-contractive system off dyadic points")
        bound = (rho ** max(depth, 0)) * sys.g_sup / (1.0 - rho)
        v = sys._lift(0)  # midpoint of the attainable range [-C, C]
    elif sys.mode is Mode.EXACT:
        # after j steps, the last at k/2^i, the value is N / (F C R^j 2^i)
        # with f(1) = n/F: one step multiplies by a_b = P_b/R and adds g_b(k/2^i)
        P, R, Cn, Dn, C = sys._integers
        N, FR, s = f1.numerator * C, f1.denominator, 0
        for b, k, i in _dyadic_steps(m, e, e):
            FR *= R
            N = (P[b] * N << (i - s)) + ((Cn[b] << i) + Dn[b] * k) * FR
            s = i
        return DeRhamValue(Scalar(Fraction(N, FR * C << s)), 0.0)
    else:
        bound, v, depth = 0.0, f1, e
    coefs = (sys.a0.value, sys.a1.value)
    for b, k, i in _dyadic_steps(m, e, depth):
        v = coefs[b] * v + sys._g(b, sys._lift(k / (1 << i)))
    return DeRhamValue(Scalar(v), bound)


def takagi_system(a) -> DeRhamSystem:
    """The de Rham system whose fixed point is the Takagi-Landsberg curve:
    g0(x) = x/2, g1(x) = (1 - x)/2."""
    a = as_scalar(a)
    half = Fraction(1, 2)
    return DeRhamSystem(a0=a, a1=a, g0=(1, 0, half), g1=(-1, 1, half))


def fq_system(q) -> DeRhamSystem:
    """The de Rham system satisfied by F_q (coefficients a = 1/(2q)):
    g0(x) = c0 x, g1(x) = c1 (x + 1), c0 = (2q - 3)/4, c1 = (2q - 1)/4."""
    qw = as_qweight(q)
    qv = qw.q.value
    one, two, three, quarter = (Scalar.lift(v, qw.q.mode).value for v in (1, 2, 3, Fraction(1, 4)))
    c0 = (qv * two - three) * quarter
    c1 = (qv * two - one) * quarter
    return DeRhamSystem(a0=qw.a, a1=qw.a, g0=(1, 0, c0), g1=(1, 1, c1))


# ---------------------------------------------------------------------------
# Takagi-Landsberg evaluation routes


def series_truncation_length(abs_a: float, tol: float) -> int:
    """Smallest N with |a|^{N+1} / (2 (1-|a|)) <= tol / 2: the tail past term N
    is within tol/2; the float rounding is not (see ``takagi_series``)."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if abs_a <= 0:
        return 0
    bound = tol * (1.0 - abs_a)  # tail <= tol/2  <=>  |a|^{N+1} <= tol (1-|a|)
    if bound >= abs_a:
        return 0
    return max(0, math.ceil(math.log(bound) / math.log(abs_a)) - 1)


def _one_minus_power(a, p: int):
    """1 - a^p without the cancellation of a rounded a^p near 1.

    Real a: -expm1(p log1p(|a| - 1)) at even p or a > 0, where |a| - 1 is
    exact for |a| >= 1/2.  Complex a: (1 - a)(1 + a + ... + a^{p-1}), which
    keeps its digits near a = 1, after a turn by the p-th root of unity w
    among -1 (even p) and -i, i (p divisible by 4) that takes a nearest 1:
    (w a)^p = a^p, and w a is exact in float.
    """
    if isinstance(a, complex):
        if p % 4 == 0 and abs(a.imag) > abs(a.real):
            a = complex(a.imag, -a.real) if a.imag > 0 else complex(-a.imag, a.real)
        if p % 2 == 0 and a.real < 0:
            a = -a
        g = 1
        for _ in range(p - 1):
            g = 1 + a * g
        return (1 - a) * g
    if abs(a) < 0.5 or (a < 0 and p % 2):
        return 1 - a ** p
    return -math.expm1(p * math.log1p(abs(a) - 1))


def _series_length(abs_a: float, tol: float) -> int:
    """The number of terms the series sums at |a| and tol; needs |a| < 1."""
    if abs_a >= 1:
        raise DomainError("takagi_series requires |a| < 1")
    return series_truncation_length(abs_a, tol) + 1


def _series_sum(x, av, n_terms: int):
    """The payload sum of ``takagi_series``: at most n_terms terms av^n tau(2^n x)
    for a real payload x (int, Fraction or float) and a float or complex av.
    """
    if isinstance(x, (int, Fraction)):
        return _ratio_series_sum(x.numerator, x.denominator, av, n_terms)
    # a float is dyadic: y reaches 0 within ~1075 doublings and the terms
    # after that are 0, so |a| near 1 costs no more than that.  T_a is
    # even, and |x| - floor(|x|) is exact where x - floor(x) rounds at
    # x < 0.  On [0, 1) tau(y) is min(y, 1 - y), as ``tau_float`` takes it
    acc = 0j if isinstance(av, complex) else 0.0  # +0, where 0 * av is -0.0 at a negative a
    w = av ** 0
    y = abs(x)
    y -= math.floor(y)
    for _ in range(n_terms):
        acc = acc + w * (1.0 - y if 1.0 - y < y else y)
        y = 2.0 * y
        if y >= 1.0:
            y -= 1.0
        if not y:
            break
        w = w * av
    return acc


def _ratio_series_sum(m: int, d: int, av, n_terms: int):
    """``_series_sum`` at the rational x = m/d, given in lowest terms with d > 0
    as its two integers, so a caller with the integers builds no ``Fraction``.

    x mod 1 = m/d doubles to 2m mod d; from m = 0 on every term is 0.  Term n
    is a^n k/d with k = min(m, d - m), and m, d - m double to mirror images,
    so from n = s = v2(d) on (where the orbit turns periodic) the terms
    repeat times a^p once k is back at k_s after p steps: the geometric tail
    closes the sum at acc_s + (acc - acc_s) / (1 - a^p).
    """
    acc = 0j if isinstance(av, complex) else 0.0  # +0, where 0 * av is -0.0 at a negative a
    w = av ** 0
    m %= d
    s = (d & -d).bit_length() - 1
    for n in range(n_terms):
        if not m:
            break
        k = min(m, d - m)
        if n == s:
            k_s, acc_s = k, acc
        elif n > s and k == k_s:
            return acc_s + (acc - acc_s) / _one_minus_power(av, n - s)
        acc = acc + w * (k / d)
        m = 2 * m % d
        w = w * av
    return acc


def takagi_series(x, a, tol: float = DEFAULT_SERIES_TOL) -> Scalar:
    """Truncated series sum a^n tau(2^n x); needs |a| < 1.

    A rational x ends the sum early: a dyadic one when 2^n x mod 1 reaches 0,
    any other once its doubling orbit closes a cycle, whose geometric tail
    is summed in closed form.  A sum of n terms is within tol/2 for the tail
    plus 4 n 2^-53 M for the float rounding, M = 1/(2(1-|a|)), of T_a(x): more
    than tol near |a| = 1 (6.1e-14 at x = 17/24, a = 0.99778793..., tol 1e-14).
    """
    a = as_scalar(a)
    n_terms = _series_length(float(a.modulus()), tol)
    mode = Mode.FLOAT if a.mode is not Mode.COMPLEX else Mode.COMPLEX
    av = a.promote(mode).value
    fr = as_scalar(x).value
    if isinstance(fr, complex):
        raise ModeError("takagi_series requires a real abscissa")
    return Scalar(_series_sum(fr, av, n_terms))


def takagi_dyadic_sum(m: int, e: int, powers):
    """T_a(m/2^e) for 0 <= m <= 2^e as a float or complex payload, powers[j]
    = a^j (``powers_of``) through a^{e-1} at least: the float and complex
    counterpart of ``tau_weighted_sum`` at (2p, r).

    m/2^e is reduced to lowest terms first, so no power past the last
    nonzero term is read.  The terms powers[j] (t_j 2^j / 2^e) are summed
    left to right from +0, the zero of powers' type: a 0 * a would be -0.0
    at a negative a.
    """
    z = (m & -m).bit_length() - 1 if m else e
    m, e = m >> z, e - z
    acc = 0j if isinstance(powers[0], complex) else 0.0
    size = 1 << e
    for j, t in enumerate(tau_profile(m, e)[::-1]):
        acc = acc + powers[j] * ((t << j) / size)
    return acc


def takagi_dyadic_exact(x, a) -> Scalar:
    """Finite sum at a dyadic rational x; exact when a is exact, any a allowed.

    With x = n/2^e in lowest terms, x mod 1 = m/2^e, m = n mod 2^e, and the
    terms are a^j tau(m_j/2^e), m_j = 2^j m mod 2^e, for j < e.  Since m_j =
    (m mod 2^{e-j}) 2^j, 2^e tau(m_j/2^e) is tau_scaled(m, e - j) 2^j: the
    profile of m read in reverse.  For exact a = p/r the sum is
    B / (r^{e-1} 2^e) with the integer B = ``tau_weighted_sum(m, e, 2p, r)``;
    for float and complex a it is ``takagi_dyadic_sum``.
    """
    fr = as_dyadic_fraction(x)
    if fr is None:
        raise DomainError("takagi_dyadic_exact requires a dyadic rational x")
    a = as_scalar(a)
    m, e = fr.numerator % fr.denominator, fr.denominator.bit_length() - 1
    if a.mode is Mode.EXACT:
        if not e:
            return Scalar(Fraction(0))
        p, r = a.value.numerator, a.value.denominator
        return Scalar(Fraction(tau_weighted_sum(m, e, 2 * p, r), r ** (e - 1) << e))
    return Scalar(takagi_dyadic_sum(m, e, powers_of(a.value, e)))


def takagi_grid(a, m: int) -> Ratios:
    """T_a(j/2^m) for j = 0 .. 2^m, equal to ``takagi_dyadic_exact(j/2^m, a).value``
    point by point: at exact a = p/r, the level-m table of
    ``tau_weighted_levels(2p, r)`` over D = r^{m-1} 2^m (1 at m = 0); at float
    and complex a, ``takagi_dyadic_sum`` on a^0 .. a^{m-1} built once
    (``powers_of``) at j <= 2^m / 2, checked ``finite`` and mirrored, since
    T_a(1 - x) = T_a(x).
    """
    if m < 0:
        raise DomainError("takagi_grid requires m >= 0")
    a = as_scalar(a)
    if a.mode is Mode.EXACT:
        p, r = a.value.numerator, a.value.denominator
        return Ratios(next(islice(tau_weighted_levels(2 * p, r), m, None)), r ** (m - 1) << m if m else 1)
    size, powers = 1 << m, powers_of(a.value, m)
    lower = finite([takagi_dyadic_sum(j, m, powers) for j in range(size // 2 + 1)])
    return Ratios(lower + lower[(size - 1) // 2 :: -1], None)  # at m = 0 the one point j = 0 is j = 1 too


def takagi_at(x, a, tol: float = DEFAULT_SERIES_TOL) -> Scalar:
    """T_a at one abscissa: ``takagi_dyadic_exact`` at a dyadic rational x,
    else ``takagi_series`` at x as given (never rounded first: T_a is only
    Hoelder continuous, so a rounded abscissa moves the value past tol)."""
    if as_dyadic_fraction(x) is not None:
        return takagi_dyadic_exact(x, a)
    return takagi_series(x, a, tol)


# ---------------------------------------------------------------------------
# derived functions


_TWO_ZERO = {mode: (Scalar.lift(2, mode).value, Scalar.lift(0, mode).value) for mode in Mode}


def _F(qv, xv, tv, mode: Mode):
    """q x - T / 2 + 0 on payloads of the mode: the + 0 turns a -0.0 into +0."""
    two, zero = _TWO_ZERO[mode]
    return qv * xv - tv / two + zero


def F_q(x, q) -> Scalar:
    """F_q(x) = q x - T_a(x) / 2 on [0,1], a = 1/(2q), in the mode of T_a
    (``takagi_at``): exact at dyadic x for exact q; off the dyadic points
    the series needs |q| > 1/2.  A zero is +0: at x = 0 a negative q makes
    q x = -0.0, and T_a(0) = +0."""
    qw = as_qweight(q)
    t = takagi_at(x, qw.a)
    xs = as_scalar(x)
    if not 0 <= xs.value <= 1:
        raise DomainError("F_q domain is [0,1]")
    mode = t.mode
    return Scalar(_F(qw.q.promote(mode).value, xs.promote(mode).value, t.value, mode))


def F_q_grid(q, m: int) -> Ratios:
    """[F_q(j/2^m, q).value for j = 0 .. 2^m], bit for bit: ``takagi_grid`` at
    a = 1/(2q) gives T_a in q's mode, and q is boxed once.  At exact q = c/b,
    with T_a(j/2^m) = N_j/D, the grid is the integers 2c j (D / 2^m) - b N_j
    over 2 b D (D = 1 at m = 0)."""
    qw = as_qweight(q)
    ts = takagi_grid(qw.a, m)
    mode, qv = qw.q.mode, qw.q.value
    if mode is Mode.EXACT:
        c, b, D = qv.numerator, qv.denominator, ts.den
        s = 2 * c * (D >> m)
        return Ratios([s * j - b * t for j, t in enumerate(ts.numerators)], 2 * b * D)
    size = 1 << m  # j / size rounds once, as float(Fraction(j, size)) does
    return Ratios(finite([_F(qv, type(qv)(j / size), t, mode) for j, t in enumerate(ts)]), None)


def hat_F_q(u, q, tol: float = DEFAULT_SERIES_TOL) -> Scalar:
    """hat F_q(u) = 2^{1-u} T_a(2^{u-1}), 1-periodic in u; float-mode result."""
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("hat_F_q requires |q| > 1/2")
    uf = float(as_scalar(u).promote(Mode.FLOAT).value)
    uf -= math.floor(uf)
    t = takagi_series(2.0 ** (uf - 1.0), qw.a, tol)
    return Scalar(Scalar.lift(2.0 ** (1.0 - uf), t.mode).value * t.value)


def _corollary_q(q, tol: float) -> tuple:
    """(q, a = 1/(2q), series length) as floats after checking the corollary's
    domain, real q > 1/2: the series at a is cut for tol."""
    qw = as_qweight(q)
    if qw.q.mode is Mode.COMPLEX:
        raise ModeError("tilde_F_q is defined for real q only")
    qf = float(qw.q.promote(Mode.FLOAT).value)
    if qf <= 0.5:
        raise DomainError("tilde_F_q requires q > 1/2")
    a = 1.0 / (2.0 * qf)
    return qf, a, _series_length(a, tol)


def _tilde_F(uf: float, t, qf: float) -> float:
    """tilde F_q(u) from t = T_a(2^{u-1}), the Takagi factor summed at that abscissa.

    The head (1 - q^{1-u}) / (1 - q) is 1 - u at q = 1, its limit there.  A
    zero is +0: at u = 1 and q > 1 the head is 0 / (1 - q) = -0.0.
    """
    head = 1.0 - uf if qf == 1.0 else (1.0 - qf ** (1.0 - uf)) / (1.0 - qf)
    return head - qf ** (-uf) * 2.0 ** (1.0 - uf) * t + 0.0


def _tilde_F_u(uf: float, qf: float, a: float, n_terms: int) -> float:
    """tilde F_q(u) at a float u, reduced mod 1 except at u = 1."""
    if uf != 1.0:
        uf -= math.floor(uf)
    return _tilde_F(uf, _series_sum(2.0 ** (uf - 1.0), a, n_terms), qf)


def tilde_F_q(u, q, tol: float = DEFAULT_SERIES_TOL) -> Scalar:
    """The corollary's periodic correction, real q > 1/2; at q = 1 the classic
    Trollope-Delange correction 1 - u - 2^{1-u} T(2^{u-1})."""
    series = _corollary_q(q, tol)
    return Scalar(_tilde_F_u(float(as_scalar(u).promote(Mode.FLOAT).value), *series))


def tilde_F_q_grid(q, m: int, tol: float = DEFAULT_SERIES_TOL) -> list[float]:
    """[tilde_F_q(j/2^m, q, tol).value for j = 0 .. 2^m], bit for bit, with q
    checked and the series length fixed once."""
    if m < 0:
        raise DomainError("tilde_F_q_grid requires m >= 0")
    series = _corollary_q(q, tol)
    size = 1 << m
    return finite([_tilde_F_u(j / size, *series) for j in range(size + 1)])


def _tilde_F_log2(n: int, qf: float, a: float, n_terms: int) -> float:
    """tilde F_q(log2 n) with the series at n/2^{k+1} in lowest terms, as two integers."""
    k = n.bit_length() - 1
    z = (n & -n).bit_length() - 1
    return _tilde_F(math.log2(n) - k, _ratio_series_sum(n >> z, (2 << k) >> z, a, n_terms), qf)


def tilde_F_q_log2(n: int, q, tol: float = DEFAULT_SERIES_TOL) -> Scalar:
    """tilde F_q(log2 n) for an integer n >= 1.

    With k = [log2 n] and u = log2 n - k, the Takagi abscissa 2^{u-1} is the
    dyadic n/2^{k+1}, so the series is summed there exactly.  T_a is only
    Hoelder continuous, so the float-rounded 2^{u-1} would amplify one
    rounding error to ~1e-7 at a = 3/4.
    """
    series = _corollary_q(q, tol)
    if n < 1:
        raise DomainError("tilde_F_q_log2 requires n >= 1")
    return Scalar(_tilde_F_log2(n, *series))


def tilde_F_q_log2_range(q, n_max: int, tol: float = DEFAULT_SERIES_TOL) -> list[float]:
    """[tilde_F_q_log2(n, q, tol).value for n = 1 .. n_max], bit for bit, with q
    checked and the series length fixed once."""
    series = _corollary_q(q, tol)
    return finite([_tilde_F_log2(n, *series) for n in range(1, n_max + 1)])


def G_tilde_gamma(x, gamma_limit, tol: float) -> Scalar:
    """Larcher's periodic term -(g/2) sum_{i>=-1} tau(2^{x+i}) / 2^{x+i}.

    The function is 1-periodic; the series representation holds on [0,1], so
    the argument is reduced mod 1 first.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    g = as_scalar(gamma_limit)
    if g.mode is Mode.COMPLEX:
        raise ModeError("G_tilde_gamma requires a real limit")
    gf = float(g.promote(Mode.FLOAT).value)
    if gf == 0.0:
        return Scalar(0.0)
    xf = float(as_scalar(x).promote(Mode.FLOAT).value)
    xf -= math.floor(xf)
    # tail past i = I is bounded by |g/2| * 2 * 2^{-(x+I)} <= |g| 2^{-I}
    imax = max(0, math.ceil(math.log2(abs(gf)) - math.log2(tol))) + 1
    if imax > 1022:  # 2^{x+i} must stay a finite float for x < 1
        raise DomainError(f"|gamma limit|/tol ~ 2^{imax - 1} needs terms past the float range")
    acc = 0.0
    for i in range(-1, imax + 1):
        p = 2.0 ** (xf + i)
        acc += tau_float(p) / p
    return Scalar(-0.5 * gf * acc)
