"""Classic and generalized Trollope-Delange formulas and their relatives.

The exact identities are evaluated entirely in rational (or complex) payload
arithmetic: the argument 2^{u-1} = n/2^{k+1} is dyadic, so the Takagi factor
comes from the finite dyadic route and never touches real powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .digit_sums import bit_counts, geometric_num
from .errors import DomainError
from .scalar import (
    Mode,
    Regime,
    Scalar,
    as_qweight,
    as_scalar,
    checked_pow,
    payload_key,
    tau_profile,
)
from .takagi import G_tilde_gamma, takagi_dyadic_num, takagi_dyadic_sum


class _Powers(dict):
    """x^i as ``checked_pow(x, i)``, computed at the first read of i: a power
    out of the float range raises at every read, where the formula takes it,
    and is never stored."""

    def __init__(self, x):
        super().__init__()
        self.x = x

    def __missing__(self, i: int):
        v = self[i] = checked_pow(self.x, i)
        return v


class _QTable:
    """The values of one float or complex q that theorem1_rhs and
    dyadic_formula read at every n and that depend on q alone: q^k and
    (2q)^i as ``_Powers``, and a^j, a = 1/(2q), by the repeated
    multiplication from a ** 0 that ``takagi_dyadic_exact`` does.  No S_q(n),
    T_a or residual is kept, so a pass over a warm table does the work of
    the first."""

    def __init__(self, qv):
        self.q_pow = _Powers(qv)
        self.two_q_pow = _Powers(2 * qv)
        self._a_pow = []  # built on first use: dyadic_formula's q = 0 has no a

    def a_pow(self, a, e: int) -> list:
        """[a^0, a^1, ...] through a^{e-1} at least.  A longer list replaces
        the old one whole, so no caller reads a half-grown list."""
        powers = self._a_pow
        if len(powers) < e:
            powers = powers[:] or [a ** 0]
            while len(powers) < e:
                powers.append(powers[-1] * a)
            self._a_pow = powers
        return powers


@lru_cache(maxsize=256)
def _q_table(key: tuple, qv) -> _QTable:
    """The ``_QTable`` of a float or complex q, key = ``payload_key(q)``."""
    return _QTable(qv)


def theorem1_rhs(n: int, q) -> Scalar:
    """Right-hand side of the generalized Trollope-Delange formula.

    Valid for |q| > 1/2, q != 1.  hat F_q(log2 n) is taken through the exact
    dyadic Takagi route, so the whole identity stays in rational arithmetic
    for rational q.  Equals S_q(n)/n.  For exact q = a/b, 1/(2q) = p/r and
    T_{p/r}(n/2^{k+1}) = tn / (r^k 2^{k+1}) (``takagi_dyadic_num``) it is
    a (G_{k+1} n r^k - a^k tn) / (2 b^{k+1} n r^k), G_j = (b^j - a^j)/(b - a).
    For float and complex q, n/2^{k+1} = m/2^e in lowest terms and T_a there
    is ``takagi_dyadic_sum`` over the profile of m.
    """
    if n < 1:
        raise DomainError("theorem1_rhs requires n >= 1")
    qw = as_qweight(q)
    if qw.is_one:
        raise DomainError("Theorem 1 excludes q = 1; use classic_formula")
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("Theorem 1 requires |q| > 1/2")
    qv = qw.q.value
    mode = qw.q.mode
    k = n.bit_length() - 1
    if mode is Mode.EXACT:
        a, b = qv.numerator, qv.denominator
        p, r = qw.a.value.numerator, qw.a.value.denominator
        tn, rk = takagi_dyadic_num(tau_profile(n, k + 1)[::-1], p, r), r ** k
        num = a * (geometric_num(k + 1, a, b) * n * rk - a ** k * tn)
        return Scalar(mode, Fraction(num, 2 * b ** (k + 1) * n * rk))
    table = _q_table(payload_key(qv), qv)
    z = (n & -n).bit_length() - 1
    e = k + 1 - z
    t = takagi_dyadic_sum(tau_profile(n >> z, e)[::-1], table.a_pow(qw.a.value, e))
    hat_f = (1 << (k + 1)) / n * t  # int / int rounds once, as float(Fraction(2^{k+1}, n))
    q_pow = table.q_pow
    bracket = (1 - q_pow[k + 1]) / (1 - qv) - q_pow[k] * hat_f
    return Scalar(mode, qv / 2 * bracket)


def dyadic_formula(n: int, q) -> Scalar:
    """All-q exact formula for S_q(n)/n at the (dyadic) integer points.

    No modulus constraint on q; only q = 1 is excluded.  For exact q = a/b,
    multiplying through by 2n b^{k+1} leaves one integer expression,
    a G_{k+1} n - sum_i a^i b^{k+1-i} min(m_i, 2^i - m_i), m_i = n mod 2^i.
    """
    if n < 1:
        raise DomainError("dyadic_formula requires n >= 1")
    q = as_scalar(q)
    if q.value == 1:
        raise DomainError("dyadic_formula excludes q = 1; use classic_formula")
    qv = q.value
    mode = q.mode
    k = n.bit_length() - 1
    taus = tau_profile(n, k + 1)
    if mode is Mode.EXACT:
        a, b = qv.numerator, qv.denominator
        acc = 0
        ai = 1
        for t in taus:
            ai *= a
            acc = acc * b + ai * t
        head = a * geometric_num(k + 1, a, b) * n
        return Scalar(mode, Fraction(head - acc, 2 * n * b ** (k + 1)))
    table = _q_table(payload_key(qv), qv)
    two_q_pow = table.two_q_pow
    total = 0 * qv
    for i, t in enumerate(taus, 1):
        if t:
            total = total + two_q_pow[i] * (t / (1 << i))
    head = qv / 2 * (1 - table.q_pow[k + 1]) / (1 - qv)
    return Scalar(mode, head - total / (2 * n))


def classic_formula(n: int) -> Scalar:
    """(1/2) log2 n + (1/2) tilde_F_1({log2 n}), the classic S(n)/n formula.

    The Takagi factor is the exact dyadic sum (an integer expression here);
    only the log2 terms are floats, and their fractional parts cancel.
    """
    if n < 1:
        raise DomainError("classic_formula requires n >= 1")
    k = n.bit_length() - 1
    # 2^{k+1} T(n / 2^{k+1}) at a = 1/2 collapses to sum_i min(m_i, 2^i - m_i)
    tk_scaled = sum(tau_profile(n, k + 1))
    lg = math.log2(n)
    u = lg - k
    tilde_f1 = 1.0 - u - tk_scaled / n
    return Scalar.flt(0.5 * lg + 0.5 * tilde_f1)


def vdc_star_discrepancy(n: int) -> Scalar:
    """Star discrepancy of the first n van der Corput points, exact.

    D*_n = (1 + sum_{j<=k} tau(n/2^j)) / n, summed over the common 2^k by
    Horner's rule in 2.
    """
    if n < 1:
        raise DomainError("vdc_star_discrepancy requires n >= 1")
    k = n.bit_length() - 1
    total = 1
    for t in tau_profile(n, k):
        total = 2 * total + t
    return Scalar(Mode.EXACT, Fraction(total, n << k))


def larcher_residual(n: int, weights, limit, tol: float) -> Scalar:
    """r(n) = S(n, gamma) - (n/2) sum_{i<=[log2 n]} gamma_i - n G~(log2 n).

    gamma_i = weights[i] as a float, and gamma_i = limit past the end of
    weights.  S(n, gamma) = sum_{j<n} sum of gamma_i over the set bits i of j
    is summed as sum_i gamma_i c_i(n) over the per-bit counts.  This is the
    o(n) remainder of the Larcher-type asymptotic; it is zero (up to n*tol)
    exactly when the weights are constant.
    """
    if n < 2:
        raise DomainError("larcher_residual requires n >= 2")
    g_term = float(G_tilde_gamma(math.log2(n), limit, tol).value)
    counts = bit_counts(n)
    gamma = [float(weights[i] if i < len(weights) else limit) for i in range(len(counts))]
    s_f = sum(g * c for g, c in zip(gamma, counts))
    return Scalar.flt(s_f - 0.5 * n * sum(gamma) - n * g_term)
