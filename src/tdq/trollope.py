"""Classic and generalized Trollope-Delange formulas and their relatives.

The exact identities are evaluated entirely in rational (or complex) payload
arithmetic: the argument 2^{u-1} = n/2^{k+1} is dyadic, so the Takagi factor
comes from the finite dyadic route and never touches real powers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .digit_sums import bit_counts, geometric_num
from .errors import DomainError
from .scalar import Mode, Regime, Scalar, as_qweight, tau_profile
from .takagi import G_tilde_gamma, takagi_dyadic_num, takagi_dyadic_sum


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
    k = n.bit_length() - 1
    if qw.q.mode is Mode.EXACT:
        a, b = qv.numerator, qv.denominator
        p, r = qw.a.value.numerator, qw.a.value.denominator
        tn, rk = takagi_dyadic_num(tau_profile(n, k + 1)[::-1], p, r), r ** k
        num = a * (geometric_num(k + 1, a, b) * n * rk - a ** k * tn)
        return Scalar(Fraction(num, 2 * b ** (k + 1) * n * rk))
    z = (n & -n).bit_length() - 1
    e = k + 1 - z
    t = takagi_dyadic_sum(tau_profile(n >> z, e)[::-1], qw.a_pow(e))
    hat_f = (1 << (k + 1)) / n * t  # int / int rounds once, as float(Fraction(2^{k+1}, n))
    q_pow = qw.q_pow
    bracket = (1 - q_pow[k + 1]) / (1 - qv) - q_pow[k] * hat_f
    return Scalar(qv / 2 * bracket)


def dyadic_formula(n: int, q) -> Scalar:
    """All-q exact formula for S_q(n)/n at the (dyadic) integer points.

    No modulus constraint on q, q = 0 included; only q = 1 is excluded.
    For exact q = a/b, multiplying through by 2n b^{k+1} leaves one integer
    expression, a G_{k+1} n - sum_i a^i b^{k+1-i} min(m_i, 2^i - m_i),
    m_i = n mod 2^i.
    """
    if n < 1:
        raise DomainError("dyadic_formula requires n >= 1")
    qw = as_qweight(q)
    if qw.is_one:
        raise DomainError("dyadic_formula excludes q = 1; use classic_formula")
    qv = qw.q.value
    k = n.bit_length() - 1
    taus = tau_profile(n, k + 1)
    if qw.q.mode is Mode.EXACT:
        a, b = qv.numerator, qv.denominator
        acc = 0
        ai = 1
        for t in taus:
            ai *= a
            acc = acc * b + ai * t
        head = a * geometric_num(k + 1, a, b) * n
        return Scalar(Fraction(head - acc, 2 * n * b ** (k + 1)))
    two_q_pow = qw.two_q_pow
    total = 0 * qv
    for i, t in enumerate(taus, 1):
        if t:
            total = total + two_q_pow[i] * (t / (1 << i))
    head = qv / 2 * (1 - qw.q_pow[k + 1]) / (1 - qv)
    return Scalar(head - total / (2 * n))


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
    return Scalar(Fraction(total, n << k))


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
