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
from .scalar import Mode, Regime, Scalar, as_qweight, tau_profile, tau_sum, tau_weighted_sum, tau_weighted_sums
from .takagi import G_tilde_gamma, takagi_dyadic_sum


def theorem1_num(n: int, q) -> tuple:
    """(num, den) with num/den = ``theorem1_rhs(n, q)``: integers for exact q,
    else the payload over den = 1.

    For q = a/b, 1/(2q) = p/r and T_{p/r}(n/2^{k+1}) = tn / (r^k 2^{k+1}),
    tn = ``tau_weighted_sum(n, k + 1, 2p, r)``, num/den is
    a (G_{k+1} n r^k - a^k tn) / (2 b^{k+1} n r^k), G_j = (b^j - a^j)/(b - a).
    Not reduced: a sweep decides num/den = S_q(n)/n by one cross-product.
    For float and complex q, T_a(n/2^{k+1}) is ``takagi_dyadic_sum``.
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
        tn, rk = tau_weighted_sum(n, k + 1, 2 * p, r), r ** k
        num = a * (geometric_num(k + 1, a, b) * n * rk - a ** k * tn)
        return num, 2 * b ** (k + 1) * n * rk
    t = takagi_dyadic_sum(n, k + 1, qw.a_pow(k + 1))
    hat_f = (1 << (k + 1)) / n * t  # int / int rounds once, as float(Fraction(2^{k+1}, n))
    q_pow = qw.q_pow
    bracket = (1 - q_pow[k + 1]) / (1 - qv) - q_pow[k] * hat_f
    return qv / 2 * bracket, 1


def theorem1_nums(q, n_max: int):
    """``theorem1_num(n, q)`` for n = 1 .. n_max, pair for pair.

    A float or complex q yields each n's payload over 1 as ``theorem1_rhs``
    boxes it, so an overflow raises where it does.  At an exact q = a/b, n = 1
    is ``theorem1_num``'s own pair, so q is checked once, in its words.
    With 1/(2q) = p/r and e = k + 1 the bit length of n, T's numerator tn is
    ``tau_weighted_sums`` at (u, v) = (2p, r), and num = a G_e r^k n - a^(k+1) tn
    over den = 2 b^e r^k n: the factors of n and tn are taken once per e.
    """
    qw = as_qweight(q)
    if n_max < 1:
        return
    if qw.q.mode is not Mode.EXACT:
        yield from ((theorem1_rhs(n, qw).value, 1) for n in range(1, n_max + 1))
        return
    yield theorem1_num(1, qw)
    a, b = qw.q.value.numerator, qw.q.value.denominator
    p, r = qw.a.value.numerator, qw.a.value.denominator
    ws = tau_weighted_sums(2, n_max + 1, 2 * p, r)
    for e in range(2, n_max.bit_length() + 1):
        rk = r ** (e - 1)
        head, tail, den = a * geometric_num(e, a, b) * rk, a ** e, 2 * b ** e * rk
        yield from ((head * n - tail * w, den * n) for n, w in zip(range(1 << (e - 1), min(n_max + 1, 1 << e)), ws))


def theorem1_rhs(n: int, q) -> Scalar:
    """Right-hand side of the generalized Trollope-Delange formula.

    Valid for |q| > 1/2, q != 1.  hat F_q(log2 n) is taken through the exact
    dyadic Takagi route, so the whole identity stays in rational arithmetic
    for rational q.  Equals S_q(n)/n.  ``theorem1_num``, boxed.
    """
    num, den = theorem1_num(n, q)
    return Scalar(Fraction(num, den) if type(num) is int else num)


def dyadic_num(n: int, q) -> tuple:
    """(num, den) with num/den = ``dyadic_formula(n, q)``: integers for exact q,
    else the payload over den = 1.

    For q = a/b, multiplying through by den = 2n b^{k+1} leaves one integer
    expression, num = a G_{k+1} n - sum_i a^i b^{k+1-i} min(m_i, 2^i - m_i),
    m_i = n mod 2^i, and that sum is a ``tau_weighted_sum(n, k + 1, b, a)``.
    Not reduced, like ``theorem1_num``.
    """
    if n < 1:
        raise DomainError("dyadic_formula requires n >= 1")
    qw = as_qweight(q)
    if qw.is_one:
        raise DomainError("dyadic_formula excludes q = 1; use classic_formula")
    qv = qw.q.value
    k = n.bit_length() - 1
    if qw.q.mode is Mode.EXACT:
        a, b = qv.numerator, qv.denominator
        head = a * geometric_num(k + 1, a, b) * n
        return head - a * tau_weighted_sum(n, k + 1, b, a), 2 * n * b ** (k + 1)
    two_q_pow = qw.two_q_pow
    total = 0 * qv
    for i, t in enumerate(tau_profile(n, k + 1), 1):
        if t:
            total = total + two_q_pow[i] * (t / (1 << i))
    head = qv / 2 * (1 - qw.q_pow[k + 1]) / (1 - qv)
    return head - total / (2 * n), 1


def dyadic_nums(q, n_max: int):
    """``dyadic_num(n, q)`` for n = 1 .. n_max, pair for pair, q = 0 included.

    A float or complex q yields each n's payload over 1 as ``dyadic_formula``
    boxes it.  At an exact q = a/b, n = 1 is ``dyadic_num``'s own pair, so q is
    checked once, in its words.  The Horner sum over the profile is a W(n), W
    ``tau_weighted_sums`` at (u, v) = (b, a), so num = a G_e n - a W(n) over
    den = 2 b^e n, e the bit length of n.
    """
    qw = as_qweight(q)
    if n_max < 1:
        return
    if qw.q.mode is not Mode.EXACT:
        yield from ((dyadic_formula(n, qw).value, 1) for n in range(1, n_max + 1))
        return
    yield dyadic_num(1, qw)
    a, b = qw.q.value.numerator, qw.q.value.denominator
    ws = tau_weighted_sums(2, n_max + 1, b, a)
    for e in range(2, n_max.bit_length() + 1):
        head, den = a * geometric_num(e, a, b), 2 * b ** e
        yield from ((head * n - a * w, den * n) for n, w in zip(range(1 << (e - 1), min(n_max + 1, 1 << e)), ws))


def dyadic_formula(n: int, q) -> Scalar:
    """All-q exact formula for S_q(n)/n at the (dyadic) integer points.

    No modulus constraint on q, q = 0 included; only q = 1 is excluded.
    ``dyadic_num``, boxed.
    """
    num, den = dyadic_num(n, q)
    return Scalar(Fraction(num, den) if type(num) is int else num)


def classic_formula(n: int) -> Scalar:
    """(1/2) log2 n + (1/2) tilde_F_1({log2 n}), the classic S(n)/n formula.

    The Takagi factor is the exact dyadic sum (an integer expression here);
    only the log2 terms are floats, and their fractional parts cancel.
    """
    if n < 1:
        raise DomainError("classic_formula requires n >= 1")
    k = n.bit_length() - 1
    # 2^{k+1} T(n / 2^{k+1}) at a = 1/2 collapses to sum_i min(m_i, 2^i - m_i)
    tk_scaled = tau_sum(n, k + 1)
    lg = math.log2(n)
    u = lg - k
    tilde_f1 = 1.0 - u - tk_scaled / n
    return Scalar(0.5 * lg + 0.5 * tilde_f1)


def vdc_star_discrepancy(n: int) -> Scalar:
    """Star discrepancy of the first n van der Corput points, exact.

    D*_n = (1 + sum_{j<=k} tau(n/2^j)) / n, over the common 2^k:
    2^k + ``tau_weighted_sum(n, k, 2, 1)``.
    """
    if n < 1:
        raise DomainError("vdc_star_discrepancy requires n >= 1")
    k = n.bit_length() - 1
    return Scalar(Fraction((1 << k) + tau_weighted_sum(n, k, 2, 1), n << k))


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
    return Scalar(s_f - 0.5 * n * sum(gamma) - n * g_term)
