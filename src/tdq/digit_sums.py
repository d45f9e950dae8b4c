"""Per-bit counts, q-weighted digital sums, and cumulative sums S_q(n).

S_q(n) is computed by four independent routes: literal summation (the
brute-force oracle), the closed form at powers of two, a descent using the
shift recursions, and the per-bit counts c_i(n).  The routes must agree
exactly in exact mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress, islice, repeat, zip_longest
from operator import add, mul
from typing import Iterator

from .errors import DomainError
from .scalar import TABLE_BITS, Scalar, as_qweight, checked_pow, tau_profile


def bit_counts(n: int) -> list[int]:
    """[c_0(n), c_1(n), ...] with c_i(n) = #{j < n : bit i of j set}, n >= 0.

    Trollope (1968), Delange (1975): 2 c_i(n) = n - 2^{i+1} tau(n / 2^{i+1}),
    read off ``tau_profile``.  c_i(n) = 0 from i = bit_length(n) on, so the
    list stops there.
    """
    if n < 0:
        raise DomainError("bit_counts requires n >= 0")
    return [(n - t) >> 1 for t in tau_profile(n, n.bit_length())]


# ---------------------------------------------------------------------------
# payload-level helpers (used by verification sweeps; q given as Fraction /
# float / complex).  For q = a/b the Fraction paths run on integer numerators
# over a power of b, known in advance, and normalise once at the end.


def sq_payload(n: int, qv):
    total = 0 * qv
    w = qv
    while n:
        if n & 1:
            total = total + w
        n >>= 1
        if n:
            w = w * qv
    return total


def geometric_num(k: int, a: int, b: int) -> int:
    """G_k = (b^k - a^k)/(b - a) = sum_{i<k} a^i b^{k-1-i}; k when a = b."""
    if a == b:
        return k
    return (b ** k - a ** k) // (b - a)


def _pow2_num(k: int, a: int, b: int) -> int:
    """S_q(2^k) b^k = a G_k 2^{k-1} for q = a/b and k >= 1."""
    return a * geometric_num(k, a, b) << (k - 1)


def S_pow2_payload(k: int, qv):
    if isinstance(qv, Fraction):
        a, b = qv.numerator, qv.denominator
        return Fraction(_pow2_num(k, a, b), b ** k) if k else Fraction(0)
    if qv == 1:
        return (0 * qv) + k * (1 << (k - 1)) if k else 0 * qv
    return qv * (1 - checked_pow(qv, k)) / (1 - qv) * (1 << (k - 1)) if k else 0 * qv


@lru_cache(maxsize=256)
def _rec_table(a: int, b: int, K: int) -> tuple:
    """((a^i), (b^i), (S_q(2^i) b^{i+1})) for i = 0 .. K and q = a/b.

    Depends on q and K only, so a sweep over n builds it once per bit length;
    at the CLI's n < 2^62 a table is a few kB.  The last tuple runs G_{i+1} = b G_i + a^i (G_i = ``geometric_num(i, a, b)``)
    into S_q(2^i) b^{i+1} = a G_i 2^{i-1} b.
    """
    apow, bpow, pow2 = [1], [1], [0]
    g = 0
    for i in range(1, K + 1):
        g = g * b + apow[-1]
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
        pow2.append(a * g * b << (i - 1))
    return tuple(apow), tuple(bpow), tuple(pow2)


def S_rec_num(n: int, a: int, b: int) -> tuple:
    """(R(n), b^L) with R(n) = S_q(n) b^L, L = bitlen n, q = a/b: S_rec_payload's
    recursions scaled.

    With k = L - 1, R(2^k) = S_q(2^k) b^{k+1}, an even n gives
    R(n) = 2a R(n/2) + (n/2) a b^k, and an odd n = 2^k + m gives
    R(n) = R(2^k) + R(m) b^{k+1-bitlen m} + m a^{k+1}; R(1) = 0.  The descent
    carries R(n_0) = acc + mult R(n): even steps down to the odd part of n
    (or a power of two), then odd steps, whose m stays odd, down to 1.
    """
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    k = n.bit_length() - 1
    apow, bpow, pow2 = _rec_table(a, b, k + 1)
    den = bpow[k + 1]
    acc, mult = 0, 1
    while not n & 1:
        if n & (n - 1) == 0:
            return acc + mult * pow2[k], den
        n >>= 1
        acc += mult * (n * a * bpow[k])
        mult *= 2 * a
        k -= 1
    while n > 1:
        n -= 1 << k
        j = n.bit_length() - 1
        acc += mult * (pow2[k] + n * apow[k + 1])
        mult *= bpow[k - j]
        k = j
    return acc, den


def S_rec_nums(n_max: int, a: int, b: int) -> Iterator[tuple]:
    """``S_rec_num(n, a, b)`` for n = 1 .. n_max, pair for pair.

    Below 2^TABLE_BITS, R(n) is built bottom-up, one bit-length block at a
    time, from ``S_rec_num``'s own R(1) and R(0) = 0: the top-bit split
    R(2^k + m) = R(2^k) + R(m) b^{k+1-bitlen m} + m a^{k+1} that ``S_rec_num``
    unrolls for odd n holds for every m < 2^k.  Past that, ``S_rec_num`` per
    n, so the list of R(n) stays 2^TABLE_BITS long.
    """
    if n_max < 1:
        return
    first = S_rec_num(1, a, b)
    yield first
    R = [0, first[0]]
    top = min(n_max, (1 << TABLE_BITS) - 1)
    apow, bpow, pow2 = _rec_table(a, b, top.bit_length())
    for k in range(1, top.bit_length()):
        lo, hi = 1 << k, min(top + 1, 2 << k)
        p2, ak1 = pow2[k], apow[k + 1]
        R += [p2 + R[m] * bpow[k + 1 - m.bit_length()] + m * ak1 for m in range(hi - lo)]
        yield from zip(R[lo:hi], repeat(bpow[k + 1]))
    yield from (S_rec_num(n, a, b) for n in range(top + 1, n_max + 1))


def S_rec_payload(n: int, qv):
    if isinstance(qv, Fraction):
        return Fraction(*S_rec_num(n, qv.numerator, qv.denominator))
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    if n == 1:
        return 0 * qv
    if n & (n - 1) == 0:
        return S_pow2_payload(n.bit_length() - 1, qv)
    if n & 1 == 0:
        half = n >> 1
        return 2 * qv * S_rec_payload(half, qv) + half * qv
    k = n.bit_length() - 1
    m = n - (1 << k)
    return S_pow2_payload(k, qv) + S_rec_payload(m, qv) + m * checked_pow(qv, k + 1)


def _digit_weights(qv, K: int):
    """(den, [w_0, ..., w_{K-1}]) with w_i / den = q^{i+1}, the weights of bits 0 .. K - 1.

    For q = a/b the w_i are the integers a^{i+1} b^{K-1-i} over den = b^K;
    otherwise w_i = q^{i+1} by repeated multiplication, den = 1.
    """
    if isinstance(qv, Fraction):
        a, b = qv.numerator, qv.denominator
        return b ** K, [a ** (i + 1) * b ** (K - 1 - i) for i in range(K)]
    return 1, list(accumulate(repeat(qv, K), mul))  # q, q*q, (q*q)*q, ...


def orbit_numerators(v: int, qv, n: int) -> tuple:
    """(den, sums), sums[j - 1] / den = S(j) = s_q(v) + ... + s_q(v + j - 1), j = 1 .. n.

    The odometer orbit from v: the points need K = bit_length(v + n - 1)
    bits, with the digit weights w_i over den of ``_digit_weights(qv, K)``.
    s_q is additive over bit blocks: s_q(j) = hi + lo[j mod 2^B], with lo
    the table of s_q over the low B = min(K, 8) bits and hi the sum of the
    set weights at and above bit B, taken afresh for each block of 2^B
    points.  Each s_q(j) is a fixed function of j and q, so no rounding
    carries along the orbit.  B stays 8 whatever n is (fewer bits leave no
    high part), so a longer stream extends a shorter one bit for bit.
    Exact q = a/b streams integer numerators over den = b^K, unreduced;
    float and complex q stream the payloads themselves over den = 1.
    """
    if n < 1:
        return 1, iter(())
    K = (v + n - 1).bit_length()
    den, w = _digit_weights(qv, K)
    zero = 0 if isinstance(qv, Fraction) else 0 * qv
    B = min(K, 8)
    lo, high = [zero], w[B:]
    for wi in w[:B]:
        lo += [x + wi for x in lo]

    def blocks():
        for H in range(v >> B << B, v + n, 1 << B):
            hi = reduce(add, compress(high, (H >> i & 1 for i in range(B, K))), zero)
            yield map(add, repeat(hi), islice(lo, max(v - H, 0), min(v + n - H, 1 << B)))

    return den, accumulate(chain.from_iterable(blocks()))


def orbit_sums(v: int, qv, n: int) -> Iterator:
    """Payloads S(1), ..., S(n) of ``orbit_numerators``: a ``Fraction`` per sum for exact q."""
    den, sums = orbit_numerators(v, qv, n)
    return map(Fraction, sums, repeat(den)) if isinstance(qv, Fraction) else sums


def window_sum(v: int, n: int, qv):
    """s_q(v) + s_q(v + 1) + ... + s_q(v + n - 1), n >= 1: a ``Fraction`` for exact q.

    Bit i is set c_i(v + n) - c_i(v) times in the window (``bit_counts``),
    and only bits below K = bit_length(v + n - 1) ever are, so the sum is
    d_0 w_0 + d_1 w_1 + ... over ``_digit_weights(qv, K)``, folded left:
    O(K) work, not n steps.
    """
    K = (v + n - 1).bit_length()
    d = [hi - lo for hi, lo in zip_longest(bit_counts(v + n)[:K], bit_counts(v), fillvalue=0)]
    den, w = _digit_weights(qv, K)
    if isinstance(qv, Fraction):
        return Fraction(sum(map(mul, d, w)), den)
    return reduce(add, map(mul, d, w), 0 * qv)


def iter_S_direct(n_max: int, qv) -> Iterator:
    """(n, S_q(n)) payloads for n = 1 .. n_max by literal accumulation: the orbit sums from 0."""
    return enumerate(orbit_sums(0, qv, n_max), 1)


# ---------------------------------------------------------------------------
# public API


def s_q(n: int, q) -> Scalar:
    """The q-weighted digit sum: sum of omega_i * q^{i+1} over set bits of n."""
    if n < 0:
        raise DomainError("s_q requires n >= 0")
    qw = as_qweight(q)
    return Scalar(sq_payload(n, qw.q.value))


def S_q_direct(n: int, q) -> Scalar:
    """Brute-force oracle: sum of s_q(k) for k = 0 .. n-1."""
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    qv = as_qweight(q).q.value
    den, sums = orbit_numerators(0, qv, n)
    for total in sums:
        pass
    return Scalar(Fraction(total, den) if isinstance(qv, Fraction) else total)


def S_q_pow2(k: int, q) -> Scalar:
    """Closed form S_q(2^k) = q (1 - q^k)/(1 - q) 2^{k-1}; limit k 2^{k-1} at q = 1."""
    if k < 0:
        raise DomainError("S_q_pow2 requires k >= 0")
    qw = as_qweight(q)
    return Scalar(S_pow2_payload(k, qw.q.value))


def S_q_counts(n: int, q) -> Scalar:
    """S_q(n) = sum_i c_i(n) q^{i+1} from the per-bit counts (``window_sum`` from 0)."""
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    qw = as_qweight(q)
    return Scalar(window_sum(0, n, qw.q.value))


def S_q_recursive(n: int, q) -> Scalar:
    """S_q(n) via the shift recursions; equals S_q_direct(n) exactly."""
    qw = as_qweight(q)
    return Scalar(S_rec_payload(n, qw.q.value))
