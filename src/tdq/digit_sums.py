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


class _RecTable:
    """The shift recursions at one q = a/b, grown in place only as far as a
    call needs, and never shrunk.

    ``apow[i]`` = a^i, ``bpow[i]`` = b^i and ``pow2[i]`` = R(2^i) =
    S_q(2^i) b^{i+1} for i up to the longest bit length asked for; ``pow2``
    runs G_{i+1} = b G_i + a^i (``g`` = G_i, as ``geometric_num``) into
    S_q(2^i) b^{i+1} = a G_i 2^{i-1} b.  ``R[m]`` = R(m) = S_q(m) b^{bitlen m}
    for m < 2^e, e <= TABLE_BITS, built one bit-length block at a time by the
    top-bit split R(2^k + m) = R(2^k) + R(m) b^{k+1-bitlen m} + m a^{k+1},
    from R(0) = 0.  Each block, and each run of powers, is built whole
    before it is appended, so a reader never sees part of one.
    """

    __slots__ = ("a", "b", "g", "apow", "bpow", "pow2", "R")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.g = a, b, 0
        self.apow, self.bpow, self.pow2, self.R = [1], [1], [0], [0]

    def grow(self, L: int, e: int) -> None:
        """Grow the powers to i = L and R(m) to m < 2^e, e <= min(L, TABLE_BITS)."""
        a, b, apow, bpow = self.a, self.b, self.apow, self.bpow
        if len(apow) <= L:
            g, ap, bp, p2 = self.g, apow[-1:], bpow[-1:], []
            for i in range(len(apow), L + 1):
                g = g * b + ap[-1]
                ap.append(ap[-1] * a)
                bp.append(bp[-1] * b)
                p2.append(a * g * b << (i - 1))
            self.g = g
            self.pow2 += p2
            bpow += bp[1:]
            apow += ap[1:]
        R = self.R
        for k in range(len(R).bit_length() - 1, e):  # the block of bit length k + 1
            p2, ak1 = self.pow2[k], apow[k + 1]
            R += [p2 + R[m] * bpow[k + 1 - m.bit_length()] + m * ak1 for m in range(1 << k)]

    def chunk(self, base: int) -> tuple:
        """(C, D) with R(base + j) = C + D j + b^{L-bitlen j} R(j) for every
        j < 2^TABLE_BITS, base a positive multiple of 2^TABLE_BITS of bit
        length L, the powers grown to L.

        The top-bit split strips each set bit k of base, high to low: with
        m = (base + j) mod 2^k it adds b^{L-1-k} (R(2^k) + m a^{k+1}), whose
        j terms sum to D j, and leaves S_q(j) b^L.
        """
        L = base.bit_length()
        apow, bpow, pow2 = self.apow, self.bpow, self.pow2
        C = D = 0
        while base:
            k = base.bit_length() - 1
            base ^= 1 << k
            c, ak1 = bpow[L - 1 - k], apow[k + 1]
            C += c * (pow2[k] + base * ak1)
            D += c * ak1
        return C, D


@lru_cache(maxsize=16)
def _rec_table(a: int, b: int) -> _RecTable:
    """q = a/b's one ``_RecTable``: a sweep over n grows it once, and the few q
    a check alternates between keep theirs."""
    return _RecTable(a, b)


_LOW = (1 << TABLE_BITS) - 1


def S_rec_num(n: int, a: int, b: int) -> tuple:
    """(R(n), b^L) with R(n) = S_q(n) b^L, L = bitlen n, q = a/b: S_rec_payload's
    recursions scaled.

    Below 2^TABLE_BITS, R(n) is read off q's ``_RecTable``.  Past that, the
    top-bit split strips n's bits above the low j = n mod 2^TABLE_BITS
    (``_RecTable.chunk``, at most L - TABLE_BITS steps), and R(j) is read off
    the table: R(n) = C + D j + b^{L-bitlen j} R(j).
    """
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    L, j = n.bit_length(), n & _LOW
    t = _rec_table(a, b)
    if len(t.apow) <= L or len(t.R) <= j:
        t.grow(L, j.bit_length())
    if j == n:
        return t.R[n], t.bpow[L]
    C, D = t.chunk(n - j)
    return C + D * j + t.bpow[L - j.bit_length()] * t.R[j], t.bpow[L]


def S_rec_nums(q, n_max: int) -> Iterator[tuple]:
    """``S_rec_num(n, a, b)`` for n = 1 .. n_max at an exact q = a/b, pair for
    pair; a float or complex q yields ``S_rec_payload(n, q)`` over 1.

    n = 1 is ``S_rec_num``'s own pair, as in the Trollope-Delange streams.
    Below 2^TABLE_BITS = 2^B, R(n) is read off q's ``_RecTable``.  Past that,
    n runs in chunks H 2^B + j, j < 2^B, each n as C + D j + b^{L-B} R'(j):
    (C, D) is ``_RecTable.chunk(H 2^B)`` and R'(j) = S_q(j) b^B =
    R(j) b^{B-bitlen j}, one list of 2^B values, so each n costs two
    products and two additions and no list outgrows 2^B values.
    """
    qv = as_qweight(q).q.value
    if n_max < 1:
        return
    if not isinstance(qv, Fraction):
        yield from ((S_rec_payload(n, qv), 1) for n in range(1, n_max + 1))
        return
    a, b = qv.numerator, qv.denominator
    yield S_rec_num(1, a, b)
    e = min(n_max.bit_length(), TABLE_BITS)
    t = _rec_table(a, b)
    t.grow(n_max.bit_length(), e)
    R, bpow = t.R, t.bpow
    for k in range(1, e):
        yield from zip(islice(R, 1 << k, min(n_max + 1, 2 << k)), repeat(bpow[k + 1]))
    if n_max <= _LOW:
        return
    scaled = [r * bpow[TABLE_BITS - j.bit_length()] for j, r in enumerate(R)]
    for base in range(1 << TABLE_BITS, n_max + 1, 1 << TABLE_BITS):
        (C, D), L = t.chunk(base), base.bit_length()
        c, top = bpow[L - TABLE_BITS], min(n_max - base, _LOW)
        yield from zip((C + D * j + c * r for j, r in zip(range(top + 1), scaled)), repeat(bpow[L]))


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
