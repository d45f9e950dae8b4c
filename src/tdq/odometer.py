"""Dyadic odometer, ergodic sums, and fluctuation (limiting) curves.

``ergodic_sum`` (and so ``birkhoff_deviation``) is a difference of per-bit
counts: over the window v, ..., v + n - 1 bit i is set c_i(v + n) - c_i(v)
times, so the sum costs O(log(v + n)), not n steps.  The streaming sums
(``iter_ergodic_sums``, ``orbit_partial_sums``) are ``digit_sums.orbit_sums``
from the point's value.  Exact q = a/b works on integer numerators over b^K
in both, so exact runs stay exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .digit_sums import S_pow2_payload, S_rec_payload, orbit_sums, window_sum
from .errors import DomainError
from .scalar import Mode, Regime, Scalar, as_qweight, as_scalar, checked_pow
from .takagi import takagi_at, takagi_grid


@dataclass(frozen=True, init=False)
class OdometerPoint:
    """A dyadic integer with a zero tail, given by its bits (LSB first).

    The odometer reads only its ``value``; ``width``, the number of bits it
    was written with, is kept to print it.  A step past the top bit widens it.
    """

    value: int
    width: int

    def __init__(self, bits: Sequence[int] = ()):
        if any(b not in (0, 1) for b in bits):
            raise DomainError("odometer bits must be 0 or 1")
        object.__setattr__(self, "value", sum(b << i for i, b in enumerate(bits)))
        object.__setattr__(self, "width", len(bits))

    @classmethod
    def _of(cls, value: int, width: int) -> "OdometerPoint":
        """The point v = ``value`` written with max(``width``, bit_length(v)) bits."""
        pt = cls.__new__(cls)
        object.__setattr__(pt, "value", value)
        object.__setattr__(pt, "width", max(width, value.bit_length()))
        return pt

    @staticmethod
    def zero() -> "OdometerPoint":
        return OdometerPoint(())

    @staticmethod
    def from_int(n: int) -> "OdometerPoint":
        if n < 0:
            raise DomainError("an odometer point needs n >= 0")
        return OdometerPoint._of(n, 0)


def odometer_step(omega: OdometerPoint) -> OdometerPoint:
    """Add one with carry: the point v + 1, one bit wider on a full carry."""
    return OdometerPoint._of(omega.value + 1, omega.width)


def iter_ergodic_sums(omega: OdometerPoint, q, n: int) -> Iterator:
    """The payloads S_{q,omega}(j), j = 1 .. n, one orbit step apart (``orbit_sums``)."""
    if n < 1:
        raise DomainError("ergodic sums need n >= 1")
    return orbit_sums(omega.value, as_qweight(q).q.value, n)


def ergodic_sum(omega: OdometerPoint, q, n: int) -> Scalar:
    """S_{q,omega}(n) = sum of s_q over the first n orbit points.

    With v the value of omega this is sum_i d_i q^{i+1}, d_i = c_i(v + n) -
    c_i(v) (``bit_counts``), over the K = bit_length(v + n - 1) bits that a
    point of the window can set (``window_sum``): O(K) work in place of n
    points.  The weights are the orbit stream's: exact q = a/b sums integer
    numerators over b^K, float and complex q multiply q^{i+1} out by
    repeated products.

    Float and complex error, barring overflow (which raises): with u = 2^-53,
    eta = 2^-1075 (the largest error of a product rounded into the subnormal
    range) and mu = max(1, |q|), it is at most
    4 (K + 1) u sum_i d_i |q|^{i+1} + 4 K eta sum_i d_i mu^i.
    Per term, q^{i+1} takes i rounded products (u each; sqrt(2) gamma_2 ~
    2.83 u for complex q, Higham, Lemma 3.5), d_i q^{i+1} two more, and the
    running sum K - 1 (componentwise, so in modulus by Minkowski's
    inequality): 2.83 (K - 1) + K + 1 < 4 (K + 1) to first order, which
    leaves room for the higher-order terms.  Underflow adds at most eta per
    real product and 2 sqrt(2) eta (1 + u) < 3 eta per complex one, each
    carried into the later powers times at most mu (1 + 2.83 u) a step, plus
    sqrt(2) eta for d_i q^{i+1}; sums rounded into the subnormal range are
    exact.  That is below (3 i + 1.5) eta mu^i (1 + 4 K u) < 4 K eta mu^i for
    term i.
    """
    if n < 1:
        raise DomainError("ergodic_sum requires n >= 1")
    qw = as_qweight(q)
    return Scalar(window_sum(omega.value, n, qw.q.value))


def orbit_partial_sums(omega: OdometerPoint, q, l: int) -> list:
    """Payload list P with P[j] = S_{q,omega}(j), j = 0 .. l."""
    if l < 1:
        raise DomainError("orbit_partial_sums requires l >= 1")
    qv = as_qweight(q).q.value
    return [0 * qv, *orbit_sums(omega.value, qv, l)]


def birkhoff_deviation(omega: OdometerPoint, q, n: int) -> Scalar:
    """(1/n) S_{q,omega}(n) - E s_q, with E s_q = q / (2 (1 - q))."""
    qw = as_qweight(q)
    if qw.q.modulus() >= 1:
        raise DomainError("birkhoff_deviation requires |q| < 1")
    qv = qw.q.value
    mean = ergodic_sum(omega, qw, n).value / n
    return Scalar(mean - qv / (2 * (1 - qv)))


# ---------------------------------------------------------------------------
# G_q


def G_q(n: int, q) -> Scalar:
    """G_q(n) = (S_q(n) - (n/p) S_q(p)) / (p q^k), p = 2^k = 2^[log2 n].

    Lemma 1: G_q(n) = F_q((n - p)/p).  A p q^k that is 0 (q = 0, n >= 2)
    or that underflows to 0 (a float or complex q) raises ``DomainError``.
    """
    if n < 1:
        raise DomainError("G_q requires n >= 1")
    qw = as_qweight(q)
    qv = qw.q.value
    k = n.bit_length() - 1
    p = 1 << k
    s_n = S_rec_payload(n, qv)
    s_p = S_pow2_payload(k, qv)
    ratio = Fraction(n, p)
    factor = ratio if qw.q.mode is Mode.EXACT else float(ratio)
    den = p * checked_pow(qv, k)
    if not den:
        raise DomainError(f"p q^k = 2^{k} ({qv!r})^{k} {'underflows to' if qv else 'is'} 0")
    return Scalar((s_n - factor * s_p) / den)


# ---------------------------------------------------------------------------
# fluctuation curves


class Normalization(enum.Enum):
    MAX_ABS = "max-abs"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class FluctuationCurve:
    grid: tuple
    values: tuple[Scalar, ...]
    l: int
    R: Scalar
    normalization: Normalization


def _interp(partials: Sequence, pos):
    """Linear interpolation of the partial-sum sequence at a real position."""
    i = math.floor(pos)
    frac = pos - i
    if frac == 0:
        return partials[int(i)]
    lo = partials[int(i)]
    return lo + frac * (partials[int(i) + 1] - lo)


def _phi_numerators(sums: Sequence, l: int, grid: tuple) -> tuple[list[int], int]:
    """(X, den) with S(t l) - t S(l) = X_t / den at each rational t of the grid.

    With W the lcm of the grid's denominators, t = u/W and u l = i W + r, so
    S(t l) = S(i) + (r/W) (S(i + 1) - S(i)).  The sums read come to the lcm
    D of their denominators as integers s_i, which gives
    X_t = s_i W + r (s_{i+1} - s_i) - u s_l over den = D W.
    """
    W = math.lcm(*(t.denominator for t in grid))
    us = [t.numerator * (W // t.denominator) for t in grid]
    if not all(0 <= u <= W for u in us):
        raise DomainError("grid abscissae must lie in [0,1]")
    pos = [divmod(u * l, W) for u in us]
    read = {l, *(i for i, _ in pos), *(i + 1 for i, r in pos if r)}
    D = math.lcm(*(sums[i].denominator for i in read))
    s = {i: sums[i].numerator * (D // sums[i].denominator) for i in read}
    sl = s[l]
    X = [
        (s[i] * W + r * (s[i + 1] - s[i]) if r else s[i] * W) - u * sl
        for u, (i, r) in zip(us, pos)
    ]
    return X, D * W


def phi_curve(
    partial_sums: Sequence,
    l: int,
    grid: Iterable,
    normalization: Normalization = Normalization.MAX_ABS,
    R: Optional[Scalar] = None,
) -> FluctuationCurve:
    """phi_l(t) = (S(t l) - t S(l)) / R on the grid, S linearly interpolated.

    ``partial_sums`` are the payloads S(0), ..., S(l) at least, as
    ``orbit_partial_sums`` returns them.  Exact sums on a grid of rationals
    run on integers over one denominator (``_phi_numerators``) and build one
    ``Fraction`` per value.  The curve takes the widest mode among its
    inputs, in ``Mode``'s order: a float abscissa or normaliser makes exact
    sums a float curve, a complex normaliser any curve complex.
    """
    if l < 1:
        raise DomainError("phi_curve requires l >= 1")
    grid = tuple(grid)
    if not grid:
        raise DomainError("phi_curve requires a non-empty grid")
    if len(partial_sums) < l + 1:
        raise DomainError("partial sums must cover [0, l]")
    mode = as_scalar(partial_sums[0]).mode
    rational = all(isinstance(t, (int, Fraction)) for t in grid)
    exact = mode is Mode.EXACT and rational
    if exact:
        raw, den = _phi_numerators(partial_sums, l, grid)
    else:
        raw, total = [], partial_sums[l]
        for t in grid:
            tq = t if mode is Mode.EXACT else float(t)
            if not 0 <= t <= 1:
                raise DomainError("grid abscissae must lie in [0,1]")
            raw.append(_interp(partial_sums, tq * l) - tq * total)
    if normalization is Normalization.MAX_ABS:
        m = max(abs(v) for v in raw)
        if exact:
            m = Fraction(m, den)
        r_scalar = as_scalar(m if m != 0 else (1 if mode is Mode.EXACT else 1.0))
    else:
        if R is None:
            raise DomainError("explicit normalization needs R")
        r_scalar = as_scalar(R)
        if r_scalar.is_zero():
            raise DomainError("normalizer R must be non-zero (given, or underflowed to 0)")
    r_val = r_scalar.value
    if exact and r_scalar.mode is Mode.EXACT:
        rn, rd = r_val.numerator, r_val.denominator
        values = [Fraction(v * rd, den * rn) for v in raw]
    else:
        values = [(Fraction(v, den) if exact else v) / r_val for v in raw]
    out = Mode.widest(mode, r_scalar.mode, mode if rational else Mode.FLOAT)
    values = tuple(Scalar(v) if out is mode else Scalar.lift(v, out) for v in values)
    return FluctuationCurve(grid=grid, values=values, l=l, R=r_scalar, normalization=normalization)


@dataclass(frozen=True)
class Prop2Result:
    curve: FluctuationCurve
    max_residual: Scalar  # max |phi_l(t_j) + q T_a(t_j)| over the grid


def prop2_R(q, N: int) -> Scalar:
    """Proposition 2's normalizer R = (2q)^{N-1} at the window l = 2^N."""
    qw = as_qweight(q)
    try:
        return Scalar((2 * qw.q.value) ** (N - 1))
    except OverflowError:
        raise DomainError(f"normalizer R = (2q)^{N - 1} overflows a float") from None
    except ZeroDivisionError:
        raise DomainError(f"normalizer R = (2q)^{N - 1} has no value at q = 0") from None


def prop2_exact(q, N: int) -> Prop2Result:
    """The exact limiting-curve identity at l = 2^N, R = (2q)^{N-1}.

    Grid points t_j = j/2^{N-1}; the returned values equal -q T_a(t_j) with
    zero residual in exact mode.
    """
    if N < 1:
        raise DomainError("prop2_exact requires N >= 1")
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("Proposition 2 requires |q| > 1/2")
    l = 1 << N
    partials = orbit_partial_sums(OdometerPoint.zero(), qw, l)
    grid = tuple(Fraction(j, 1 << (N - 1)) for j in range((1 << (N - 1)) + 1))
    curve = phi_curve(partials, l, grid, Normalization.EXPLICIT, prop2_R(qw, N))
    return Prop2Result(curve=curve, max_residual=sup_distance_to_limit(curve, qw))


def _takagi_on(grid, a) -> list:
    """T_a payloads on the grid: ``takagi_grid`` when the grid is exactly
    {j/2^m : j = 0 .. 2^m}, else ``takagi_at`` per point."""
    n = len(grid) - 1
    m = n.bit_length() - 1
    if n >= 1 and n == 1 << m and all(
        isinstance(t, (int, Fraction)) and t.numerator << m == j * t.denominator for j, t in enumerate(grid)
    ):
        return [v.value for v in takagi_grid(a, m)]
    return [takagi_at(t, a).value for t in grid]


def _sup_gap(xs: Sequence, ys: Sequence, c):
    """max |x + c y| over paired payloads xs, ys.

    When every x, y and c is rational the terms come to one denominator L,
    the lcm of the x denominators and of c's denominator times the y
    denominators: the max is taken over integers and is one ``Fraction``.
    """
    if isinstance(c, (int, Fraction)) and all(isinstance(v, Fraction) for v in (*xs, *ys)):
        cn, cd = c.numerator, c.denominator
        L = math.lcm(math.lcm(*(x.denominator for x in xs)), cd * math.lcm(*(y.denominator for y in ys)))
        Ly = L // cd
        return Fraction(max(
            abs(x.numerator * (L // x.denominator) + cn * y.numerator * (Ly // y.denominator))
            for x, y in zip(xs, ys)
        ), L)
    return max(abs(x + c * y) for x, y in zip(xs, ys))


def sup_distance_to_limit(curve: FluctuationCurve, q) -> Scalar:
    """max over the grid of |phi(t) + q T_a(t)|, T_a by ``takagi_at``."""
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("limiting curve requires |q| > 1/2")
    worst = _sup_gap([v.value for v in curve.values], _takagi_on(curve.grid, qw.a), qw.q.value)
    return Scalar.lift(worst, Mode.EXACT if isinstance(worst, Fraction) else Mode.FLOAT)


@dataclass(frozen=True)
class StabilizerReport:
    entries: tuple[tuple[int, float], ...]  # (window length, sup distance)
    best_l: int
    best_distance: float


def stabilizer_search(
    omega: OdometerPoint, q, candidate_windows: Sequence[int], grid: Iterable
) -> StabilizerReport:
    """Empirical explorer for stabilizing windows; no convergence guarantee.

    For each candidate l the MaxAbs-normalized fluctuation curve is compared
    to -q T_a scaled the same way; the profile and best window are reported.
    """
    grid = tuple(grid)
    if not grid:
        raise DomainError("stabilizer_search requires a non-empty grid")
    windows = sorted(set(int(l) for l in candidate_windows))
    if not windows or windows[0] < 1:
        raise DomainError("candidate windows must be positive integers")
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("stabilizer_search requires |q| > 1/2")
    qv = qw.q.value

    targets = [-qv * ta for ta in _takagi_on(grid, qw.a)]
    t_norm = max(abs(v) for v in targets)
    if t_norm == 0:
        t_norm = 1
    targets = [v / t_norm for v in targets]

    partials = orbit_partial_sums(omega, qw, windows[-1])
    entries = []
    for l in windows:
        curve = phi_curve(partials[: l + 1], l, grid, Normalization.MAX_ABS)
        entries.append((l, float(_sup_gap([v.value for v in curve.values], targets, -1))))
    best_l, best_distance = min(entries, key=lambda e: (e[1], e[0]))
    return StabilizerReport(entries=tuple(entries), best_l=best_l, best_distance=best_distance)
