"""Dyadic odometer, ergodic sums, and fluctuation (limiting) curves.

``ergodic_sum`` (and so ``birkhoff_deviation``) is a difference of per-bit
counts: over the window v, ..., v + n - 1 bit i is set c_i(v + n) - c_i(v)
times, so the sum costs O(log(v + n)), not n steps.  ``orbit_partial_sums``
holds the stream of ``digit_sums.orbit_numerators`` from the point's value
as a ``PartialSums``.  Exact q = a/b works on integer numerators over b^K in
both, so exact runs stay exact; ``phi_curve`` reads those numerators, and a
partial sum becomes a ``Fraction`` only where one is read by index.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .digit_sums import S_pow2_payload, S_rec_payload, orbit_numerators, window_sum
from .errors import DomainError
from .scalar import Mode, Regime, Scalar, as_qweight, as_scalar, checked_pow
from .takagi import takagi_at, takagi_grid, takagi_grid_num


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


class PartialSums(Sequence):
    """Read-only payloads P[0], ..., P[l] over one list of ``numerators``.

    Exact sums are integers over one ``den`` and P[j] is
    ``Fraction(numerators[j], den)``, built when read; float and complex
    sums are their payloads, with den None.  A slice is a ``PartialSums``
    over the same den, and P equals a list of the same payloads.
    """

    __slots__ = ("numerators", "den")

    def __init__(self, numerators: list, den: Optional[int]):
        self.numerators, self.den = numerators, den

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return PartialSums(self.numerators[j], self.den)
        x = self.numerators[j]
        return x if self.den is None else Fraction(x, self.den)

    def __iter__(self):
        return iter(self.numerators) if self.den is None else map(Fraction, self.numerators, repeat(self.den))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (PartialSums, list)) else NotImplemented


class DyadicGrid(Sequence):
    """Read-only points G[j] = j/2^m, j = 0 .. 2^m, each a ``Fraction`` built
    when read.  A slice is a tuple, and G equals the tuple and the list of its points."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        if m < 0:
            raise DomainError("a dyadic grid needs m >= 0")
        self.m = m

    def __len__(self) -> int:
        return (1 << self.m) + 1

    def __getitem__(self, j):
        js = range(len(self))[j]
        return tuple(Fraction(i, 1 << self.m) for i in js) if isinstance(j, slice) else Fraction(js, 1 << self.m)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (DyadicGrid, tuple, list)) else NotImplemented

    def __hash__(self):  # the hash of the equal tuple, so a curve on the grid stays hashable
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"DyadicGrid({self.m})"


def orbit_partial_sums(omega: OdometerPoint, q, l: int) -> PartialSums:
    """P with P[j] = S_{q,omega}(j), j = 0 .. l: ``orbit_numerators`` from omega's value."""
    if l < 1:
        raise DomainError("orbit_partial_sums requires l >= 1")
    qv = as_qweight(q).q.value
    den, sums = orbit_numerators(omega.value, qv, l)
    if isinstance(qv, Fraction):
        return PartialSums([0, *sums], den)
    return PartialSums([0 * qv, *sums], None)


def birkhoff_mean(q) -> Scalar:
    """E s_q = q / (2 (1 - q)), the limit of (1/n) S_{q,omega}(n), |q| < 1."""
    qw = as_qweight(q)
    if qw.q.modulus() >= 1:
        raise DomainError("birkhoff requires |q| < 1")
    qv = qw.q.value
    return Scalar(qv / (2 * (1 - qv)))


def birkhoff_deviation(omega: OdometerPoint, q, n: int) -> Scalar:
    """(1/n) S_{q,omega}(n) - E s_q (``birkhoff_mean``), exact at an exact q."""
    mean = birkhoff_mean(q)
    return Scalar(ergodic_sum(omega, q, n).value / n - mean.value)


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
    """phi_l on the grid; an exact curve's ``numerators`` (X, D), D > 0, give values[j] = X[j] / D unreduced."""

    grid: Sequence
    values: tuple[Scalar, ...]
    l: int
    R: Scalar
    normalization: Normalization
    numerators: Optional[tuple[list[int], int]] = field(default=None, compare=False, repr=False)


def _interp(partials: Sequence, pos):
    """Linear interpolation of the partial-sum sequence at a real position."""
    i = math.floor(pos)
    frac = pos - i
    if frac == 0:
        return partials[int(i)]
    lo = partials[int(i)]
    return lo + frac * (partials[int(i) + 1] - lo)


def _phi_numerators(sums: Sequence, l: int, grid: Sequence) -> tuple[list[int], int]:
    """(X, den) with S(t l) - t S(l) = X_t / den at each rational t of the grid (in [0, 1]).

    With W the lcm of the grid's denominators (2^m, u = 0 .. 2^m, on a
    ``DyadicGrid``), t = u/W and u l = i W + r, so
    S(t l) = S(i) + (r/W) (S(i + 1) - S(i)).  With s_i the exact sums'
    numerators over their one denominator D (a ``PartialSums``' own, else
    the lcm of the denominators of the list S(0), ..., S(l)),
    X_t = s_i W + r (s_{i+1} - s_i) - u s_l over den = D W.
    """
    dyadic = isinstance(grid, DyadicGrid)
    W = 1 << grid.m if dyadic else math.lcm(*(t.denominator for t in grid))
    us = range(W + 1) if dyadic else [t.numerator * (W // t.denominator) for t in grid]
    pos = [divmod(u * l, W) for u in us]
    if isinstance(sums, PartialSums):
        s, D = sums.numerators, sums.den
    else:
        D = math.lcm(*(x.denominator for x in sums))
        s = [x.numerator * (D // x.denominator) for x in sums]
    sl = s[l]
    X = [
        (s[i] * W + r * (s[i + 1] - s[i]) if r else s[i] * W) - u * sl
        for u, (i, r) in zip(us, pos)
    ]
    return X, D * W


def _read_sums(partial_sums: Sequence, l: int) -> tuple[Mode, Sequence]:
    """(mode, sums): a ``PartialSums`` as it is; a plain sequence's S(0), ..., S(l) lifted into their widest mode."""
    if isinstance(partial_sums, PartialSums):  # P[0] is a Fraction exactly when P has a den
        return as_scalar(partial_sums[0]).mode, partial_sums
    head = [as_scalar(partial_sums[j]) for j in range(l + 1)]
    mode = Mode.widest(*(x.mode for x in head))
    return mode, [x.promote(mode).value for x in head]


def phi_curve(
    partial_sums: Sequence,
    l: int,
    grid: Iterable,
    normalization: Normalization = Normalization.MAX_ABS,
    R: Optional[Scalar] = None,
) -> FluctuationCurve:
    """phi_l(t) = (S(t l) - t S(l)) / R on the grid, S linearly interpolated.

    ``partial_sums`` is what ``orbit_partial_sums`` returns, or any sequence
    of payloads, S(0), ..., S(l) at least.  A ``DyadicGrid`` stays the
    curve's grid, read as j / 2^m.  Exact sums on a grid of rationals are
    read as integer numerators over one denominator (``_phi_numerators``),
    and each value is one ``Fraction``.  The curve takes the widest mode
    among its inputs (every S(j) of a plain sequence), in ``Mode``'s order:
    a float abscissa or normaliser makes exact sums a float curve, a complex
    normaliser any curve complex.  R is given with ``EXPLICIT``
    normalization alone; ``MAX_ABS`` computes its own.
    """
    if l < 1:
        raise DomainError("phi_curve requires l >= 1")
    if normalization is Normalization.EXPLICIT and R is None:
        raise DomainError("explicit normalization needs R")
    if normalization is Normalization.MAX_ABS and R is not None:
        raise DomainError("max-abs normalization computes R and takes none")
    dyadic = isinstance(grid, DyadicGrid)
    if not dyadic:
        grid = tuple(grid)
    if not grid:
        raise DomainError("phi_curve requires a non-empty grid")
    if len(partial_sums) < l + 1:
        raise DomainError("partial sums must cover [0, l]")
    mode, sums = _read_sums(partial_sums, l)
    if not dyadic and not all(0 <= t <= 1 for t in grid):
        raise DomainError("grid abscissae must lie in [0,1]")
    rational = dyadic or all(isinstance(t, (int, Fraction)) for t in grid)
    exact = mode is Mode.EXACT and rational
    if exact:
        raw, den = _phi_numerators(sums, l, grid)
    else:
        if dyadic:  # j / 2^m rounds once, as float(Fraction(j, 2^m)) does
            ts = [j / (1 << grid.m) for j in range(len(grid))]
        else:
            ts = grid if mode is Mode.EXACT else [float(t) for t in grid]
        total = sums[l]
        raw = [_interp(sums, t * l) - t * total for t in ts]
    if normalization is Normalization.MAX_ABS:
        m = max(abs(v) for v in raw)
        if exact:
            m = Fraction(m, den)
        r_scalar = as_scalar(m if m != 0 else (1 if mode is Mode.EXACT else 1.0))
    else:
        r_scalar = as_scalar(R)
        if r_scalar.is_zero():
            raise DomainError("normalizer R must be non-zero (given, or underflowed to 0)")
    r_val = r_scalar.value
    numerators = None
    if exact and r_scalar.mode is Mode.EXACT:
        rd = r_val.denominator if r_val > 0 else -r_val.denominator
        numerators = X, D = [v * rd for v in raw], den * abs(r_val.numerator)
        values = [Fraction(x, D) for x in X]
    else:
        values = [(Fraction(v, den) if exact else v) / r_val for v in raw]
    out = Mode.widest(mode, r_scalar.mode, mode if rational else Mode.FLOAT)
    values = tuple(Scalar(v) if out is mode else Scalar.lift(v, out) for v in values)
    return FluctuationCurve(grid, values, l, r_scalar, normalization, numerators)


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

    Grid points t_j = j/2^{N-1} (a ``DyadicGrid``); the returned values
    equal -q T_a(t_j) with zero residual in exact mode.
    """
    if N < 1:
        raise DomainError("prop2_exact requires N >= 1")
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("Proposition 2 requires |q| > 1/2")
    l = 1 << N
    partials = orbit_partial_sums(OdometerPoint.zero(), qw, l)
    curve = phi_curve(partials, l, DyadicGrid(N - 1), Normalization.EXPLICIT, prop2_R(qw, N))
    return Prop2Result(curve=curve, max_residual=sup_distance_to_limit(curve, qw))


def _dyadic_order(grid: Sequence) -> Optional[int]:
    """m when the grid is exactly {j/2^m : j = 0 .. 2^m} (a ``DyadicGrid``'s m, unscanned), else None."""
    if isinstance(grid, DyadicGrid):
        return grid.m
    n = len(grid) - 1
    m = n.bit_length() - 1
    whole = n >= 1 and n == 1 << m and all(
        isinstance(t, (int, Fraction)) and t.numerator << m == j * t.denominator for j, t in enumerate(grid)
    )
    return m if whole else None


def _takagi_on(grid: Sequence, a: Scalar) -> list:
    """T_a payloads: ``takagi_grid`` on a whole grid j/2^m (``_dyadic_order``), else ``takagi_at``."""
    m = _dyadic_order(grid)
    if m is not None:
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
    """max over the grid of |phi(t) + q T_a(t)|, T_a as ``_takagi_on`` takes it.

    An exact curve X/D on a whole grid j/2^m at exact q = c/b, with T_a = T/Dt
    (``takagi_grid_num``), is max_j |X_j b Dt + c T_j D| / (D b Dt); else ``_sup_gap``.
    """
    qw = as_qweight(q)
    if qw.regime is not Regime.CONTRACTIVE:
        raise DomainError("limiting curve requires |q| > 1/2")
    qv = qw.q.value
    m = _dyadic_order(curve.grid)
    if curve.numerators is not None and m is not None and isinstance(qv, Fraction):
        (X, D), (c, b) = curve.numerators, (qv.numerator, qv.denominator)
        T, Dt = takagi_grid_num(qw.a.value.numerator, qw.a.value.denominator, m)
        bDt, cD = b * Dt, c * D
        return Scalar(Fraction(max(abs(x * bDt + cD * t) for x, t in zip(X, T)), D * bDt))
    worst = _sup_gap([v.value for v in curve.values], _takagi_on(curve.grid, qw.a), qv)
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
