"""Mode tags for the payloads that cross the API boundary.

Three explicit modes: exact big rationals (``fractions.Fraction``), double
floats, and double complex.  A ``Scalar`` tags a payload with its mode and
has no arithmetic: the kernels compute on payloads.  Where modes meet,
promotion is explicit via :meth:`Scalar.promote`, which refuses to demote.
A many-point value is a sequence of payloads (``Ratios``, exact ones over
one denominator), checked by ``finite`` and written by ``render``.  The
module also provides the sawtooth (distance to the nearest integer) and the
test for dyadic rationals.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, repeat
from typing import Optional, Union

from .errors import DomainError, ModeError, ParseError

Payload = Union[Fraction, float, complex]


class Mode(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"
    COMPLEX = "complex"

    @staticmethod
    def widest(*modes: "Mode") -> "Mode":
        """The widest of the modes, in declaration order EXACT < FLOAT < COMPLEX."""
        return max(modes, key=_MODE_RANK.__getitem__)


_MODE_RANK = {m: i for i, m in enumerate(Mode)}  # built once: Mode.widest runs on every promote
_MODE_OF = {Fraction: Mode.EXACT, float: Mode.FLOAT, complex: Mode.COMPLEX}  # a payload's type is its mode
_EXACT = Mode.EXACT  # a global read, where Mode.EXACT costs an enum lookup on every Scalar built

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_LITERAL = {Mode.EXACT: "rational", Mode.FLOAT: "float", Mode.COMPLEX: "complex"}  # a mode's literal, in messages


def _format_float(v: float) -> str:
    return format(v, ".17g")


@dataclass(frozen=True, init=False)
class Scalar:
    """A payload tagged with its mode: built, checked, promoted and rendered
    at the API boundary, with no arithmetic of its own.

    ``Scalar(value)`` reads the mode off the payload's type: a ``Fraction``
    (lowest terms, positive denominator, which ``Fraction`` guarantees) is
    exact, a ``float`` float and a ``complex`` complex; any other type is a
    ``ModeError``.  Float and complex values are finite: a result that
    overflowed to inf (or to nan, as inf - inf) raises ``DomainError`` where
    it is boxed, so no caller can print or compare it silently.
    """

    mode: Mode
    value: Payload

    def __init__(self, value: Payload):
        mode = _MODE_OF.get(type(value))
        if mode is None:
            raise ModeError(f"cannot interpret {type(value).__name__} as a Scalar")
        if mode is not _EXACT and not cmath.isfinite(value):
            finite((value,))  # raises, in the one overflow message
        d = self.__dict__  # written directly, past the frozen __setattr__
        d["mode"] = mode
        d["value"] = value

    # -- construction -----------------------------------------------------

    @staticmethod
    def lift(v, mode: Mode) -> "Scalar":
        """Build a Scalar of the given mode from an int/Fraction/float/complex.

        An exact value beyond the float range has no float or complex lift:
        ``DomainError``, whose message leaves the value out, since it can be
        too long to print.
        """
        if mode is Mode.EXACT:
            if isinstance(v, (int, Fraction)):
                return Scalar(Fraction(v))
            raise ModeError(f"cannot lift {type(v).__name__} into exact mode")
        if mode is Mode.FLOAT and isinstance(v, complex):
            raise ModeError("cannot lift complex into float mode")
        try:
            if mode is Mode.FLOAT or isinstance(v, Fraction):
                v = float(v)
            return Scalar(v if mode is Mode.FLOAT else complex(v))
        except OverflowError:
            raise DomainError("an exact value is beyond the float range") from None

    # -- queries -------------------------------------------------------------

    def modulus(self):
        """|self| as a Fraction (exact mode) or float."""
        return abs(self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def promote(self, mode: Mode) -> "Scalar":
        """Explicit, possibly lossy, upward mode conversion."""
        if mode is self.mode:
            return self
        if Mode.widest(self.mode, mode) is not mode:
            raise ModeError(f"cannot demote {self.mode.value} to {mode.value}")
        return Scalar.lift(self.value, mode)

    def render(self) -> str:
        return render(self.value)


def render(v: Payload) -> str:
    """A payload as text: a ``Fraction`` as ``render_ratio`` writes its pair,
    a float to 17 significant digits, a complex as RE+IMi or RE-IMi."""
    if type(v) is Fraction:
        return render_ratio(v.numerator, v.denominator)
    if type(v) is float:
        return _format_float(v)
    sign = "+" if v.imag >= 0 else "-"
    return f"{_format_float(v.real)}{sign}{_format_float(abs(v.imag))}i"


def render_ratio(n: int, d: int) -> str:
    """n/d, d > 0, as ``str(Fraction(n, d))``, with no ``Fraction`` built.  Past
    Python's int-to-str limit a ``DomainError`` in tdq's words, not Python's."""
    g = math.gcd(n, d)
    try:
        return str(n // g) if d == g else f"{n // g}/{d // g}"
    except ValueError:
        raise DomainError("an exact value has too many digits to print") from None


def finite(values: Sequence) -> Sequence:
    """Float or complex ``values``, once each is finite: an overflow to inf (or
    nan, as inf - inf) raises ``DomainError`` at the first, as ``Scalar`` does."""
    if not all(map(cmath.isfinite, values)):
        bad = next(v for v in values if not cmath.isfinite(v))
        raise DomainError(f"a float overflowed: the result is {bad}, not a finite number")
    return values


class Ratios(Sequence):
    """Read-only payloads R[0], ..., R[l] over one list of ``numerators``.

    Exact payloads are integers over one positive ``den`` and R[j] is
    ``Fraction(numerators[j], den)``, built when read; float and complex
    payloads are themselves, with den None.  A slice is a ``Ratios`` over
    the same den, and R equals, and hashes as, the list and the tuple of its payloads.
    """

    __slots__ = ("numerators", "den")

    def __init__(self, numerators: Sequence, den: Optional[int]):
        self.numerators, self.den = numerators, den

    @classmethod
    def of(cls, values: Iterable) -> "Ratios":
        """``values`` over one denominator: a ``Ratios`` as it is, ints and
        Fractions over the lcm of their denominators, other payloads with den None."""
        if isinstance(values, Ratios):
            return values
        values = list(values)
        if not all(isinstance(v, (int, Fraction)) for v in values):
            return cls(values, None)
        den = math.lcm(*(v.denominator for v in values))
        return cls([v.numerator * (den // v.denominator) for v in values], den)

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return Ratios(self.numerators[j], self.den)
        x = self.numerators[j]
        return x if self.den is None else Fraction(x, self.den)

    def __iter__(self):
        return iter(self.numerators) if self.den is None else map(Fraction, self.numerators, repeat(self.den))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (Ratios, tuple, list)) else NotImplemented

    def __hash__(self):  # the hash of the equal tuple, so a curve on the grid stays hashable
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Ratios({self.numerators!r}, {self.den!r})"


def as_scalar(v) -> Scalar:
    """Coerce a plain Python number into a Scalar of the natural mode: an int
    is exact, as a ``Fraction``."""
    if isinstance(v, Scalar):
        return v
    return Scalar(Fraction(v) if isinstance(v, int) else v)


def parse_scalar(text: str, mode: Mode | None = None) -> Scalar:
    """Parse scalar text in its own mode, lifted into ``mode`` if one is given.

    One grammar decides the literal's own mode: a rational
    ``[+-]?[0-9]+(/[0-9]+)?`` is exact; text with ``i`` or ``I`` that is not
    inf is complex, ``RE(+|-)IMi`` with no spaces; anything else is a float
    in decimal or scientific notation.  The literal is parsed once and
    ``Scalar.lift`` widens it to ``mode``; a literal wider than ``mode`` is
    refused, and so are nan and inf in every mode.  An integer literal
    lifts as ``float`` reads it, so ``-0`` is -0.0 in float and complex mode.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty scalar text")
    low = text.lower()
    if _RATIONAL_RE.match(text):
        own = Mode.EXACT
    elif "i" in low and "inf" not in low:
        own = Mode.COMPLEX
    else:
        own = Mode.FLOAT
    mode = mode or own
    if Mode.widest(own, mode) is not mode:
        raise ParseError(f"not a {_LITERAL[mode]} literal: {text!r}")
    try:
        if own is Mode.EXACT:
            v = Fraction(text)
            if mode is not Mode.EXACT and text[0] == "-" and "/" not in text:
                v = -float(-v)  # float reads -0 as -0.0, and a Fraction has no -0
        elif own is Mode.FLOAT:
            v = float(text)
        elif " " in text:
            raise ParseError(f"complex literal must not contain spaces: {text!r}")
        else:
            v = complex(text.replace("i", "j").replace("I", "j"))
        return Scalar.lift(v, mode)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise ParseError(f"not a {_LITERAL[mode]} literal: {text!r}") from None
    except (OverflowError, DomainError):  # inf, nan, or a rational past the float range
        raise ParseError(f"not a finite value: {text!r}") from None


def powers_of(x, e: int) -> list:
    """[x^0, x^1, ..., x^{e-1}], and x^0 at least, by repeated multiplication
    from x ** 0, so each x^j is the same payload whichever list holds it."""
    powers = [x ** 0]
    while len(powers) < e:
        powers.append(powers[-1] * x)
    return powers


def checked_pow(x, k: int):
    """x ** k on a payload; a float or complex power out of range raises
    ``DomainError`` rather than ``OverflowError``.  Exact powers never do."""
    try:
        return x ** k
    except OverflowError:
        raise DomainError(f"{x!r} ** {k} overflows a float") from None


# -- sawtooth ----------------------------------------------------------------


def tau_scaled(n: int, i: int) -> int:
    """2^i tau(n / 2^i) = min(m, 2^i - m) with m = n mod 2^i, an integer."""
    m = n & ((1 << i) - 1)
    return min(m, (1 << i) - m)


def _shifts(K: int) -> Iterator[tuple]:
    """(mask, half, size) = (2^i - 1, 2^(i-1), 2^i) of the levels i = 1 .. K, one at a time."""
    return (((1 << i) - 1, 1 << (i - 1), 1 << i) for i in range(1, K + 1))


_LEVELS = tuple(_shifts(64))  # the shifts of tau_profile, built once, since a sweep takes a profile per n


def tau_profile(n: int, K: int) -> list[int]:
    """[tau_scaled(n, 1), ..., tau_scaled(n, K)]: the sawtooth at every level in one pass."""
    out = []
    for mask, half, size in _LEVELS[:K] if 0 <= K <= len(_LEVELS) else _shifts(K):
        m = n & mask
        out.append(m if m <= half else size - m)
    return out


def tau_sum(n: int, K: int) -> int:
    """sum(tau_profile(n, K)), eight levels a step, with no list built: the
    weighted sum ``tau_weighted_sum(n, K, 1, 1)``, kept apart as the byte-table
    path that ``classic_formula`` takes at every n.

    With lo = n mod 2^8 and h = n >> 8, the level-i sawtooth of n past level
    8 is 2^8 times the level-(i-8) sawtooth of h, plus lo where bit i-1 of n
    is 0 and minus lo where it is 1.  The last K <= 8 levels are read off
    ``_SAW[K]``.
    """
    if K <= 0:
        return 0
    n &= (1 << K) - 1
    total = shift = 0
    while K > 8:
        lo = n & 255
        n >>= 8
        K -= 8
        total += (_SAW[8][lo] + lo * (K - 2 * n.bit_count())) << shift
        shift += 8
    return total + (_SAW[K][n] << shift)


def tau_weighted_sum(n: int, e: int, u: int, v: int) -> int:
    """W_e(n) = sum_{i=1..e} u^(e-i) v^(i-1) tau_scaled(n, i): Horner's sum in u
    of ``tau_profile(n, e)``, for any n.

    The one weighted sawtooth sum (Trollope 1968, Delange 1975): at (u, v) =
    (2p, r) it is T_{p/r}(n/2^e) r^(e-1) 2^e, at (b, a) the Horner sum of the
    dyadic Trollope-Delange formula at q = a/b, and at (2, 1) van der Corput's
    discrepancy less 2^e.
    """
    acc, vi = 0, 1
    for t in tau_profile(n, e):
        acc = acc * u + vi * t
        vi *= v
    return acc


def tau_weighted_levels(u: int, v: int) -> Iterator[list[int]]:
    """[W_e(n) for n = 0 .. 2^e] of ``tau_weighted_sum``, for e = 0, 1, 2, ...

    For n <= 2^(e-1), tau_scaled(n, e) = n, so W_e(n) = u W_{e-1}(n) + v^(e-1) n
    from the level below; the rest is the mirror W_e(2^e - n) = W_e(n), since
    every level i <= e is.
    """
    table, ve = [0, 0], 1  # W_0 = 0, the empty sum
    while True:
        yield table
        lower = [u * w + ve * n for n, w in enumerate(table)]
        table, ve = lower + lower[-2::-1], ve * v


_SAW = list(islice(tau_weighted_levels(1, 1), 9))  # W at (1, 1) on levels 0..8, read by tau_sum

TABLE_BITS = 12  # a sweep's tables hold 2^12 values, whatever its range


def tau_weighted_sums(lo: int, hi: int, u: int, v: int) -> Iterator[int]:
    """``tau_weighted_sum(n, e, u, v)``, e the bit length of n, for 1 <= lo <= n < hi.

    Up to e = ``TABLE_BITS`` = B, each n is read off the level-e table of
    ``tau_weighted_levels``, in its upper half.  Past 2^B, n runs in chunks
    H 2^B + j, j < 2^B: the low B levels are u^(e-B) W_B(j), and level i > B
    is tau_scaled's c_i + s_i j, with s_i = -1 where bit i-1 of n is 1 and +1
    where it is 0 (as in ``tau_sum``), so a chunk's high levels are one C + S j.
    No table outgrows 2^B + 1 values.
    """
    if lo < 1:
        raise DomainError("tau_weighted_sums requires lo >= 1")
    levels = tau_weighted_levels(u, v)
    table = next(levels)
    for e in range(1, min(max(hi - 1, 0).bit_length(), TABLE_BITS) + 1):
        table, half = next(levels), 1 << (e - 1)
        yield from islice(table, max(lo, half), min(hi, 2 * half))
    size, e = 1 << TABLE_BITS, TABLE_BITS
    for H in range(max(lo, size) >> TABLE_BITS, (hi + size - 1) >> TABLE_BITS):
        base = H << TABLE_BITS
        if base.bit_length() > e:  # a new bit length: its weights u^(e-i) v^(i-1), i > B
            e = base.bit_length()
            ue = u ** (e - TABLE_BITS)
            weights = [u ** (e - i) * v ** (i - 1) for i in range(TABLE_BITS + 1, e + 1)]
        C = S = 0
        for i, c in enumerate(weights, TABLE_BITS + 1):
            m = (H & ((1 << (i - TABLE_BITS)) - 1)) << TABLE_BITS  # n mod 2^i, less j
            if H >> (i - 1 - TABLE_BITS) & 1:
                C, S = C + c * ((1 << i) - m), S - c
            else:
                C, S = C + c * m, S + c
        j0, j1 = max(lo - base, 0), min(hi - base, size)
        yield from (ue * w + C + S * j for j, w in zip(range(j0, j1), islice(table, j0, j1)))


def tau_float(x: float) -> float:
    f = x - math.floor(x)
    g = 1.0 - f
    return g if g < f else f  # min(f, g) without the call: f on a tie


# -- dyadic rationals ----------------------------------------------------------


def as_dyadic_fraction(x) -> Fraction | None:
    """Return x as a Fraction if it is exactly a dyadic rational, else None."""
    if isinstance(x, Scalar):
        if x.mode is not Mode.EXACT:
            return None
        x = x.value
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x if x.denominator & (x.denominator - 1) == 0 else None
    return None


# -- q weights ------------------------------------------------------------------


class Regime(enum.Enum):
    CONTRACTIVE = "contractive"   # |q| > 1/2, i.e. |a| < 1
    BOUNDARY = "boundary"         # |q| = 1/2
    EXPANDING = "expanding"       # |q| < 1/2


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


@dataclass(frozen=True)
class QWeight:
    """A weight parameter q together with a = 1/(2q) and its regime.

    For a float or complex q it also holds the values that the
    Trollope-Delange formulas read at every n and that depend on q alone,
    each filled on first read: q^k and (2q)^i (``q_pow``, ``two_q_pow``)
    and a^j (``a_pow``).  No S_q(n), T_a or residual is kept, so a pass
    over a warm box does the work of the first.
    """

    q: Scalar
    regime: Regime
    is_one: bool

    @cached_property
    def a(self) -> Scalar:
        """a = 1/(2q), built on first use: q = 0 has none, and a float q below ~1e-308 none in range."""
        if self.q.is_zero():
            raise DomainError("q = 0 has no associated a = 1/(2q)")
        return Scalar(1 / (2 * self.q.value))

    @cached_property
    def q_pow(self) -> _Powers:
        return _Powers(self.q.value)

    @cached_property
    def two_q_pow(self) -> _Powers:
        return _Powers(2 * self.q.value)

    def a_pow(self, e: int) -> list:
        """[a^0, a^1, ...] through a^{e-1} at least (``powers_of``).  A longer
        list replaces the old one whole, so no caller reads a half-grown list."""
        powers = self.__dict__.get("_a_pow", [])
        if len(powers) < e:
            powers = self.__dict__["_a_pow"] = powers_of(self.a.value, e)
        return powers

    @staticmethod
    def of(q) -> "QWeight":
        """q boxed afresh; ``as_qweight`` boxes each q once."""
        q = as_scalar(q)
        m = q.modulus()
        half = Fraction(1, 2) if q.mode is Mode.EXACT else 0.5
        if m > half:
            regime = Regime.CONTRACTIVE
        elif m == half:
            regime = Regime.BOUNDARY
        else:
            regime = Regime.EXPANDING
        return QWeight(q=q, regime=regime, is_one=(q.value == 1))


def payload_key(v) -> tuple:
    """A hashable key equal for two payloads exactly when their types and
    bits are: equal floats are equal keys, so 0.0 and -0.0 are told apart by
    the signs of the parts.  A ``Fraction`` is keyed by its numerator and
    denominator: its own hash costs a modular inverse, and its float can
    overflow."""
    if type(v) is Fraction:
        return v.numerator, v.denominator
    return type(v), v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag)


@lru_cache(maxsize=256)
def _qweight(key: tuple) -> QWeight:
    return QWeight.of(Fraction(*key) if len(key) == 2 else key[1])


def as_qweight(q) -> QWeight:
    """q as a ``QWeight``, boxed (and checked finite) once per value: a sweep
    calls this per n at one q.  A Scalar, int, Fraction, float or complex q
    is keyed by ``payload_key`` of its payload, so 1, 1.0 and 1+0j, or 0.0
    and -0.0, keep QWeights of their own.  q = 0 boxes like any other q;
    only its ``a`` is refused."""
    if isinstance(q, QWeight):
        return q
    v = q if type(q) in _MODE_OF else as_scalar(q).value
    return _qweight(payload_key(v))
