"""Mode tags for the payloads that cross the API boundary.

Three explicit modes: exact big rationals (``fractions.Fraction``), double
floats, and double complex.  A ``Scalar`` tags a payload with its mode and
has no arithmetic: the kernels compute on payloads.  Where modes meet,
promotion is explicit via :meth:`Scalar.promote`, which refuses to demote.
The module also provides the sawtooth (distance to the nearest integer) and
the test for dyadic rationals.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

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
            raise DomainError(f"a float overflowed: the result is {value}, not a finite number")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "value", value)

    # -- construction -----------------------------------------------------

    @staticmethod
    def exact(v) -> "Scalar":
        return Scalar(Fraction(v))

    @staticmethod
    def flt(v: float) -> "Scalar":
        return Scalar(float(v))

    @staticmethod
    def cplx(v: complex) -> "Scalar":
        return Scalar(complex(v))

    @staticmethod
    def lift(v, mode: Mode) -> "Scalar":
        """Build a Scalar of the given mode from an int/Fraction/float/complex."""
        if mode is Mode.EXACT:
            if isinstance(v, (int, Fraction)):
                return Scalar(Fraction(v))
            raise ModeError(f"cannot lift {type(v).__name__} into exact mode")
        if mode is Mode.FLOAT:
            if isinstance(v, complex):
                raise ModeError("cannot lift complex into float mode")
            return Scalar(float(v))
        if isinstance(v, Fraction):
            v = float(v)
        return Scalar(complex(v))

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
        if self.mode is Mode.EXACT:
            return str(self.value)
        if self.mode is Mode.FLOAT:
            return _format_float(self.value)
        re_, im = self.value.real, self.value.imag
        sign = "+" if im >= 0 else "-"
        return f"{_format_float(re_)}{sign}{_format_float(abs(im))}i"


def as_scalar(v) -> Scalar:
    """Coerce a plain Python number into a Scalar of the natural mode: an int
    is exact, as a ``Fraction``."""
    if isinstance(v, Scalar):
        return v
    return Scalar(Fraction(v) if isinstance(v, int) else v)


def parse_scalar(text: str, mode: Mode) -> Scalar:
    """Parse scalar text for the requested mode.

    Grammar: rationals ``-?[0-9]+(/[0-9]+)?``, floats in decimal/scientific
    notation, complex ``RE(+|-)IMi`` with no spaces.  nan and inf are
    rejected in every mode.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty scalar text")
    if mode is Mode.EXACT:
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"not a rational literal: {text!r}")
        try:
            return Scalar.exact(Fraction(text))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator: {text!r}") from None
    if mode is Mode.FLOAT:
        try:
            v = float(Fraction(text) if "/" in text else text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a float literal: {text!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"not a finite value: {text!r}")
        return Scalar.flt(v)
    # complex: reuse Python's parser with i -> j
    if " " in text:
        raise ParseError(f"complex literal must not contain spaces: {text!r}")
    try:
        c = complex(text.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ParseError(f"not a complex literal: {text!r}") from None
    if not cmath.isfinite(c):
        raise ParseError(f"not a finite value: {text!r}")
    return Scalar.cplx(c)


def infer_mode(text: str) -> Mode:
    """Pick the natural mode for scalar text: rational, complex, or float."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        return Mode.EXACT
    if "i" in text.lower() and "inf" not in text.lower():
        return Mode.COMPLEX
    return Mode.FLOAT


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


# (mask, half, size) = (2^i - 1, 2^(i-1), 2^i) of the levels i = 1 .. 64: the
# shifts of tau_profile, built once, since a sweep takes a profile per n
_LEVELS = tuple(((1 << i) - 1, 1 << (i - 1), 1 << i) for i in range(1, 65))


def tau_profile(n: int, K: int) -> list[int]:
    """[tau_scaled(n, 1), ..., tau_scaled(n, K)]: the sawtooth at every level in one pass."""
    out = []
    if 0 <= K <= len(_LEVELS):
        for mask, half, size in _LEVELS[:K]:
            m = n & mask
            out.append(m if m <= half else size - m)
        return out
    size = 2
    for _ in range(K):
        m = n & (size - 1)
        out.append(m if 2 * m <= size else size - m)
        size <<= 1
    return out


def tau_float(x: float) -> float:
    f = x - math.floor(x)
    return min(f, 1.0 - f)


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
        """[a^0, a^1, ...] through a^{e-1} at least, by the repeated
        multiplication from a ** 0 that ``takagi_dyadic_exact`` does.  A longer
        list replaces the old one whole, so no caller reads a half-grown list."""
        powers = self.__dict__.get("_a_pow", [])
        if len(powers) < e:
            a = self.a.value
            powers = powers[:] or [a ** 0]
            while len(powers) < e:
                powers.append(powers[-1] * a)
            self.__dict__["_a_pow"] = powers
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
