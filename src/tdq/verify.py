"""The identity sweeps of ``tdq verify``: ``run(target, q, top)`` checks one
``SWEEPS`` row at every point of its range and returns the worst residual.

The n-sweeps read S_q(n) = s/d off the direct route's one stream,
``digit_sums.orbit_numerators`` (d = 1 outside exact mode).  An exact
formula's pairs num/den come in step from its many-point form
(``trollope.theorem1_nums``, ``trollope.dyadic_nums``,
``digit_sums.S_rec_nums``) and are checked against s/d by the integer gap
num·d − s·den; the residual |gap|/(den·d) is built only where the gap is
not 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, repeat
from typing import Callable, NamedTuple

from . import digit_sums, odometer, takagi, trollope
from .errors import DomainError, VerificationError
from .scalar import Mode, Scalar, as_qweight


class SweepResult(NamedTuple):
    """The report mode, the swept variable, the max residual and its first witness (None at 0)."""

    mode: Mode
    var: str
    worst: object
    witness: int | None

    def passed(self, tol: float) -> bool:
        """Exact sweeps pass at residual 0, the others within tol."""
        return self.worst == 0 if self.mode is Mode.EXACT else self.worst <= tol


# A target swept over var = least .. top, top the value of --option:
# residuals(q, top) gives the report mode and the (witness, residual) pairs.
class Sweep(NamedTuple):
    residuals: Callable
    var: str = "n"
    option: str = "n-max"
    least: int = 1


def _gap(num, den, s, d, n):
    """|num/den − s/d| at n from the gap num·d − s·den: the int 0 where the gap is 0."""
    g = num * d - s * den
    if type(g) is not int:  # a float 0.0 compares equal to 0 and would pass unseen
        raise VerificationError(f"the cross-product at n={n} is {g!r}, not exact in an exact sweep")
    return Fraction(abs(g), den * d) if g else 0


def _n_sweep(qv, n_max: int, residual, pairs=repeat(None)):
    """The pairs (n, residual(n, s, d, nd)) for S_q(n) = s/d at q = qv, n = 1 .. n_max,
    with nd read in step off ``pairs``, an exact formula's (num, den) stream."""
    d, sums = digit_sums.orbit_numerators(0, qv, n_max)
    return ((n, residual(n, s, d, nd)) for n, s, nd in zip(count(1), sums, pairs))


def _theorem1(q: Scalar, n_max: int):
    qw = as_qweight(q)
    if q.mode is Mode.EXACT:  # num/den is S_q(n)/n, so s is taken over d·n
        return q.mode, _n_sweep(q.value, n_max, lambda n, s, d, nd: _gap(*nd, s, d * n, n),
                                trollope.theorem1_nums(qw, n_max))
    return q.mode, _n_sweep(q.value, n_max, lambda n, s, d, _: abs(trollope.theorem1_rhs(n, qw).value - s / n))


def _dyadic(q: Scalar, n_max: int):
    if q.mode is Mode.EXACT:
        return q.mode, _n_sweep(q.value, n_max, lambda n, s, d, nd: _gap(*nd, s, d * n, n),
                                trollope.dyadic_nums(q, n_max))
    return q.mode, _n_sweep(q.value, n_max, lambda n, s, d, _: abs(trollope.dyadic_formula(n, q).value - s / n))


def _recursions(q: Scalar, n_max: int):
    """S_rec at every n, and the closed form S_pow2 too at n = 2^k: the larger residual there."""
    qv = q.value
    exact = q.mode is Mode.EXACT

    def residual(n, s, d, rec):
        r = _gap(*rec, s, d, n) if exact else abs(digit_sums.S_rec_payload(n, qv) - s)
        if n & (n - 1) == 0:
            p = digit_sums.S_pow2_payload(n.bit_length() - 1, qv)
            r = max(r, _gap(p.numerator, p.denominator, s, d, n) if exact else abs(p - s))
        return r

    if exact:
        return q.mode, _n_sweep(qv, n_max, residual, digit_sums.S_rec_nums(n_max, qv.numerator, qv.denominator))
    return q.mode, _n_sweep(qv, n_max, residual)


def _corollary(q: Scalar, n_max: int):
    qf = float(q.promote(Mode.FLOAT).value)
    if qf <= 0.5 or qf == 1.0:
        raise DomainError("corollary requires real q > 1/2, q != 1")
    tildes = takagi.tilde_F_q_log2_range(q, n_max)

    def residual(n, s, *_):
        lg = math.log2(n)
        try:
            qlg = qf ** lg
        except OverflowError:
            raise DomainError(f"q^log2(n) overflows a float at n={n}") from None
        rhs = qf / 2 * ((1 - qlg) / (1 - qf) + qlg * tildes[n - 1])
        lhs = s / n
        return abs(rhs - lhs) / (1.0 + abs(lhs))

    return Mode.FLOAT, _n_sweep(qf, n_max, residual)


def _prop2(q: Scalar, N_max: int):
    qw = as_qweight(q)
    return q.mode, ((N, odometer.prop2_exact(qw, N).max_residual.value) for N in range(2, N_max + 1))


SWEEPS = {
    "theorem1": Sweep(_theorem1),
    "dyadic": Sweep(_dyadic),
    "prop2": Sweep(_prop2, var="N", option="N", least=2),
    "recursions": Sweep(_recursions),
    "corollary": Sweep(_corollary),
}


def run(target: str, q: Scalar, top: int) -> SweepResult:
    """The sweep ``SWEEPS[target]`` at q over var = least .. top."""
    sweep = SWEEPS[target]
    if top < sweep.least:
        raise DomainError(f"--{sweep.option} must be >= {sweep.least}; an empty range checks nothing")
    mode, pairs = sweep.residuals(q, top)
    worst, witness = 0, None
    for w, r in pairs:
        if r != r:  # nan compares false with everything, so it would pass unseen
            raise DomainError(f"the residual at {sweep.var}={w} is nan: a float overflowed")
        if mode is Mode.EXACT and not isinstance(r, (int, Fraction)):  # a float 0.0 would print as 0/1
            raise VerificationError(f"the residual at {sweep.var}={w} is {r!r}, not exact in an exact sweep")
        if r > worst:
            worst, witness = r, w
    return SweepResult(mode, sweep.var, worst, witness)
