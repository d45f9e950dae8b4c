"""q = 0 boxes like any other q.

The digit sums, the S_q routes, the ergodic sums and the all-q dyadic formula
need no a = 1/(2q), so they answer 0 at every zero q.  Theorem 1, hat F_q and
Proposition 2 need |q| > 1/2 and say so; F_q and its de Rham system need a,
which q = 0 lacks.
"""

from fractions import Fraction

import pytest

from tdq.cli import main
from tdq.digit_sums import S_q_counts, S_q_direct, S_q_pow2, S_q_recursive, s_q
from tdq.errors import DomainError
from tdq.odometer import (
    G_q,
    OdometerPoint,
    birkhoff_deviation,
    ergodic_sum,
    orbit_partial_sums,
    prop2_R,
    prop2_exact,
)
from tdq.scalar import Mode
from tdq.takagi import F_q, F_q_grid, fq_system, hat_F_q
from tdq.trollope import dyadic_formula, theorem1_rhs

# q, its mode, and the rendered values of s_q(13), S_q_direct(13),
# S_q_recursive(13), S_q_pow2(4), S_q_counts(13), ergodic_sum(5, 9),
# birkhoff_deviation(5, 9), G_q(1) and dyadic_formula(13), in that order
ZEROS = [
    (0, Mode.EXACT, ["0"] * 9),
    (0.0, Mode.FLOAT, ["0"] * 9),
    (-0.0, Mode.FLOAT, ["0", "0", "0", "-0", "0", "0", "0", "0", "-0"]),
    (0j, Mode.COMPLEX, ["0+0i"] * 9),
]


@pytest.mark.parametrize("q, mode, rendered", ZEROS, ids=["0", "0.0", "-0.0", "0j"])
def test_targets_that_need_no_a_answer_0(q, mode, rendered):
    omega = OdometerPoint.from_int(5)
    values = [
        s_q(13, q), S_q_direct(13, q), S_q_recursive(13, q), S_q_pow2(4, q), S_q_counts(13, q),
        ergodic_sum(omega, q, 9), birkhoff_deviation(omega, q, 9), G_q(1, q), dyadic_formula(13, q),
    ]
    assert [v.mode for v in values] == [mode] * 9
    assert [v.render() for v in values] == rendered
    partials = orbit_partial_sums(omega, q, 4)
    assert partials == [0] * 5 and all(type(v) is type(values[0].value) for v in partials)
    for n in range(1, 65):
        assert dyadic_formula(n, q).value == 0


@pytest.mark.parametrize("q", [0, 0.0, -0.0, 0j])
def test_targets_that_need_a_refuse_with_their_reason(q):
    for call in (lambda: theorem1_rhs(3, q), lambda: hat_F_q(0.5, q), lambda: prop2_exact(q, 3)):
        with pytest.raises(DomainError, match=r"\|q\| > 1/2"):
            call()
    for call in (lambda: F_q(Fraction(1, 2), q), lambda: F_q_grid(q, 3), lambda: fq_system(q)):
        with pytest.raises(DomainError, match="q = 0 has no associated a"):
            call()
    # R = (2q)^{N-1} is 0 from N = 2 on, and 1/0 below N = 1
    assert prop2_R(q, 3).value == 0
    with pytest.raises(DomainError, match="has no value at q = 0"):
        prop2_R(q, 0)
    # p q^k is 0 from n = 2 on: nothing underflowed
    for n in (2, 5):
        with pytest.raises(DomainError, match=r"\)\^\d+ is 0$"):
            G_q(n, q)


def test_G_q_at_a_tiny_q_still_says_underflow():
    with pytest.raises(DomainError, match="underflows to 0"):
        G_q(5, 1e-170)


def run(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    "eval sq --q 0 --n 8",
    "eval Sq --q 0 --n 8 --route direct",
    "eval Sq --q 0 --n 8 --route recursive",
    "eval Sq --q 0 --n 8 --route pow2",
    "eval Gq --q 0 --n 1",
    "verify dyadic --q 0 --n-max 64",
    "verify recursions --q 0 --n-max 64",
])
def test_cli_answers_at_q_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.strip() == "0" or out.strip().endswith("max residual 0/1, PASS")


def test_cli_birkhoff_at_q_0(capsys):
    code, out, err = run(capsys, "odometer birkhoff --q 0 --n 8")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].endswith("E[s_q]=0")
    assert lines[1:] == [f"n={n} deviation=0" for n in (1, 2, 4, 8)]


@pytest.mark.parametrize("argv, reason", [
    ("verify theorem1 --q 0", "Theorem 1 requires |q| > 1/2"),
    ("eval hatF --q 0 --u 0.5", "hat_F_q requires |q| > 1/2"),
    ("verify prop2 --q 0", "Proposition 2 requires |q| > 1/2"),
    ("curve F --q 0", "q = 0 has no associated a = 1/(2q)"),
    ("curve complex-takagi --q 0", "q = 0 has no associated a = 1/(2q)"),
    ("eval Gq --q 0 --n 5", "p q^k = 2^2 (Fraction(0, 1))^2 is 0"),
])
def test_cli_refuses_at_q_0_with_the_reason(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"tdq: domain error: {reason}\n")

