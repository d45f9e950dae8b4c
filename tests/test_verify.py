"""``tdq.verify.run``, the sweep engine behind ``tdq verify``, read as data."""

from fractions import Fraction

import pytest

from tdq import cli, digit_sums, trollope, verify
from tdq.digit_sums import S_q_direct
from tdq.errors import DomainError, VerificationError
from tdq.scalar import Mode, Scalar, parse_scalar

TWO_THIRDS = parse_scalar("2/3")


def defaults(target):
    """(q, top, tol) of ``tdq verify target`` with no options: --q, --n-max
    and --N have no argparse default, and ``cmd_verify`` takes q = 2/3,
    n-max 4096 and N 8 in their place."""
    args = cli.build_parser().parse_args(["verify", target])
    option = verify.SWEEPS[target].option
    assert args.q is None and getattr(args, option.replace("-", "_")) is None
    return TWO_THIRDS, {"n-max": 4096, "N": 8}[option], args.tol


@pytest.mark.parametrize("target", verify.SWEEPS)
def test_every_target_passes_at_the_cli_defaults(capsys, target):
    q, top, tol = defaults(target)
    result = verify.run(target, q, top)
    assert result.passed(tol)
    if result.mode is Mode.EXACT:
        assert (result.worst, result.witness) == (0, None)
    else:
        # below any tol the CLI fails at the witness, printing the worst residual
        assert 0 < result.worst <= tol
        assert cli.main(["verify", target, "--tol", "1e-30"]) == 3
        shown = Scalar(float(result.worst)).render()
        assert capsys.readouterr().out.endswith(f" max residual {shown}, FAIL at {result.var}={result.witness}\n")


# target: (module, the many-point form the sweep reads, its point function,
# the point function's arguments after n, m), num/den standing for S_q(n)/m
# at q = 2/3
NUMERATORS = {
    "theorem1": (trollope, "theorem1_nums", trollope.theorem1_num, (Fraction(2, 3),), 777),
    "dyadic": (trollope, "dyadic_nums", trollope.dyadic_num, (Fraction(2, 3),), 777),
    "recursions": (digit_sums, "S_rec_nums", digit_sums.S_rec_num, (2, 3), 1),
}


@pytest.mark.parametrize("target", NUMERATORS)
def test_a_numerator_one_too_big_is_the_worst_residual(monkeypatch, target):
    # every mode reads the stream: at a float q its payload one too big is the worst too
    module, name, kernel, rest, m = NUMERATORS[target]
    stream = getattr(module, name)

    def off(*args):
        return ((num + (n == 777), den) for n, (num, den) in enumerate(stream(*args), 1))

    monkeypatch.setattr(module, name, off)
    num, den = kernel(777, *rest)
    result = verify.run(target, TWO_THIRDS, 4096)
    assert result.worst == abs(Fraction(num + 1, den) - S_q_direct(777, Fraction(2, 3)).value / m)
    assert result.witness == 777 and not result.passed(1.0)
    q = parse_scalar("0.7")
    num, one = list(stream(q, 777))[-1]
    result = verify.run(target, q, 4096)
    assert (type(num), one) == (float, 1)
    assert result.worst == abs(num + 1 - S_q_direct(777, q).value / m)
    assert result.witness == 777 and not result.passed(0.5)


def test_recursions_report_the_closed_form_where_only_it_is_off(monkeypatch):
    closed = digit_sums.S_pow2_payload
    off = Fraction(1, 3 ** 11)
    monkeypatch.setattr(digit_sums, "S_pow2_payload", lambda k, qv: closed(k, qv) + (off if k == 10 else 0))
    result = verify.run("recursions", TWO_THIRDS, 4096)
    assert (result.worst, result.witness) == (off, 1024)
    assert closed(10, Fraction(2, 3)) == S_q_direct(1024, Fraction(2, 3)).value


@pytest.mark.parametrize("target, module, name", [
    ("theorem1", trollope, "theorem1_num"),
    ("dyadic", trollope, "dyadic_num"),
    ("recursions", digit_sums, "S_rec_num"),
])
def test_a_gap_that_is_not_an_int_raises(monkeypatch, target, module, name):
    # a float 0.0 gap compares equal to 0: an exact verdict stands on integers
    monkeypatch.setattr(module, name, lambda n, *args: (0.0, 1))
    with pytest.raises(VerificationError, match="the cross-product at n=1 is 0.0"):
        verify.run(target, TWO_THIRDS, 8)


@pytest.mark.parametrize("target, top", [("theorem1", 0), ("corollary", -1), ("prop2", 1)])
def test_an_empty_range_raises(target, top):
    with pytest.raises(DomainError, match="an empty range checks nothing"):
        verify.run(target, TWO_THIRDS, top)


def test_a_nan_residual_raises():
    # S_q(n) overflows to inf from n = 2049 on at q = 1e26
    with pytest.raises(DomainError, match="the residual at n=2049 is nan"):
        verify.run("corollary", parse_scalar("1e26"), 3000)
