"""tdq command-line front end.

Exit codes: 0 pass, 1 parse error, 2 domain error, 3 identity violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import digit_sums, odometer, takagi, trollope
from .digit_sums import iter_S_direct
from .errors import DomainError, ModeError, ParseError, VerificationError
from .scalar import Mode, Scalar, as_qweight, infer_mode, parse_scalar

N_LIMIT = 1 << 62
GRID_LIMIT = 20


def _parse_scalar_arg(text: str | None, mode_opt: str | None) -> Scalar:
    if text is None:
        raise ParseError("missing scalar argument (--q/--a/--x)")
    return parse_scalar(text, Mode(mode_opt) if mode_opt else infer_mode(text))


def _finite_float(text: str) -> float:
    """argparse type for the float options: nan and inf are parse errors."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _check_n(n: int) -> int:
    if n > N_LIMIT:
        raise DomainError(f"n = {n} exceeds the limit 2^62 = {N_LIMIT}")
    return n


def _parse_omega(text: str, seed: int) -> odometer.OdometerPoint:
    if text == "random":
        rng = random.Random(seed)
        bits = tuple(rng.getrandbits(1) for _ in range(64))
        return odometer.OdometerPoint(bits)
    if not text or any(c not in "01" for c in text):
        raise ParseError(f"--omega must be an LSB-first bit string or 'random': {text!r}")
    return odometer.OdometerPoint(tuple(int(c) for c in text))


def _grid(m: int) -> list[Fraction]:
    if m < 0 or m > GRID_LIMIT:
        raise DomainError(f"grid density must be in [0, {GRID_LIMIT}]")
    return [Fraction(j, 1 << m) for j in range((1 << m) + 1)]


# ---------------------------------------------------------------------------
# table output


def _write_table(meta: dict, grid, values, out=None, fmt: str = "csv") -> None:
    """Write a sampled curve, on a grid of Fractions, as CSV or JSON to the
    file ``out``, or to stdout."""
    if any(v.mode is Mode.COMPLEX for v in values):
        columns = ["t", "re", "im"]
        rows = [
            [
                str(t),
                Scalar.flt(complex(v.value).real).render(),
                Scalar.flt(complex(v.value).imag).render(),
            ]
            for t, v in zip(grid, values)
        ]
    else:
        columns = ["t", "value"]
        rows = [[str(t), v.render()] for t, v in zip(grid, values)]
    if fmt == "json":
        text = json.dumps({"meta": meta, "columns": columns, "rows": rows}, indent=2) + "\n"
    else:
        lines = ["# " + ", ".join(f"{k}={v}" for k, v in meta.items())]
        lines.append(",".join(columns))
        lines.extend(",".join(r) for r in rows)
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# eval


# the option each eval target cannot run without (--q/--a are checked on parse)
EVAL_NEEDS = {
    "sq": "n", "Sq": "n", "Gq": "n", "vdc": "n",
    "hatF": "u", "tildeF": "u", "tildeF1": "t", "takagi": "x",
}


def cmd_eval(args) -> int:
    target = args.target
    need = EVAL_NEEDS[target]
    if getattr(args, need) is None:
        raise ParseError(f"eval {target} needs --{need}")
    if target == "sq":
        q = _parse_scalar_arg(args.q, args.mode)
        print(digit_sums.s_q(_check_n(args.n), q).render())
    elif target == "Sq":
        q = _parse_scalar_arg(args.q, args.mode)
        n = _check_n(args.n)
        route = {
            "direct": digit_sums.S_q_direct,
            "recursive": digit_sums.S_q_recursive,
        }
        if args.route == "pow2":
            if n & (n - 1):
                raise DomainError("--route pow2 needs n to be a power of two")
            print(digit_sums.S_q_pow2(n.bit_length() - 1, q).render())
        else:
            print(route[args.route](n, q).render())
    elif target == "takagi":
        a = _parse_scalar_arg(args.a, args.mode)
        x = _parse_scalar_arg(args.x, None)
        print(takagi.takagi_at(x, a, args.tol).render())
    elif target == "hatF":
        q = _parse_scalar_arg(args.q, args.mode)
        print(takagi.hat_F_q(args.u, q, args.tol).render())
    elif target == "tildeF":
        q = _parse_scalar_arg(args.q, args.mode)
        print(takagi.tilde_F_q(args.u, q, args.tol).render())
    elif target == "tildeF1":
        if not 0.0 <= args.t <= 1.0:
            raise DomainError("tilde_F_1 domain is [0,1]")
        print(takagi.tilde_F_q(args.t, 1, args.tol).render())
    elif target == "Gq":
        q = _parse_scalar_arg(args.q, args.mode)
        print(odometer.G_q(_check_n(args.n), q).render())
    elif target == "vdc":
        print(trollope.vdc_star_discrepancy(_check_n(args.n)).render())
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown eval target {target}")
    return 0


# ---------------------------------------------------------------------------
# verify


# A verify target swept over var = least .. top, top the value of --option:
# run(q, top) gives the report mode and the (witness, residual) pairs, and the
# verdict prints scope, formatted with top, after the mode.
class Sweep(NamedTuple):
    run: Callable
    var: str = "n"
    option: str = "n-max"
    least: int = 1
    scope: str = ""


def _sweep(sweep: Sweep, q: Scalar, top: int):
    """(report mode, max residual, its witness) over the sweep's range."""
    if top < sweep.least:
        raise DomainError(f"--{sweep.option} must be >= {sweep.least}; an empty range checks nothing")
    mode, pairs = sweep.run(q, top)
    worst, witness = 0, None
    for w, r in pairs:
        if r != r:  # nan compares false with everything, so it would pass unseen
            raise DomainError(f"the residual at {sweep.var}={w} is nan: a float overflowed")
        if mode is Mode.EXACT and not isinstance(r, Fraction):  # a float 0.0 would print as 0/1
            raise VerificationError(f"the residual at {sweep.var}={w} is {r!r}, not exact in an exact sweep")
        if r > worst:
            worst, witness = r, w
    return mode, worst, witness


def _report(head: str, var: str, worst, witness, mode: Mode, tol: float) -> int:
    """Print the verdict line; exact sweeps pass at residual 0, the others within tol."""
    ok = worst == 0 if mode is Mode.EXACT else worst <= tol
    if mode is Mode.EXACT:
        f = Fraction(worst)
        shown = f"{f.numerator}/{f.denominator}"
    else:
        shown = Scalar.flt(float(worst)).render()
    tag = "PASS" if ok else f"FAIL at {var}={witness}"
    print(f"{head} max residual {shown}, {tag}")
    return 0 if ok else 3


def _n_sweep(make) -> Sweep:
    """The sweep over n of make(q) = (S_q payload q, report mode, residual(n, S_q(n)))."""

    def run(q: Scalar, n_max: int):
        qv, mode, residual = make(q)
        return mode, ((n, residual(n, s)) for n, s in iter_S_direct(n_max, qv))

    return Sweep(run)


def _theorem1(q: Scalar):
    qw = as_qweight(q)
    return qw.q.value, q.mode, lambda n, s: abs(trollope.theorem1_rhs(n, qw).value - s / n)


def _dyadic(q: Scalar):
    return q.value, q.mode, lambda n, s: abs(trollope.dyadic_formula(n, q).value - s / n)


def _recursions(q: Scalar):
    qv = q.value

    def residual(n, s):
        r = abs(digit_sums.S_rec_payload(n, qv) - s)
        if n & (n - 1) == 0:
            r = max(r, abs(digit_sums.S_pow2_payload(n.bit_length() - 1, qv) - s))
        return r

    return qv, q.mode, residual


def _corollary(q: Scalar, n_max: int):
    qf = float(q.promote(Mode.FLOAT).value)
    if qf <= 0.5 or qf == 1.0:
        raise DomainError("corollary requires real q > 1/2, q != 1")
    tildes = takagi.tilde_F_q_log2_range(q, n_max)

    def residual(n, s, tilde):
        lg = math.log2(n)
        try:
            qlg = qf ** lg
        except OverflowError:
            raise DomainError(f"q^log2(n) overflows a float at n={n}") from None
        rhs = qf / 2 * ((1 - qlg) / (1 - qf) + qlg * tilde.value)
        lhs = s / n
        return abs(rhs - lhs) / (1.0 + abs(lhs))

    return Mode.FLOAT, ((n, residual(n, s, t)) for (n, s), t in zip(iter_S_direct(n_max, qf), tildes))


def _prop2(q: Scalar, N_max: int):
    qw = as_qweight(q)
    return q.mode, ((N, odometer.prop2_exact(qw, N).max_residual.value) for N in range(2, N_max + 1))


SWEEPS = {
    "theorem1": _n_sweep(_theorem1),
    "dyadic": _n_sweep(_dyadic),
    "recursions": _n_sweep(_recursions),
    "corollary": Sweep(_corollary),
    "prop2": Sweep(_prop2, var="N", option="N", least=2, scope=" N<={}"),
}


def cmd_verify(args) -> int:
    target = args.target
    if target in SWEEPS:
        sweep = SWEEPS[target]
        top = getattr(args, sweep.option.replace("-", "_"))
        mode, worst, witness = _sweep(sweep, _parse_scalar_arg(args.q, args.mode), top)
        head = f"{target}: q={args.q} mode={mode.value}{sweep.scope.format(top)}"
        return _report(head, sweep.var, worst, witness, mode, args.tol)

    if target == "larcher":
        c = float(args.gamma_limit)
        # the identity is linear in gamma, so its float rounding grows with |gamma|
        scale = max(1, abs(c))
        worst, witness = 0.0, None
        for n in (3, 5, 17, 100, 255, 1024):
            r = abs(trollope.larcher_residual(n, (), c, args.tol).value)
            if r > (n * args.tol + 1e-9) * scale and r > worst:
                worst, witness = r, n
        decay = [c + scale * 2.0 ** -i for i in range(64)]
        r_small = abs(trollope.larcher_residual(1 << 6, decay, c, args.tol).value) / (1 << 6)
        r_big = abs(trollope.larcher_residual(1 << 10, decay, c, args.tol).value) / (1 << 10)
        trend_ok = r_big < r_small
        ok = witness is None and trend_ok
        print(
            f"larcher: gamma_limit={c:g} constant-weight residual "
            f"{'ok' if witness is None else f'violated at n={witness} ({worst:g})'}; "
            f"decay trend |r/n|: {r_small:.3g} -> {r_big:.3g} "
            f"({'decreasing' if trend_ok else 'NOT decreasing'}), {'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 3

    raise ParseError(f"unknown verify target {target}")  # pragma: no cover


# ---------------------------------------------------------------------------
# curve / figures


# A curve target sampled on the grid j/2^m: its parameter option, the parse
# mode forced on that parameter, and values(p, m, grid, tol) for the parsed
# parameter p.  gamma_limit arrives a float from argparse and is not parsed.
class Curve(NamedTuple):
    option: str
    values: Callable
    mode: str | None = None


CURVES = {
    "takagi": Curve("a", lambda a, m, grid, tol: takagi.takagi_grid(a, m)),
    "F": Curve("q", lambda q, m, grid, tol: takagi.F_q_grid(q, m)),
    "tildeF": Curve("q", lambda q, m, grid, tol: takagi.tilde_F_q_grid(q, m, tol)),
    "complex-takagi": Curve("q", lambda q, m, grid, tol: takagi.takagi_grid(as_qweight(q).a, m), "complex"),
    "Gtilde": Curve(
        "gamma_limit", lambda g, m, grid, tol: [takagi.G_tilde_gamma(float(t), g, tol) for t in grid]
    ),
}


def _curve(target: str, param, mode: str | None, m: int, grid, tol: float):
    """(meta, values) of a CURVES target at its parameter as given, on grid = _grid(m)."""
    curve = CURVES[target]
    p = param if isinstance(param, float) else _parse_scalar_arg(param, curve.mode or mode)
    values = curve.values(p, m, grid, tol)
    return {curve.option: param, "mode": values[0].mode.value, "depth": m}, values


def cmd_curve(args) -> int:
    if args.target == "fluctuation":
        return _fluctuation(args)
    grid = _grid(args.grid)
    param = getattr(args, CURVES[args.target].option)
    meta, values = _curve(args.target, param, args.mode, args.grid, grid, args.tol)
    _write_table({"curve": args.target, **meta}, grid, values, args.out, args.format)
    return 0


def _fluctuation(args) -> int:
    q = _parse_scalar_arg(args.q, args.mode)
    qw = as_qweight(q)
    omega = _parse_omega(args.omega, args.seed)
    l = _check_n(args.l)
    grid = _grid(args.grid)
    partials = odometer.orbit_partial_sums(omega, qw, l)
    r = None  # --R max-abs
    if args.R == "auto-prop2":
        if l & (l - 1) or l < 2:
            raise DomainError("--R auto-prop2 needs l to be a power of two >= 2")
        r = odometer.prop2_R(qw, l.bit_length() - 1)
    elif args.R != "max-abs":
        r = _parse_scalar_arg(args.R, args.mode)
    norm = odometer.Normalization.MAX_ABS if r is None else odometer.Normalization.EXPLICIT
    curve = odometer.phi_curve(partials, l, grid, norm, r)
    meta = {
        "curve": "fluctuation",
        "q": args.q,
        "omega": args.omega,
        "l": l,
        "R": curve.R.render(),
        "mode": qw.q.mode.value,
        "depth": args.grid,
        "seed": args.seed,
    }
    # a domain error in the distance exits before any output is written
    dist = odometer.sup_distance_to_limit(curve, qw)
    _write_table(meta, grid, curve.values, args.out, args.format)
    print(f"sup distance to -q*T_a: {dist.render()}", file=sys.stderr)
    return 0


# (file name, figure, curve target, parameter) of every figure panel
FIGURES = (
    ("fig1_a-0.5.csv", 1, "takagi", "-1/2"),
    ("fig1_a0.5.csv", 1, "takagi", "1/2"),
    ("fig1_a2_3.csv", 1, "takagi", "2/3"),
    ("fig1_a0.25.csv", 1, "takagi", "1/4"),
    ("fig2_F_q2_3.csv", 2, "F", "2/3"),
    ("figT_q2_3.csv", "tildeF", "tildeF", "2/3"),
    ("figT_q1.csv", "tildeF", "tildeF", "1"),
    ("figT_q1.5.csv", "tildeF", "tildeF", "3/2"),
    ("figT_q4.csv", "tildeF", "tildeF", "4"),
    ("fig3_q_i.csv", 3, "complex-takagi", "i"),
    ("fig3_q_0.5+0.5i.csv", 3, "complex-takagi", "0.5+0.5i"),
    ("fig3_q_0.5-0.5i.csv", 3, "complex-takagi", "0.5-0.5i"),
)


def cmd_figures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = _grid(args.grid)
    for name, figure, target, param in FIGURES:
        meta, values = _curve(target, param, None, args.grid, grid, takagi.DEFAULT_SERIES_TOL)
        _write_table({"figure": figure, **meta}, grid, values, outdir / name)
    print(f"wrote {len(FIGURES)} files to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# odometer


def cmd_odometer(args) -> int:
    target = args.target
    if target == "run":
        pt = _parse_omega(args.omega, args.seed)
        steps = _check_n(args.steps)
        if steps < 1:
            raise DomainError("run requires --steps >= 1")
        for i in range(steps):
            bits = f"{pt.value:0{pt.width}b}"[::-1]
            print(f"{bits} (n={pt.value})")
            if i + 1 < steps:
                pt = odometer.odometer_step(pt)
        return 0

    if target == "birkhoff":
        q = _parse_scalar_arg(args.q, args.mode)
        # Monte Carlo proxy: computed in float regardless of how q parses
        qf = complex(q.promote(Mode.COMPLEX).value)
        qf = qf.real if qf.imag == 0 else qf
        qw = as_qweight(qf)
        if qw.q.modulus() >= 1:
            raise DomainError("birkhoff requires |q| < 1")
        omega = _parse_omega(args.omega, args.seed)
        n = _check_n(args.n)
        if n < 1:
            raise DomainError("birkhoff requires --n >= 1")
        mean_target = qw.q.value / (2 * (1 - qw.q.value))
        print(f"# q={args.q} omega={args.omega} seed={args.seed} E[s_q]={Scalar(mean_target).render()}")
        checkpoint = 1
        for j, total in enumerate(odometer.iter_ergodic_sums(omega, qw, n), 1):
            if j == checkpoint or j == n:
                dev = total / j - mean_target
                print(f"n={j} deviation={Scalar(dev).render()}")
                while checkpoint <= j:
                    checkpoint <<= 1
        return 0

    if target == "fluctuation":
        return _fluctuation(args)

    if target == "search":
        q = _parse_scalar_arg(args.q, args.mode)
        omega = _parse_omega(args.omega, args.seed)
        try:
            windows = [int(w) for w in args.candidates.split(",") if w]
        except ValueError:
            raise ParseError(f"--candidates must be a comma-separated list of integers: {args.candidates!r}") from None
        grid = _grid(args.grid)
        report = odometer.stabilizer_search(omega, q, windows, grid)
        print(f"# q={args.q} omega={args.omega} seed={args.seed}")
        for l, dist in report.entries:
            print(f"l={l} sup_distance={dist:.6g}")
        print(f"best l={report.best_l} distance={report.best_distance:.6g}")
        return 0

    raise ParseError(f"unknown odometer target {target}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tdq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mode", choices=["exact", "float", "complex"], default=None)
        sp.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("eval", help="evaluate a single quantity")
    pe.add_argument("target", choices=["sq", "Sq", "takagi", "hatF", "tildeF", "tildeF1", "Gq", "vdc"])
    pe.add_argument("--q")
    pe.add_argument("--a")
    pe.add_argument("--x")
    pe.add_argument("--n", type=int)
    pe.add_argument("--u", type=_finite_float)
    pe.add_argument("--t", type=_finite_float)
    pe.add_argument("--tol", type=_finite_float, default=takagi.DEFAULT_SERIES_TOL)
    pe.add_argument("--route", choices=["direct", "recursive", "pow2"], default="recursive")
    common(pe)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run an identity sweep")
    pv.add_argument("target", choices=["theorem1", "dyadic", "prop2", "recursions", "corollary", "larcher"])
    pv.add_argument("--q", default="2/3")
    pv.add_argument("--n-max", type=int, default=4096)
    pv.add_argument("--N", type=int, default=8)
    pv.add_argument("--tol", type=_finite_float, default=1e-9)
    pv.add_argument("--gamma-limit", type=_finite_float, default=1.0)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("curve", help="sample a curve to CSV/JSON")
    pc.add_argument("target", choices=["takagi", "tildeF", "F", "complex-takagi", "Gtilde", "fluctuation"])
    pc.add_argument("--q")
    pc.add_argument("--a")
    pc.add_argument("--grid", type=int, default=10, help="grid density m; 2^m+1 points")
    pc.add_argument("--tol", type=_finite_float, default=takagi.DEFAULT_SERIES_TOL)
    pc.add_argument("--gamma-limit", type=_finite_float, default=1.0)
    pc.add_argument("--omega", default="0")
    pc.add_argument("--l", type=int, default=1024)
    pc.add_argument("--R", default="max-abs")
    pc.add_argument("--out")
    pc.add_argument("--format", choices=["csv", "json"], default="csv")
    common(pc)
    pc.set_defaults(func=cmd_curve)

    pf = sub.add_parser("figures", help="emit figure-reproduction data files")
    pf.add_argument("--out", default="figures")
    pf.add_argument("--grid", type=int, default=10)
    # figures draws nothing at random, but every subcommand takes --seed
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(func=cmd_figures)

    po = sub.add_parser("odometer", help="odometer trajectories and fluctuation curves")
    po.add_argument("target", choices=["run", "birkhoff", "fluctuation", "search"])
    po.add_argument("--q", default="2/3")
    po.add_argument("--omega", default="0")
    po.add_argument("--steps", type=int, default=8)
    po.add_argument("--n", type=int, default=1 << 16)
    po.add_argument("--l", type=int, default=1024)
    po.add_argument("--R", default="auto-prop2")
    po.add_argument("--grid", type=int, default=6)
    po.add_argument("--candidates", default="16,32,64,128,256,512,1024")
    po.add_argument("--out")
    po.add_argument("--format", choices=["csv", "json"], default="csv")
    common(po)
    po.set_defaults(func=cmd_odometer)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors map onto the parse slot
        return 0 if exc.code in (0, None) else 1
    except ParseError as exc:
        print(f"tdq: parse error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ModeError) as exc:
        print(f"tdq: domain error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"tdq: identity violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"tdq: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
