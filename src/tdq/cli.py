"""tdq command-line front end.

Exit codes: 0 pass, 1 parse error, 2 domain error, 3 identity violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

from . import digit_sums, odometer, takagi, trollope, verify
from .errors import DomainError, ModeError, ParseError, VerificationError
from .scalar import Mode, Ratios, Scalar, as_qweight, parse_scalar, render, render_ratio

N_LIMIT = 1 << 62
GRID_LIMIT = 20


def _parse_scalar_arg(text: str | None, mode_opt: str | None) -> Scalar:
    if text is None:
        raise ParseError("missing scalar argument (--q/--a/--x)")
    return parse_scalar(text, Mode(mode_opt) if mode_opt else None)


def _finite_float(text: str) -> float:
    """argparse type for the float options: any real literal, as parse_scalar
    reads it in float mode, so nan and inf are usage errors."""
    try:
        return parse_scalar(text, Mode.FLOAT).value
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_n(n: int, shown: str | None = None) -> int:
    """n, once it is at most the limit 2^62; the error shows it as shown, or as "n = <n>"."""
    if n > N_LIMIT:
        raise DomainError(f"{shown or f'n = {n}'} exceeds the limit 2^62 = {N_LIMIT}")
    return n


def _parse_omega(text: str, seed: int) -> odometer.OdometerPoint:
    if text == "random":
        rng = random.Random(seed)
        bits = tuple(rng.getrandbits(1) for _ in range(64))
        return odometer.OdometerPoint(bits)
    if not text or any(c not in "01" for c in text):
        raise ParseError(f"--omega must be an LSB-first bit string or 'random': {text!r}")
    return odometer.OdometerPoint(tuple(int(c) for c in text))


def _grid(m: int) -> Ratios:
    if m < 0 or m > GRID_LIMIT:
        raise DomainError(f"grid density must be in [0, {GRID_LIMIT}]")
    return odometer.dyadic_grid(m)


# ---------------------------------------------------------------------------
# table output


def _write_table(meta: dict, grid, values, out=None, fmt: str = "csv") -> None:
    """Write a sampled curve, on an exact ``Ratios`` grid, as CSV or JSON to the
    file ``out``, or to stdout.  ``values`` are payloads of one mode; exact
    points and values are written from their integer pairs.  Each row is
    rendered once, into its CSV line or JSON row, before the file is opened,
    so a value that fails to render leaves no file; JSON text is streamed."""
    columns = ["t", "value"]
    ts = (render_ratio(u, grid.den) for u in grid.numerators)
    if isinstance(values, Ratios) and values.den is not None:
        rows = ([t, render_ratio(n, values.den)] for t, n in zip(ts, values.numerators))
    elif type(values[0]) is complex:
        columns = ["t", "re", "im"]
        rows = ([t, render(v.real), render(v.imag)] for t, v in zip(ts, values))
    else:
        rows = ([t, render(v)] for t, v in zip(ts, values))
    if fmt == "json":  # the chunks json.dump writes, and no whole text
        lines = chain(json.JSONEncoder(indent=2).iterencode({"meta": meta, "columns": columns, "rows": list(rows)}),
                      ["\n"])
    else:
        head = "# " + ", ".join(f"{k}={v}" for k, v in meta.items())
        lines = [f"{head}\n", ",".join(columns) + "\n", *(",".join(r) + "\n" for r in rows)]
    if out:
        with Path(out).open("w", encoding="utf-8", newline="\n") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


# ---------------------------------------------------------------------------
# eval


def _S_q_pow2(n: int, q: Scalar) -> Scalar:
    if n < 1:
        raise DomainError("S_q is defined for n >= 1")
    if n & (n - 1):
        raise DomainError("--route pow2 needs n to be a power of two")
    return digit_sums.S_q_pow2(n.bit_length() - 1, q)


SQ_ROUTES = {"direct": digit_sums.S_q_direct, "recursive": digit_sums.S_q_recursive, "pow2": _S_q_pow2}


def _tilde_F1(_, args) -> Scalar:
    if not 0.0 <= args.t <= 1.0:
        raise DomainError("tilde_F_1 domain is [0,1]")
    return takagi.tilde_F_q(args.t, 1, args.tol)


# An eval target: the option it cannot run without, value(p, args) for p the
# scalar option parsed first under --mode (None when there is none), and that
# option.
class Eval(NamedTuple):
    need: str
    value: Callable
    option: str | None = "q"


EVALS = {
    "sq": Eval("n", lambda q, args: digit_sums.s_q(_check_n(args.n), q)),
    "Sq": Eval("n", lambda q, args: SQ_ROUTES[args.route](_check_n(args.n), q)),
    "takagi": Eval("x", lambda a, args: takagi.takagi_at(_parse_scalar_arg(args.x, None), a, args.tol), "a"),
    "hatF": Eval("u", lambda q, args: takagi.hat_F_q(args.u, q, args.tol)),
    "tildeF": Eval("u", lambda q, args: takagi.tilde_F_q(args.u, q, args.tol)),
    "tildeF1": Eval("t", _tilde_F1, None),
    "Gq": Eval("n", lambda q, args: odometer.G_q(_check_n(args.n), q)),
    "vdc": Eval("n", lambda _, args: trollope.vdc_star_discrepancy(_check_n(args.n)), None),
}


def cmd_eval(args) -> int:
    target = EVALS[args.target]
    if getattr(args, target.need) is None:
        raise ParseError(f"eval {args.target} needs --{target.need}")
    p = target.option and _parse_scalar_arg(getattr(args, target.option), args.mode)
    print(target.value(p, args).render())
    return 0


# ---------------------------------------------------------------------------
# verify


def _larcher(args) -> int:
    c = args.gamma_limit
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
        f"decay trend |r/n| (two-point estimate): {r_small:.3g} -> {r_big:.3g} "
        f"({'decreasing' if trend_ok else 'NOT decreasing'}), {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 3


def _verdict(head: str, result: verify.SweepResult, tol: float) -> int:
    """Print a sweep's verdict line and return its exit code."""
    w = result.worst  # an int 0 or a Fraction when exact
    shown = f"{w.numerator}/{w.denominator}" if result.mode is Mode.EXACT else Scalar(float(w)).render()
    ok = result.passed(tol)
    print(f"{head} max residual {shown}, {'PASS' if ok else f'FAIL at {result.var}={result.witness}'}")
    return 0 if ok else 3


def cmd_verify(args) -> int:
    sweep = verify.SWEEPS.get(args.target)
    # a sweep reads q, the mode and its own range; larcher weighs bits by gamma,
    # in float, at its own n, and reads none of them.  An option the target does
    # not read is refused, not ignored, so no argparse defaults
    read = {"q", "mode", sweep.option.replace("-", "_")} if sweep else set()
    given = [o for o in ("q", "mode", "n_max", "N") if o not in read and getattr(args, o) is not None]
    if given:
        raise ParseError(f"verify {args.target} takes no --{given[0].replace('_', '-')}")
    if sweep is None:
        return _larcher(args)
    top = getattr(args, sweep.option.replace("-", "_"))
    top = (4096 if sweep.var == "n" else 8) if top is None else top
    q_text = "2/3" if args.q is None else args.q
    q = _parse_scalar_arg(q_text, args.mode)
    if sweep.var == "n":
        _check_n(top)
    else:  # prop2 walks 2^N points; 2^N is built only up to 2^63, which is refused already
        _check_n(1 << min(max(top, 0), 63), f"the window 2^N = 2^{top}")
    result = verify.run(args.target, q, top)
    scope = "" if sweep.var == "n" else f" {sweep.var}<={top}"
    return _verdict(f"{args.target}: q={q_text} mode={result.mode.value}{scope}", result, args.tol)


# ---------------------------------------------------------------------------
# curve / figures


# A curve target sampled on the grid j/2^m: its parameter option, the parse
# mode of that parameter when --mode is not given, and values(p, m, grid, tol)
# for the parsed parameter p.  gamma_limit arrives a float from argparse and
# is not parsed.
class Curve(NamedTuple):
    option: str
    values: Callable
    mode: str | None = None


CURVES = {
    "takagi": Curve("a", lambda a, m, grid, tol: takagi.takagi_grid(a, m)),
    "tildeF": Curve("q", lambda q, m, grid, tol: takagi.tilde_F_q_grid(q, m, tol)),
    "F": Curve("q", lambda q, m, grid, tol: takagi.F_q_grid(q, m)),
    "complex-takagi": Curve("q", lambda q, m, grid, tol: takagi.takagi_grid(as_qweight(q).a, m), "complex"),
    "Gtilde": Curve(
        "gamma_limit",
        lambda g, m, grid, tol: [takagi.G_tilde_gamma(u / grid.den, g, tol).value for u in grid.numerators],
    ),
}


def _curve(target: str, param, mode: str | None, m: int, grid, tol: float):
    """(meta, values) of a CURVES target at its parameter as given, on grid = _grid(m)."""
    curve = CURVES[target]
    p = param if isinstance(param, float) else _parse_scalar_arg(param, mode or curve.mode)
    values = curve.values(p, m, grid, tol)
    return {curve.option: param, "mode": Scalar(values[0]).mode.value, "depth": m}, values


def cmd_curve(args) -> int:
    if args.target not in CURVES:
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
        N = l.bit_length() - 1
        r = odometer.prop2_R(qw, N)
        if r.is_zero():  # exactly 0 at q = 0; a tiny float q underflows
            raise DomainError(f"normalizer R = (2q)^{N - 1} {'underflows to' if qw.q.value else 'is'} 0")
    elif args.R != "max-abs":
        r = _parse_scalar_arg(args.R, args.mode)
    norm = odometer.Normalization.MAX_ABS if r is None else odometer.Normalization.EXPLICIT
    curve = odometer.phi_curve(partials, l, grid, norm, r)
    meta = {
        "curve": args.target,
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
    _write_table(meta, grid, curve.payloads, args.out, args.format)
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


def _run(args) -> int:
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


def _birkhoff(args) -> int:
    q = _parse_scalar_arg(args.q, args.mode)
    mean = odometer.birkhoff_mean(q)
    omega = _parse_omega(args.omega, args.seed)
    n = _check_n(args.n)
    if n < 1:
        raise DomainError("birkhoff requires --n >= 1")
    print(f"# q={args.q} omega={args.omega} seed={args.seed} E[s_q]={mean.render()}")
    for j in sorted({*(1 << k for k in range(n.bit_length())), n}):
        print(f"n={j} deviation={odometer.birkhoff_deviation(omega, q, j).render()}")
    return 0


def _search(args) -> int:
    q = _parse_scalar_arg(args.q, args.mode)
    omega = _parse_omega(args.omega, args.seed)
    try:
        windows = [int(w) for w in args.candidates.split(",") if w]
    except ValueError:
        raise ParseError(f"--candidates must be a comma-separated list of integers: {args.candidates!r}") from None
    for l in windows:
        _check_n(l)
    grid = _grid(args.grid)
    report = odometer.stabilizer_search(omega, q, windows, grid)
    print(f"# q={args.q} omega={args.omega} seed={args.seed}")
    for l, dist in report.entries:
        print(f"l={l} sup_distance={dist:.6g}")
    print(f"best l={report.best_l} distance={report.best_distance:.6g}")
    return 0


ODOMETER = {"run": _run, "birkhoff": _birkhoff, "fluctuation": _fluctuation, "search": _search}


def cmd_odometer(args) -> int:
    return ODOMETER[args.target](args)


# ---------------------------------------------------------------------------
# parser


class _Choices(tuple):
    """The choices of the argument called name, in table order.  argparse
    tests a value with ``in``, and for any other value ``in`` raises the
    invalid-choice error in tdq's own words: argparse's text differs between
    patch releases (3.13.13 prints the choices unquoted)."""

    def __new__(cls, name: str, table):
        choices = super().__new__(cls, table)
        choices.name = name
        return choices

    def __contains__(self, value) -> bool:
        if not super().__contains__(value):
            choices = ", ".join(map(repr, self))
            raise argparse.ArgumentError(None, f"argument {self.name}: invalid choice: {value!r} (choose from {choices})")
        return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose choices are ``_Choices``."""

    def add_argument(self, *names, **kwargs):
        if "choices" in kwargs:
            kwargs["choices"] = _Choices("/".join(names), kwargs["choices"])
        return super().add_argument(*names, **kwargs)


@functools.cache  # argparse reads the help width when it formats, not here
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tdq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mode", choices=[m.value for m in Mode], default=None)
        sp.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("eval", help="evaluate a single quantity")
    pe.add_argument("target", choices=EVALS)
    pe.add_argument("--q")
    pe.add_argument("--a")
    pe.add_argument("--x")
    pe.add_argument("--n", type=int)
    pe.add_argument("--u", type=_finite_float)
    pe.add_argument("--t", type=_finite_float)
    pe.add_argument("--tol", type=_finite_float, default=takagi.DEFAULT_SERIES_TOL)
    pe.add_argument("--route", choices=SQ_ROUTES, default="recursive")
    common(pe)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run an identity sweep")
    pv.add_argument("target", choices=[*verify.SWEEPS, "larcher"])
    pv.add_argument("--q")
    pv.add_argument("--n-max", type=int)
    pv.add_argument("--N", type=int)
    pv.add_argument("--tol", type=_finite_float, default=1e-9)
    pv.add_argument("--gamma-limit", type=_finite_float, default=1.0)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("curve", help="sample a curve to CSV/JSON")
    pc.add_argument("target", choices=[*CURVES, "fluctuation"])
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
    po.add_argument("target", choices=ODOMETER)
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

    sub.choices = _Choices("command", sub.choices)
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
