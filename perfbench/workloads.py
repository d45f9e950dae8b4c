"""Seeded job lists for the four benchmark workloads, and the checks that
judge each job's output.

A job is plain data (kind, name, parameters), so one seed always gives an
identical list and the library receives only the generated inputs.  Job costs
are stratified: every list of a workload has the same slots (identity, q
class, sweep length, sample count) and the seed draws the values inside each
slot, so a pass costs about the same whatever the seed.

Checks compare against the criterion tolerances pinned in
tests/test_acceptance.py, and where they can, against oracles written here
that share no code with tdq: closed-form digit counts for S_q and a dynamic
programme over the dyadic grid for T_a.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

WORKLOADS = ("exact-sweep", "float-sweep", "orbit-curves", "cli-defaults")

TOL_COMPLEX = 1e-9     # criteria 3 and 4
TOL_CLASSIC = 1e-10    # criterion 7
TOL_BIRKHOFF = 0.01    # criterion 10
TOL_SERIES_DEFAULT = 1e-14  # takagi_series' default certified tolerance
TOL_CLI_FLOAT = 1e-9   # `tdq verify --tol` default

# ROADMAP item 1 reference timings (seconds), keyed by anchor job name.
ANCHOR_REFERENCE_S = {
    "anchor:S_rec_payload q=-3 n<=2^14": 1.85,
    "anchor:recursions q=-3 n<=4096": None,
    "anchor:takagi_series a=1/2 x=j/2^12 j<2000": 0.79,
    "anchor:ergodic_sum q=2/3 float n=2^20": 0.29,
    "anchor:takagi_dyadic_exact a=2/3 depth 12": 0.53,
    "anchor:derham_eval a=2/3 depth 12": 1.03,
    "anchor:prop2_exact q=2/3 N=12": 0.32,
}


class Job(NamedTuple):
    kind: str
    name: str
    params: tuple


class Verdict(NamedTuple):
    """Outcome of one job's check.

    ``ok`` is False for any failure.  ``wrong`` is True only when a returned
    value or a zero-exit CLI output contradicts the check; a job that fails
    by raising a tdq error or by exiting non-zero under the README's exit-code
    contract reports its own failure and is counted in ``failed`` only.
    """

    ok: bool
    wrong: bool
    points: int
    residual: object = None
    tol: float = 0.0
    witness: object = None
    bytes_out: int = 0
    note: str = ""


def passed(points, residual, tol, witness) -> Verdict:
    """Verdict for a residual check: exact (tol 0) needs residual exactly 0."""
    ok = residual == 0 if tol == 0 else residual <= tol
    return Verdict(ok, not ok, points, residual, tol, witness)


# ---------------------------------------------------------------------------
# independent oracles


def closed_S(n: int, q):
    """S_q(n) = sum_i c_i(n) q^{i+1}, c_i(n) = #{j < n : bit i of j set}."""
    total = 0 * q
    w = q
    i = 0
    while (1 << i) < n:
        block = 1 << (i + 1)
        c = ((n >> (i + 1)) << i) + max(0, (n & (block - 1)) - (1 << i))
        total = total + c * w
        w = w * q
        i += 1
    return total


def takagi_table(a, depth: int) -> list:
    """T_a(j / 2^depth) for j = 0 .. 2^depth, built level by level from
    T_a(x) = tau(x) + a T_a(2x mod 1); exact for Fraction a."""
    size = 1 << depth
    exact = isinstance(a, Fraction)
    table = [0 * a] * (size + 1)
    for level in range(1, depth + 1):
        step = 1 << (depth - level)
        for j in range(step, size, 2 * step):
            m = min(j, size - j)
            t = Fraction(m, size) if exact else m / size
            table[j] = t + a * table[(2 * j) % size]
    return table


# ---------------------------------------------------------------------------
# seeded draws


def draw_q(rng: random.Random, cls: str) -> Fraction:
    """Rational q = +-p/r with p, r <= 7 in one class: |q| < 1/2 ("small"),
    +-1/2 ("half"), |q| > 1/2 non-integer ("large"), integer, or 1."""
    if cls == "one":
        return Fraction(1)
    if cls == "half":
        return Fraction(rng.choice((1, -1)), 2)
    if cls == "integer":
        return Fraction(rng.choice((-1, 2, -2, 3, -3, 4, -4)))
    while True:
        q = Fraction(rng.randint(1, 7), rng.randint(2, 7))
        if q.denominator > 1 and q != Fraction(1, 2) and (q < Fraction(1, 2)) == (cls == "small"):
            return q * rng.choice((1, -1))


def draw_complex(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def draw_omega(rng: random.Random) -> tuple:
    """A 64-bit odometer start, LSB first."""
    return tuple(rng.getrandbits(1) for _ in range(64))


def _exact_sweep(rng, seed):
    jobs = [
        Job("S_rec_values", "anchor:S_rec_payload q=-3 n<=2^14", (Fraction(-3), 1 << 14)),
        Job("sweep", "anchor:recursions q=-3 n<=4096", ("recursions", Fraction(-3), 4096)),
    ]
    slots = (
        ("theorem1", ("large", "integer"), (256, 512, 1024)),
        ("dyadic", ("small", "half", "large", "integer"), (256, 1024)),
        ("recursions", ("small", "half", "large", "one"), (256, 1024)),
    )
    for identity, classes, lengths in slots:
        for cls in classes:
            for n_max in lengths:
                q = draw_q(rng, cls)
                jobs.append(Job("sweep", f"{identity} q={q} n<={n_max}", (identity, q, n_max)))
    for n_max in (1024, 4096):
        jobs.append(Job("sweep", f"vdc n<={n_max}", ("vdc", Fraction(1, 2), n_max)))
    return jobs


def _float_sweep(rng, seed):
    jobs = [
        Job("series_grid", "anchor:takagi_series a=1/2 x=j/2^12 j<2000", (0.5, 12, 2000)),
        Job("ergodic", "anchor:ergodic_sum q=2/3 float n=2^20", ((), 2 / 3, 1 << 20)),
    ]
    for identity, lo in (("theorem1", 0.55), ("dyadic", 0.1)):
        for n_max in (512, 1024, 2048, 4096):
            q = draw_complex(rng, lo, 1.25)
            jobs.append(Job("sweep", f"{identity} q={q:.4f} n<={n_max}", (identity, q, n_max)))
    for i in range(4):
        n0 = rng.randint(1, 65536 - 8192 + 1)
        jobs.append(Job("classic", f"classic #{i} n in [{n0}, {n0 + 8192})", (n0, 8192)))
    for i, abscissa in enumerate(("fraction", "float") * 4):
        # every a = k/32 with |a| < 1, twice, with tol exponents e and 19 - e:
        # the series length is then the same for every seed
        samples = []
        for k in range(-31, 32):
            e = rng.randrange(6, 14)
            for exp in (e, 19 - e):
                samples.append((Fraction(rng.randrange(0, 4097), 4096), Fraction(k, 32), 10.0 ** -exp))
        jobs.append(Job("series_samples", f"takagi_series #{i} {abscissa} x, 126 samples", (abscissa, tuple(samples))))
    for _ in range(2):
        omega = draw_omega(rng)
        jobs.append(Job("birkhoff", "birkhoff_deviation q=2/3 float n=2^20 omega=" + _bits(omega),
                        (omega, 2 / 3, 1 << 20)))
    return jobs


def _orbit_curves(rng, seed):
    a23 = Fraction(2, 3)
    jobs = [
        Job("dyadic_grid", "anchor:takagi_dyadic_exact a=2/3 depth 12", (a23, 12)),
        Job("derham_grid", "anchor:derham_eval a=2/3 depth 12", (a23, 12)),
        Job("prop2", "anchor:prop2_exact q=2/3 N=12", (a23, 12)),
    ]
    for N in (9, 10, 11, 12):
        for q in (draw_q(rng, "large"), draw_q(rng, "integer"), draw_complex(rng, 0.55, 1.25)):
            jobs.append(Job("prop2", f"prop2 q={q} N={N}", (q, N)))
    for i, cls in enumerate(("small", "large", "small", "large")):
        a = draw_q(rng, cls)
        jobs.append(Job("dyadic_grid", f"takagi_dyadic_exact #{i} a={a} depth 8", (a, 8)))
        jobs.append(Job("derham_grid", f"derham_eval #{i} a={a} depth 8", (a, 8)))
    windows = (16, 32, 64, 128, 256, 512, 1024)
    for cls in ("large", "integer", "large", "integer"):
        omega, q = draw_omega(rng), draw_q(rng, cls)
        jobs.append(Job("stabilizer", f"stabilizer_search q={q} omega={_bits(omega)}", (omega, q, windows, 6)))
    for _ in range(2):
        omega, q = draw_omega(rng), draw_q(rng, "large")
        jobs.append(Job("fluctuation", f"phi_curve max-abs q={q} l=2^14 omega={_bits(omega)}",
                        (omega, q, 1 << 14, 6)))
    return jobs


# (argv, expectation); argv words may hold {out}, the job's output directory.
# eval uses the README's example inputs (q = 2/3, n = 8, a = x = 1/2);
# everything else runs at its documented defaults.
CLI_COMMANDS = (
    ("eval Sq --q 2/3 --n 8", ("eq", "152/27\n")),
    ("eval Sq --q 2/3 --n 8 --route direct", ("eq", "152/27\n")),
    ("eval Sq --q 2/3 --n 8 --route pow2", ("eq", "152/27\n")),
    ("eval sq --q 2/3 --n 8", ("eq", "16/81\n")),
    ("eval takagi --a 1/2 --x 1/2", ("eq", "1/2\n")),
    ("eval hatF --q 2/3 --u 0.5", ("float", None)),
    ("eval tildeF --q 2/3 --u 0.5", ("float", None)),
    ("eval tildeF1 --t 0.5", ("float", None)),
    ("eval Gq --q 2/3 --n 8", ("eq", "0\n")),
    ("eval vdc --n 8", ("eq", "1/8\n")),
    ("verify theorem1", ("in", "PASS")),
    ("verify dyadic", ("in", "PASS")),
    ("verify prop2", ("in", "PASS")),
    ("verify recursions", ("in", "PASS")),
    ("verify corollary", ("in", "PASS")),
    ("verify larcher", ("in", "PASS")),
    ("curve takagi --a 1/4 --grid 10 --out {out}/parabola.csv", ("parabola", "parabola.csv")),
    ("curve tildeF --q 2/3 --out {out}/tildeF.csv", ("files", 1)),
    ("curve F --q 2/3 --out {out}/F.csv", ("files", 1)),
    ("curve complex-takagi --q i --out {out}/complex.csv", ("files", 1)),
    ("curve Gtilde --out {out}/Gtilde.csv", ("files", 1)),
    ("curve fluctuation --q 2/3 --out {out}/fluctuation.csv", ("files", 1)),
    ("figures --out {out}/figures", ("files", 12)),
    ("odometer run --omega 110 --steps 3", ("eq", "110 (n=3)\n001 (n=4)\n101 (n=5)\n")),
    ("odometer birkhoff", ("in", "deviation=")),
    ("odometer fluctuation", ("in", "# curve=fluctuation")),
    ("odometer search", ("in", "best l=")),
)


def _cli_defaults(rng, seed):
    jobs = []
    for i, (cmd, expect) in enumerate(CLI_COMMANDS):
        argv = tuple(cmd.split()) + ("--seed", str(seed % (1 << 31)))
        jobs.append(Job("cli", f"tdq {cmd}", (argv, expect, f"c{i:02d}")))
    return jobs


def _bits(omega) -> str:
    return "".join(map(str, omega))


MAKERS = {
    "exact-sweep": _exact_sweep,
    "float-sweep": _float_sweep,
    "orbit-curves": _orbit_curves,
    "cli-defaults": _cli_defaults,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the seed draws the values and the order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = MAKERS[workload](rng, seed)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running and checking jobs


class Context:
    """What jobs share within one run: the tdq modules, the CLI output
    directory, oracle tables and the first output digest of each CLI job."""

    def __init__(self, lib, out_dir: Path):
        self.lib = lib
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        self._tables: dict = {}

    def table(self, a, depth: int) -> list:
        key = (type(a), a, depth)
        if key not in self._tables:
            self._tables[key] = takagi_table(a, depth)
        return self._tables[key]


def _sweep_residual(lib, identity: str, q) -> Callable:
    ds, tr = lib.digit_sums, lib.trollope
    if identity == "theorem1":
        return lambda n, s: abs(tr.theorem1_rhs(n, q).value - s / n)
    if identity == "dyadic":
        return lambda n, s: abs(tr.dyadic_formula(n, q).value - s / n)
    if identity == "vdc":
        return lambda n, s: abs((1 - tr.vdc_star_discrepancy(n).value) / 2 - s / n)

    def recursions(n, s):
        r = abs(ds.S_rec_payload(n, q) - s)
        if n & (n - 1) == 0:
            r = max(r, abs(ds.S_pow2_payload(n.bit_length() - 1, q) - s))
        return r

    return recursions


def run_sweep(ctx, params):
    identity, q, n_max = params
    residual = _sweep_residual(ctx.lib, identity, q)
    worst, witness = 0, None
    for n, s in ctx.lib.digit_sums.iter_S_direct(n_max, q):
        r = residual(n, s)
        if r > worst:
            worst, witness = r, n
    return worst, witness


def check_sweep(ctx, params, out):
    tol = TOL_COMPLEX if isinstance(params[1], complex) else 0
    return passed(params[2], out[0], tol, out[1] and f"n={out[1]}")


def run_S_rec_values(ctx, params):
    q, n_max = params
    S_rec = ctx.lib.digit_sums.S_rec_payload
    return [S_rec(n, q) for n in range(1, n_max + 1)]


def check_S_rec_values(ctx, params, out):
    q, _ = params
    worst, witness = 0, None
    for n, v in enumerate(out, start=1):
        r = abs(v - closed_S(n, q))
        if r > worst:
            worst, witness = r, f"n={n}"
    return passed(len(out), worst, 0, witness)


def run_classic(ctx, params):
    n0, count = params
    classic = ctx.lib.trollope.classic_formula
    return [classic(n).value for n in range(n0, n0 + count)]


def check_classic(ctx, params, out):
    n0, _ = params
    total = closed_S(n0, 1)  # popcounts of 0 .. n0-1
    worst, witness = 0.0, None
    for n, v in enumerate(out, start=n0):
        if n > n0:
            total += (n - 1).bit_count()
        r = abs(v - total / n)
        if r > worst:
            worst, witness = r, f"n={n}"
    return passed(len(out), worst, TOL_CLASSIC, witness)


def run_series_grid(ctx, params):
    a, depth, count = params
    series = ctx.lib.takagi.takagi_series
    return [series(Fraction(j, 1 << depth), a).value for j in range(count)]


def check_series_grid(ctx, params, out):
    a, depth, _ = params
    table = ctx.table(Fraction(a), depth)
    worst, witness = 0.0, None
    for j, v in enumerate(out):
        r = abs(v - float(table[j]))
        if r > worst:
            worst, witness = r, f"x={j}/{1 << depth}"
    return passed(len(out), worst, TOL_SERIES_DEFAULT, witness)


def run_series_samples(ctx, params):
    """takagi_series against takagi_dyadic_exact; worst error/tol (criterion 9)."""
    abscissa, samples = params
    tk = ctx.lib.takagi
    worst, witness = 0.0, None
    for x, a, tol in samples:
        s = tk.takagi_series(x if abscissa == "fraction" else float(x), float(a), tol).value
        ratio = abs(s - float(tk.takagi_dyadic_exact(x, a).value)) / tol
        if ratio > worst:
            worst, witness = ratio, (x, a, tol)
    return worst, witness


def check_series_samples(ctx, params, out):
    worst, w = out
    witness = w and f"x={w[0]} a={w[1]} tol={w[2]:g}"
    return passed(len(params[1]), worst, 1.0, witness)


def run_ergodic(ctx, params):
    omega, q, n = params
    od = ctx.lib.odometer
    return od.ergodic_sum(od.OdometerPoint(omega), q, n).value


def check_ergodic(ctx, params, out):
    _, q, n = params
    return passed(1, abs(out / n - q / (2 * (1 - q))), TOL_BIRKHOFF, f"n={n}")


def run_birkhoff(ctx, params):
    omega, q, n = params
    od = ctx.lib.odometer
    return od.birkhoff_deviation(od.OdometerPoint(omega), q, n).value


def check_birkhoff(ctx, params, out):
    return passed(1, abs(out), TOL_BIRKHOFF, f"n={params[2]}")


def run_dyadic_grid(ctx, params):
    a, depth = params
    dyadic = ctx.lib.takagi.takagi_dyadic_exact
    return [dyadic(Fraction(j, 1 << depth), a).value for j in range((1 << depth) + 1)]


def run_derham_grid(ctx, params):
    a, depth = params
    tk = ctx.lib.takagi
    system = tk.takagi_system(a)
    return [tk.derham_eval(system, Fraction(j, 1 << depth)) for j in range((1 << depth) + 1)]


def check_grid(ctx, params, out):
    a, depth = params
    table = ctx.table(a, depth)
    worst, witness = 0, None
    for j, v in enumerate(out):
        if not isinstance(v, Fraction):  # a DeRhamValue: dyadic descent must be exact
            if v.error_bound != 0.0:
                return Verdict(False, True, j + 1, v.error_bound, 0, f"x={j}/{1 << depth}",
                               note="non-zero error bound at a dyadic point")
            v = v.value.value
        r = abs(v - table[j])
        if r > worst:
            worst, witness = r, f"x={j}/{1 << depth}"
    return passed(len(out), worst, 0, witness)


def run_prop2(ctx, params):
    q, N = params
    return ctx.lib.odometer.prop2_exact(q, N)


def check_prop2(ctx, params, out):
    """Reported residual, and each value against -q T_a(t) from the oracle."""
    q, N = params
    tol = TOL_COMPLEX if isinstance(q, complex) else 0
    table = ctx.table(1 / (2 * q), N - 1)
    if len(out.curve.values) != len(table):
        return Verdict(False, True, len(out.curve.values), note="grid size")
    worst, witness = abs(out.max_residual.value), "reported max_residual"
    for j, v in enumerate(out.curve.values):
        r = abs(v.value + q * table[j])
        if r > worst:
            worst, witness = r, f"t={j}/{1 << (N - 1)}"
    return passed(len(table), worst, tol, witness)


def _grid(depth: int) -> list:
    return [Fraction(j, 1 << depth) for j in range((1 << depth) + 1)]


def run_stabilizer(ctx, params):
    omega, q, windows, depth = params
    od = ctx.lib.odometer
    return od.stabilizer_search(od.OdometerPoint(omega), q, windows, _grid(depth))


def check_stabilizer(ctx, params, out):
    """Structural checks: one entry per window, distances of two curves
    normalized to max-abs 1 lie in [0, 2], and the best entry is the minimum."""
    _, _, windows, _ = params
    ok = (
        [l for l, _ in out.entries] == sorted(windows)
        and all(0.0 <= d <= 2.0 for _, d in out.entries)
        and (out.best_l, out.best_distance) == min(out.entries, key=lambda e: (e[1], e[0]))
    )
    return Verdict(ok, not ok, len(out.entries), note="" if ok else "inconsistent stabilizer report")


def run_fluctuation(ctx, params):
    omega, q, l, depth = params
    od = ctx.lib.odometer
    partials = od.orbit_partial_sums(od.OdometerPoint(omega), q, l)
    return partials, od.phi_curve(partials, l, _grid(depth), od.Normalization.MAX_ABS)


def check_fluctuation(ctx, params, out):
    """Partial sums at every power of two against S_q(w + j) - S_q(w), where w
    is omega's integer value; the max-abs curve vanishes at 0 and 1 and has
    max |phi| = 1."""
    omega, q, l, _ = params
    partials, curve = out
    w = int(_bits(omega)[::-1], 2)
    base = closed_S(w, q)
    worst, witness = 0, None
    for j in [0] + [1 << i for i in range(l.bit_length())]:
        r = abs(partials[j] - (closed_S(w + j, q) - base))
        if r > worst:
            worst, witness = r, f"j={j}"
    values = [v.value for v in curve.values]
    if values[0] != 0 or values[-1] != 0 or max(abs(v) for v in values) != 1:
        return Verdict(False, True, len(values), note="max-abs curve invariants")
    return passed(len(values) + l.bit_length() + 1, worst, 0, witness)


_RESIDUAL = re.compile(r"mode=(\w+).* max residual (\S+), (PASS|FAIL at \S+)")


def run_cli(ctx, params):
    argv, _, slot = params
    out_dir = ctx.out_dir / slot
    out_dir.mkdir(exist_ok=True)
    argv = [word.format(out=out_dir) for word in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = ctx.lib.cli.main(argv)
    return rc, stdout.getvalue(), stderr.getvalue()


def _is_float_line(text: str) -> bool:
    try:
        return text.count("\n") == 1 and math.isfinite(float(text))
    except ValueError:
        return False


def check_cli(ctx, params, out):
    """Exit code 0 (the README's passing run), the expected output, and
    byte-identical output across the passes of a run."""
    argv, (how, want), slot = params
    rc, stdout, stderr = out
    out_dir = ctx.out_dir / slot
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    blobs = [stdout.encode()] + [p.read_bytes() for p in files]
    digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
    first = ctx.digests.setdefault(slot, digest)
    if how == "eq":
        expected = stdout == want
    elif how == "in":
        expected = want in stdout
    elif how == "float":
        expected = _is_float_line(stdout)
    elif how == "files":
        expected = len(files) == want
    else:  # parabola: the a = 1/4 curve equals 2t(1-t) exactly (criterion 6)
        table = out_dir / want
        rows = [r.split(",") for r in table.read_text().splitlines()[2:]] if table.is_file() else []
        expected = len(rows) == 1025 and all(Fraction(v) == 2 * Fraction(t) * (1 - Fraction(t)) for t, v in rows)
    shutil.rmtree(out_dir)
    ok = rc == 0 and expected and digest == first
    first_line = (stdout or stderr).strip().splitlines()[:1]
    note = "" if ok else f"exit {rc}: {' '.join(first_line)}"
    residual, tol, witness = None, 0, None
    m = _RESIDUAL.search(stdout)
    if m:
        residual = float(Fraction(m.group(2))) if m.group(1) != "exact" else Fraction(m.group(2))
        tol = TOL_CLI_FLOAT if m.group(1) != "exact" else 0
        witness = m.group(3)
    # a non-zero exit is the program reporting its own failure; only output
    # that contradicts the check under exit 0 counts as wrong
    return Verdict(ok, rc == 0 and not ok, 1, residual, tol, witness, sum(map(len, blobs)), note)


class Kind(NamedTuple):
    run: Callable
    check: Callable


KINDS = {
    "sweep": Kind(run_sweep, check_sweep),
    "S_rec_values": Kind(run_S_rec_values, check_S_rec_values),
    "classic": Kind(run_classic, check_classic),
    "series_grid": Kind(run_series_grid, check_series_grid),
    "series_samples": Kind(run_series_samples, check_series_samples),
    "ergodic": Kind(run_ergodic, check_ergodic),
    "birkhoff": Kind(run_birkhoff, check_birkhoff),
    "dyadic_grid": Kind(run_dyadic_grid, check_grid),
    "derham_grid": Kind(run_derham_grid, check_grid),
    "prop2": Kind(run_prop2, check_prop2),
    "stabilizer": Kind(run_stabilizer, check_stabilizer),
    "fluctuation": Kind(run_fluctuation, check_fluctuation),
    "cli": Kind(run_cli, check_cli),
}
