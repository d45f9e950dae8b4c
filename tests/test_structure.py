"""Structural rules of the tdq package, one ``RULES`` row each, run by Tier-1.

The paper's identities are checked by independent routes that must agree;
these rules keep the routes apart and the modules talking through public
names.  A row, keyed by its rule id, holds the modules it reads, a check
that maps a module's text to its violations, and a mutant (module, exact
snippet, replacement) that the check must flag in memory.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tdq"
MODULES = tuple(sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")))
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__"}


def reach(tree, roots, routes, prefix=None):
    """Where the roots, or the module-level functions and classes they name
    (transitively), name a route or a name starting with ``prefix``; a root
    the module does not define is a violation too."""
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, bad = list(roots), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name not in defs:
            bad.append(f"defines no {name}")
            continue
        for node in ast.walk(defs[name]):
            ref = getattr(node, "id", None) or getattr(node, "attr", None)
            if ref in routes or (prefix and str(ref).startswith(prefix)):
                bad.append(f"{node.lineno}: {name} names {ref}")
            elif ref in defs:
                todo.append(ref)
    return bad


def grep(pattern):
    """The lines that match, comments and docstrings included."""
    rx = re.compile(pattern)
    return lambda text: [f"{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), 1) if rx.search(line)]


def reaches(roots, routes, prefix=None):
    return lambda text: reach(ast.parse(text), roots, routes, prefix)


def private_imports(text):
    """from .module import _name (or from tdq...), multi-line imports included."""
    return [f"{node.lineno}: imports {alias.name}" for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tdq"))
            for alias in node.names if alias.name.startswith("_")]


def unused_imports(text):
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{node.lineno}: {alias.asname or alias.name} is unused" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names if (alias.asname or alias.name).split(".")[0] not in used]


def scalar_arithmetic(text):
    """Arithmetic dunders that class Scalar defines: methods, class-body
    assignments, and Scalar.name = ... anywhere in the module."""
    tree = ast.parse(text)
    cls = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scalar"]
    if not cls:
        return ["defines no class Scalar"]
    body = cls[0].body
    names = [(n.lineno, n.name) for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names += [(t.lineno, t.id) for n in body if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for t in ast.walk(n) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    names += [(t.lineno, t.attr) for t in ast.walk(tree) if isinstance(t, ast.Attribute)
              and isinstance(t.ctx, ast.Store) and getattr(t.value, "id", None) == "Scalar"]
    return [f"{line}: Scalar defines {name}" for line, name in names if name in ARITHMETIC]


def one_common_denominator(text):
    """Names of the two sequences ``Ratios`` replaced, and lcm calls outside ``Ratios.of``."""
    tree = ast.parse(text)
    of = [f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Ratios"
          for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "of"]
    inside = {id(n) for f in of for n in ast.walk(f)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and id(n) not in inside
             and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) == "lcm"]
    return grep(r"\b(PartialSums|DyadicGrid)\b")(text) + [f"{n.lineno}: lcm outside Ratios.of" for n in calls]


def curve_values_held_once(text):
    """Fields of ``FluctuationCurve`` besides its grid, payloads, l, R and
    normalization, and any definition, import or assignment of ``_values``."""
    tree = ast.parse(text)
    cls = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FluctuationCurve"]
    if not cls:
        return ["defines no class FluctuationCurve"]
    fields = [n.target for n in cls[0].body if isinstance(n, ast.AnnAssign)]
    bad = [f"{f.lineno}: FluctuationCurve declares {ast.unparse(f)}" for f in fields
           if getattr(f, "id", None) not in {"grid", "payloads", "l", "R", "normalization"}]
    return bad + [f"{n.lineno}: defines _values" for n in ast.walk(tree) if getattr(n, "name", None) == "_values"
                  or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id == "_values"]


# the roots that name no Scalar: the table writer of cli.py, and the many-point forms of takagi.py
PAYLOAD_ROOTS = (["_write_table"], ["takagi_grid", "F_q_grid", "tilde_F_q_grid", "tilde_F_q_log2_range"])


def tables_render_payloads(text):
    """Where the ``PAYLOAD_ROOTS`` set whose first root the module defines, or
    the functions they name, name ``Scalar``; a module that defines no first
    root is read with the first set, and so defines no ``_write_table``."""
    tree = ast.parse(text)
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    roots = next((r for r in PAYLOAD_ROOTS if r[0] in defined), PAYLOAD_ROOTS[0])
    return reach(tree, roots, {"Scalar"})


# the exact point kernels of trollope.py that read W through scalar.tau_weighted_sum
SAWTOOTH_ROOTS = ["theorem1_num", "vdc_star_discrepancy"]


def one_weighted_sawtooth(text):
    """Names of the two copies of W that scalar.py replaced, and, in a module
    that defines a ``SAWTOOTH_ROOTS`` kernel, where those kernels (or the
    functions they name) name ``tau_profile``."""
    tree = ast.parse(text)
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    roots = SAWTOOTH_ROOTS if defined.intersection(SAWTOOTH_ROOTS) else []
    return grep(r"\b(takagi_dyadic_num|takagi_grid_num)\b")(text) + reach(tree, roots, {"tau_profile"})


RULES = {  # rule id: (modules read, check, mutant as (module, snippet, replacement))
    "no-private-names": (
        MODULES, grep(r"\b(digit_sums|odometer|takagi|trollope|scalar)\._[A-Za-z]"),
        ("verify.py", "digit_sums.S_rec_payload(n, qv)", "digit_sums._S_rec_num(n, qv)")),
    "no-private-imports": (
        MODULES, private_imports,
        ("trollope.py", "import bit_counts, geometric_num", "import _rec_table, bit_counts, geometric_num")),
    "no-unused-imports": (
        tuple(f for f in MODULES if f != "__init__.py"), unused_imports,
        ("digit_sums.py", "from operator import add, mul", "from operator import add, mul, sub")),
    # an odometer point is its integer value: no overflow policy, capacity check or bit-tuple rebuild
    "no-odometer-capacity": (
        MODULES, grep(r"OverflowPolicy|binary_digits|capacity exhausted|\.reach\("),
        ("odometer.py", "return OdometerPoint._of(n, 0)", "return OdometerPoint(binary_digits(n))")),
    # odometer sequences of rationals are Ratios, brought to one denominator by Ratios.of alone
    "one-common-denominator": (
        ("odometer.py", "scalar.py"), one_common_denominator,
        ("odometer.py", "s, D, us, W = sums.numerators, sums.den, grid.numerators, grid.den",
         "s, D, us = sums.numerators, sums.den, grid.numerators\n    W = math.lcm(*(t.denominator for t in grid))")),
    # a curve holds its values once, as payloads; values are boxed from them on read
    "curve-values-held-once": (
        ("odometer.py",), curve_values_held_once,
        ("odometer.py", "    payloads: Ratios\n", "    payloads: Ratios\n    numerators: Optional[Ratios] = None\n")),
    # many-point values stay payloads from the grid forms to the table writer, which boxes no row
    "tables-render-payloads": (
        ("cli.py", "takagi.py"), tables_render_payloads,
        ("cli.py", "rows = [[t, render(v)] for t, v in zip(ts, values)]",
         "rows = [[t, Scalar(v).render()] for t, v in zip(ts, values)]")),
    # T_a at a point is takagi.takagi_at's one rule
    "one-takagi-at-rule": (
        ("cli.py", "odometer.py"), grep(r"as_dyadic_fraction|takagi_series|takagi_dyadic_exact"),
        ("odometer.py", "[takagi_at(t, a).value", "[takagi_series(t, a).value")),
    # q is boxed by scalar.as_qweight alone, and the Trollope-Delange formulas take q through it
    "q-boxed-by-as-qweight": (
        tuple(f for f in MODULES if f != "scalar.py"), grep(r"QWeight\.of|payload_key"),
        ("digit_sums.py", "qw = as_qweight(q)\n    return Scalar(sq_payload", "qw = QWeight.of(q)\n    return Scalar(sq_payload")),
    "trollope-names-no-as-scalar": (
        ("trollope.py",), grep(r"\bas_scalar\b"),
        ("trollope.py", "Scalar, as_qweight, tau_profile", "Scalar, as_qweight, as_scalar, tau_profile")),
    # Scalar tags a payload with its mode; the kernels compute on payloads
    "scalar-is-a-boundary-tag": (
        ("scalar.py",), scalar_arithmetic,
        ("scalar.py", "def modulus(self):", "def __neg__(self):")),
    # the independent routes: each root set reaches none of the routes it is checked against
    "derham-independent-of-tau-routes": (
        ("takagi.py",), reaches(["derham_eval", "DeRhamSystem"], {
            "tau_profile", "tau_scaled", "tau_sum", "tau_weighted_sum", "tau_weighted_levels", "tau_weighted_sums",
            "tau_float", "takagi_dyadic_exact", "takagi_grid", "takagi_series", "takagi_at"}),
        ("takagi.py", "sys._lift(k / (1 << i))", "sys._lift(tau_float(k / (1 << i)))")),
    "S_rec-independent-of-counts-and-direct": (
        ("digit_sums.py",), reaches(["S_rec_payload", "S_rec_nums"], {
            "orbit_sums", "orbit_numerators", "window_sum", "bit_counts", "_digit_weights", "iter_S_direct",
            "sq_payload"}),
        ("digit_sums.py", "apow, bpow, pow2 = [1], [1], [0]", "apow, bpow, pow2 = [1], [1], list(bit_counts(1))")),
    # geometric_num is a closed form and stays allowed
    "trollope-delange-independent-of-S_q-routes": (
        ("trollope.py",), reaches(["theorem1_rhs", "dyadic_formula", "theorem1_num", "dyadic_num", "theorem1_nums",
                                   "dyadic_nums", "classic_formula", "vdc_star_discrepancy"], {
            "S_rec_payload", "S_pow2_payload", "orbit_sums", "orbit_numerators", "window_sum", "bit_counts",
            "iter_S_direct", "sq_payload"},
            prefix="S_q_"),
        ("trollope.py", "head = a * geometric_num(k + 1, a, b) * n", "head = a * S_q_pow2(k + 1, qv).value * n")),
    # the weighted sawtooth sum W is scalar.py's: T_a at dyadic points, both
    # Trollope-Delange formulas and van der Corput read it, with no copy of their own
    "one-weighted-sawtooth": (
        ("takagi.py", "trollope.py"), one_weighted_sawtooth,
        ("trollope.py", "return Scalar(Fraction((1 << k) + tau_weighted_sum(n, k, 2, 1), n << k))",
         "total = 1\n    for t in tau_profile(n, k):\n        total = 2 * total + t\n"
         "    return Scalar(Fraction(total, n << k))")),
    # tdq verify's sweeps are verify.run's: cli.py names none of the routes they check
    "sweeps-live-in-verify": (
        ("cli.py",), grep(r"\b(theorem1_nums?|dyadic_nums?|S_rec_nums?|orbit_numerators|iter_S_direct|prop2_exact"
                          r"|tilde_F_q_log2_range)\b"),
        ("cli.py", "result = verify.run(args.target, q, top)",
         "result = verify.run(args.target, q, top)\n    trollope.theorem1_num(1, q)")),
    # odometer birkhoff prints birkhoff_mean and birkhoff_deviation at q as parsed: no orbit walk, no re-boxing
    "one-birkhoff-average": (
        ("cli.py",), reaches(["_birkhoff"], {"orbit_sums", "orbit_partial_sums", "promote", "as_qweight"}),
        ("cli.py", "odometer.birkhoff_mean(q)", "odometer.birkhoff_mean(q.promote(Mode.FLOAT))")),
    # Scalar(payload) is the one constructor: the payload's type is its mode
    "one-scalar-constructor": (
        MODULES, grep(r"Scalar\.(exact|flt|cplx)\b"),
        ("trollope.py", "return Scalar(0.5 * lg + 0.5 * tilde_f1)", "return Scalar.flt(0.5 * lg + 0.5 * tilde_f1)")),
    # option text enters a mode through scalar.parse_scalar's one grammar alone
    "one-literal-grammar": (
        ("cli.py",), grep(r"infer_mode|\b(float|complex|Fraction)\(text"),
        ("cli.py", "return parse_scalar(text, Mode.FLOAT).value", "v = float(text)\n        return v")),
    # each tdq target is a row of a cli table, and argparse reads its choices off that table
    "targets-read-off-tables": (
        ("cli.py",), grep(r'add_argument\("target", choices=\["'),
        ("cli.py", 'pe.add_argument("target", choices=EVALS)',
         'pe.add_argument("target", choices=["sq", "Sq", "takagi", "hatF", "tildeF", "tildeF1", "Gq", "vdc"])')),
}


# a root a rule gained after its row's mutant, with a mutant of its own:
# (rule id, the root, a mutant that only the root's reach flags)
ROOT_MUTANTS = [
    ("S_rec-independent-of-counts-and-direct", "S_rec_nums",
     ("digit_sums.py", "R = [0, first[0]]", "R = [0, first[0]] + bit_counts(0)")),
    ("trollope-delange-independent-of-S_q-routes", "theorem1_nums",
     ("trollope.py", "ws = tau_weighted_sums(2, n_max + 1, 2 * p, r)", "ws = (s for _, s in iter_S_direct(n_max, q))")),
    ("trollope-delange-independent-of-S_q-routes", "dyadic_nums",
     ("trollope.py", "ws = tau_weighted_sums(2, n_max + 1, b, a)", "ws = orbit_numerators(0, q, n_max)[1]")),
    ("sweeps-live-in-verify", "theorem1_nums",
     ("cli.py", "result = verify.run(args.target, q, top)",
      "result = verify.run(args.target, q, top)\n    next(trollope.theorem1_nums(q, top))")),
]


@pytest.mark.parametrize("files, check, mutant", RULES.values(), ids=RULES)
def test_rule(files, check, mutant):
    bad = [f"src/tdq/{f}:{v}" for f in files for v in check((SRC / f).read_text(encoding="utf-8"))]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("files, check, mutant", RULES.values(), ids=RULES)
def test_rule_catches_its_mutant(files, check, mutant):
    f, snippet, replacement = mutant
    text = (SRC / f).read_text(encoding="utf-8")
    # a refactor that moves the snippet has to update the row on purpose
    assert f in files and text.count(snippet) == 1, f"the mutant's snippet is not once in src/tdq/{f}"
    assert check(text.replace(snippet, replacement))


@pytest.mark.parametrize("rule, root, mutant", ROOT_MUTANTS, ids=[f"{rule}:{root}" for rule, root, _ in ROOT_MUTANTS])
def test_rule_catches_its_root_mutant(rule, root, mutant):
    files, check, _ = RULES[rule]
    test_rule_catches_its_mutant(files, check, mutant)


def test_reach_fails_on_a_missing_root():
    assert reach(ast.parse("def f():\n    return g\n"), ["f", "g"], set()) == ["defines no g"]
