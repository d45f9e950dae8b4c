"""Span tracer for the benchmark's traced run.

While installed, each listed public tdq function is replaced, in every tdq
module namespace that binds it, by a wrapper that records a span: name,
start, end and parent.  Spans stay in memory as flat arrays and are written
out when the run ends.  Untraced runs never install a tracer, so they call
tdq directly.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

LAYERS = (
    ("digit_sums", ("sq_payload", "iter_S_direct", "S_rec_payload", "S_pow2_payload")),
    ("trollope", ("theorem1_rhs", "dyadic_formula", "classic_formula", "vdc_star_discrepancy")),
    ("takagi", ("takagi_series", "takagi_dyadic_exact", "derham_eval", "F_q", "tilde_F_q")),
    ("odometer", ("ergodic_sum", "orbit_partial_sums", "phi_curve", "prop2_exact", "stabilizer_search")),
    ("cli", ("main",)),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS for fn in fns)


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self._open: list[int] = []
        self._patches: list = []
        self._hooks = {
            "takagi.takagi_series": self._count_terms,
            "takagi.takagi_dyadic_exact": self._count_repeat,
            "odometer.ergodic_sum": lambda omega, q, n: self._add_steps(n - 1),
            "odometer.orbit_partial_sums": lambda omega, q, l: self._add_steps(l),
        }
        self.reset_counters()

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def self_times(self, lo: int, hi: int) -> dict[str, list]:
        """name -> [calls, self seconds] over spans lo .. hi-1, where self time
        is a span's duration minus the time its child spans cover."""
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                covered[p - lo] += end[i] - start[i]
        out: dict[str, list] = {}
        for i in range(lo, hi):
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0])
            acc[0] += 1
            acc[1] += end[i] - start[i] - covered[i - lo]
        return out

    def write(self, path) -> dict:
        """Write all spans as four native-endian columns; return their layout."""
        with open(path, "wb") as fh:
            for column in (self.start, self.end, self.name, self.parent):
                column.tofile(fh)
        return {
            "spans": len(self.start),
            "layout": "float64 start[n], float64 end[n], int64 name[n], int64 parent[n] (-1 = root)",
            "names": self.names,
        }

    # -- counters

    def reset_counters(self) -> None:
        self.terms = 0
        self.steps = 0
        self.max_den_bits = 0
        self.dyadic_calls = 0
        self.dyadic_repeats = 0
        self._dyadic_seen: set = set()

    def _count_terms(self, x, a, tol=None, *_):
        tk = self.lib.takagi
        abs_a = float(self.lib.scalar.as_scalar(a).modulus())
        if abs_a < 1:
            self.terms += tk.series_truncation_length(abs_a, tk.DEFAULT_SERIES_TOL if tol is None else tol) + 1

    def _count_repeat(self, x, a):
        s = self.lib.scalar.as_scalar(a)
        key = (self.lib.scalar.as_dyadic_fraction(x), s.mode, s.value)
        self.dyadic_calls += 1
        if key in self._dyadic_seen:
            self.dyadic_repeats += 1
        else:
            self._dyadic_seen.add(key)

    def _add_steps(self, n: int) -> None:
        self.steps += n

    def _note(self, value) -> None:
        bits = _den_bits(value, self.lib.scalar.Scalar, 0)
        if bits > self.max_den_bits:
            self.max_den_bits = bits

    # -- wrapping

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        if name == "digit_sums.iter_S_direct":
            def traced(*args, **kwargs):
                return _TracedIterator(self, name, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                if hook is not None:
                    hook(*args, **kwargs)
                idx = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                self._note(out)
                return out
        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Wrap every listed function in every tdq namespace; unwrap on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tdq" or n.startswith("tdq.")]
        try:
            for mod, fns in LAYERS:
                home = sys.modules[f"tdq.{mod}"]
                for fn_name in fns:
                    fn = getattr(home, fn_name)
                    wrapper = self._wrap(f"{mod}.{fn_name}", fn)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is fn:
                                self._patches.append((m, attr, val))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            while self._patches:
                m, attr, val = self._patches.pop()
                setattr(m, attr, val)


class _TracedIterator:
    """Times each __next__ of the iterator iter_S_direct returns."""

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.close(idx)
        self._tracer._note(item)
        return item


def _den_bits(v, scalar_cls, depth: int) -> int:
    """Largest denominator bit-length among the exact values inside v."""
    if isinstance(v, Fraction):
        return v.denominator.bit_length()
    if isinstance(v, scalar_cls):
        return _den_bits(v.value, scalar_cls, depth)
    if depth < 3:
        if isinstance(v, (tuple, list)):
            return max((_den_bits(x, scalar_cls, depth + 1) for x in v), default=0)
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            return max((_den_bits(getattr(v, f.name), scalar_cls, depth + 1) for f in dataclasses.fields(v)),
                       default=0)
    return 0
