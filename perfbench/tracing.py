"""Tracing of kitealg from outside the package.

`Tracer.install` replaces the public functions and methods named in `PLAN`
with wrappers that count calls, time the hot arithmetic (kite sums and
differences, loop products) and record a span for every coarse call (spec
parsing, suite runs and checkers).  Spans are kept in memory and handed
over by `dump` when the round ends.  The package's files are not touched: the
wrappers are set on the imported modules and classes only, so a process that
never calls `install` runs the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, kind, metric name).  An attribute "Class.method" wraps
# the method on that class; "*.method" wraps it on every class of the module
# that defines it itself, so nested calls of product groups are counted too.
#   count - calls only
#   hot   - calls and time; the outermost hot call's time is charged to the
#           innermost open span, so a checker's self time excludes it
#   timed - calls and time, charged to nobody
#   span  - calls and a span with its parent
#   gen   - items a generator yields
PLAN = [
    ("cli", "parse_spec", "span", "cli.parse_spec"),
    ("cli", "run_suite", "span", "cli.suite"),
    ("pogroup", "*.op", "count", "pogroup.op"),
    ("pogroup", "*.leq", "count", "pogroup.leq"),
    ("pogroup", "*.inv", "count", "pogroup.inv"),
    ("pogroup", "*.enumerate_box", "count", "pogroup.enumerate_box"),
    ("indexsys", "perm_inverse", "count", "indexsys.perm_inverse"),
    ("indexsys", "check_component_laws", "span", "indexsys.check_component_laws"),
    ("indexsys", "validate_decomposition", "span", "indexsys.validate_decomposition"),
    ("indexsys", "check_mixed_commutation", "span", "indexsys.check_mixed_commutation"),
    ("kite", "KiteAlgebra.add", "hot", "kite.add"),
    ("kite", "KiteAlgebra.diff_left", "hot", "kite.diff"),
    ("kite", "KiteAlgebra.diff_right", "hot", "kite.diff"),
    ("kite", "KiteAlgebra.leq", "count", "kite.leq"),
    ("kite", "rdp_quadruples", "gen", "kite.rdp.quadruples"),
    ("kite", "find_kite_refinement", "timed", "kite.find_kite_refinement"),
    ("kite", "check_pea_axioms", "span", "kite.check_pea_axioms"),
    ("kite", "check_commutativity", "span", "kite.check_commutativity"),
    ("kite", "check_kite_rdp", "span", "kite.check_kite_rdp"),
    ("poloop", "PoLoop.mul", "hot", "poloop.mul"),
    ("poloop", "GammaInterval.add", "count", "poloop.gamma_add"),
    ("poloop", "is_associative", "span", "poloop.is_associative"),
    ("poloop", "strong_unit_check", "span", "poloop.strong_unit_check"),
    ("poloop", "embed_kite", "span", "poloop.embed_kite"),
    ("poloop", "GammaInterval.check_complements", "span", "poloop.check_complements"),
    ("subdirect", "project_component", "count", "subdirect.project_component"),
    ("subdirect", "subdirect_embedding_check", "span", "subdirect.subdirect_embedding_check"),
    ("subdirect", "check_kernel_projects_to_zero", "span",
     "subdirect.check_kernel_projects_to_zero"),
    ("verdict", "merge", "count", "verdict.merge"),
]

CHECKERS = [name for _, _, kind, name in PLAN
            if kind == "span" and not name.startswith("cli.")]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.add_defined = 0
        # [name, start, end, parent index, hot seconds inside]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._hot_depth = 0

    # -- wrappers -------------------------------------------------------------

    def _count(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _gen(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item
        return wrapper

    def _timed(self, fn, name):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
        return wrapper

    def _hot(self, fn, name):
        calls, seconds, spans, open_ = self.calls, self.seconds, self.spans, self._open
        is_add = name == "kite.add"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            self._hot_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._hot_depth -= 1
                seconds[name] += dt
                if self._hot_depth == 0 and open_:
                    spans[open_[-1]][4] += dt
            if is_add and result is not None:
                self.add_defined += 1
            return result
        return wrapper

    def _span(self, fn, name):
        calls, spans, open_ = self.calls, self.spans, self._open
        per_suite = name == "cli.suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{args[1]}" if per_suite else name
            calls[label] += 1
            parent = open_[-1] if open_ else None
            span = [label, perf_counter(), None, parent, 0.0]
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
                if parent is not None:
                    spans[parent][4] += span[4]
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every entry of PLAN in the imported kitealg modules."""
        makers = {"count": self._count, "gen": self._gen, "timed": self._timed,
                  "hot": self._hot, "span": self._span}
        for module_name, attr, kind, name in PLAN:
            module = importlib.import_module(f"kitealg.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name == "*":
                owners = [cls for cls in vars(module).values()
                          if isinstance(cls, type) and cls.__module__ == module.__name__
                          and method in vars(cls)]
            elif owner_name:
                owners = [getattr(module, owner_name)]
            else:
                owners = []
            for cls in owners:
                setattr(cls, method, makers[kind](vars(cls)[method], name))
            if not owners:
                original = getattr(module, method)
                wrapped = makers[kind](original, name)
                # rebind every import of the function, not only its home
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "kitealg" or mod_name.startswith("kitealg."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "seconds": dict(sorted(self.seconds.items())),
            "add_defined": self.add_defined,
            "spans": [{"name": n, "start": a, "end": b, "parent": p, "hot_s": h}
                      for n, a, b, p, h in self.spans],
        }


def span_seconds(dump: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in dump["spans"] if s["name"] == name)


def self_seconds(dump: dict, name: str) -> float:
    """Span time minus the kite sum, difference and loop product time inside it."""
    return sum(s["end"] - s["start"] - s["hot_s"] for s in dump["spans"] if s["name"] == name)
