"""Span tracing of groupkit from outside the package.

Tracer.install wraps the public functions named in TARGETS. groupkit's
modules import each other's names directly (``from .core import make_table``),
so a wrapper replaces every binding of the original function in every loaded
``groupkit.*`` module; methods are replaced on their class. Tracer.uninstall
puts every original back.

Each call of a wrapped function records a span: name, start, end, parent span
and op id. Spans stay in memory until the run writes them out. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from workloads import PAPER_SECTIONS

# metric prefix -> (module, attribute path); methods are "Class.method"
TARGETS = {
    "expr.parse_expr": ("groupkit.expr", "parse_expr"),
    "expr.eval_expr": ("groupkit.expr", "eval_expr"),
    "construct.semidirect": ("groupkit.construct", "semidirect"),
    "construct.Action": ("groupkit.construct", "Action.__post_init__"),
    "construct.actions": ("groupkit.construct", "actions"),
    "construct.hom_set": ("groupkit.construct", "hom_set"),
    "construct.recognize_split": ("groupkit.construct", "recognize_split"),
    "construct.holomorph": ("groupkit.construct", "holomorph"),
    "core.make_table": ("groupkit.core", "make_table"),
    "core.verify_group_axioms": ("groupkit.core", "verify_group_axioms"),
    "core.order_spectrum": ("groupkit.core", "order_spectrum"),
    "core.Morphism.is_homomorphism": ("groupkit.core", "Morphism.is_homomorphism"),
    "core.subgroup_generated": ("groupkit.core", "subgroup_generated"),
    "_search.search_morphisms": ("groupkit._search", "search_morphisms"),
    "_search.generating_sequence": ("groupkit._search", "generating_sequence"),
    "aut.automorphisms": ("groupkit.aut", "automorphisms"),
    "aut.aut_group": ("groupkit.aut", "aut_group"),
    "aut.is_characteristic": ("groupkit.aut", "is_characteristic"),
    "aut.zeta_lift": ("groupkit.aut", "zeta_lift"),
    "aut.lambda_lift": ("groupkit.aut", "lambda_lift"),
    "iso.are_isomorphic": ("groupkit.iso", "are_isomorphic"),
    "iso.identify": ("groupkit.iso", "identify"),
    "iso.abelian_invariants": ("groupkit.iso", "abelian_invariants"),
    **{f"verify.{name}": ("groupkit.verify", name) for name in PAPER_SECTIONS},
    "cli.info": ("groupkit.cli", "_cmd_info"),
    "cli.aut": ("groupkit.cli", "_cmd_aut"),
    "cli.iso": ("groupkit.cli", "_cmd_iso"),
    "cli.identify": ("groupkit.cli", "_cmd_identify"),
}

# Only the inclusive time (and the call count for cli) is kept for these.
_S_ONLY = tuple(k for k in TARGETS if k.startswith("verify."))
_CALLS_AND_S = tuple(k for k in TARGETS if k.startswith("cli."))


def _count_len(result) -> int:
    return len(result)


def _count_found(result) -> int:
    return result is not None


# metric prefix -> (counter suffix, function of the result)
RESULT_COUNTERS = {
    "construct.hom_set": ("maps", _count_len),
    "_search.search_morphisms": ("maps", _count_len),
    "aut.automorphisms": ("maps", _count_len),
    "iso.are_isomorphic": ("found", _count_found),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for name in TARGETS:
        if name not in _S_ONLY:
            out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        if name not in _S_ONLY + _CALLS_AND_S:
            out[f"{name}.self_s"] = ("s", "lower")
        if name in RESULT_COUNTERS:
            suffix = RESULT_COUNTERS[name][0]
            out[f"{name}.{suffix}"] = ("count", "higher" if suffix == "found" else "lower")
    out["_search.generating_sequence.distinct_tables"] = ("count", "lower")
    out["iso.are_isomorphic.hit_ratio"] = ("ratio", "higher")
    out["iso.identify.candidates"] = ("count", "lower")
    out["iso.identify.candidates_per_call"] = ("count", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    out["src.lines"] = ("lines", "lower")
    return out


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps TARGETS, records spans in memory, and restores the originals."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, op, self_s)
        self.op = -1
        self.counters: dict[str, int] = {}
        self.tables: set = set()
        self.missing: list[str] = []
        self._stack: list[list] = []     # [span index, child time] per open span
        self._patches: list[tuple] = []  # (owner, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)
        counter_key = f"{name}.{counter[0]}" if counter else None
        tables = self.tables if name == "_search.generating_sequence" else None

        def traced(*args, **kwargs):
            if tables is not None:
                g = args[0] if args else kwargs["g"]
                tables.add((g.order, hash(g.mul)))
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans[frame[0]] = (name, start, end, parent[0] if parent else -1,
                                   self.op, end - start - frame[1])
            if counter is not None:
                counters[counter_key] = counters.get(counter_key, 0) + counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "groupkit" or k.startswith("groupkit.")]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if "." in path:
                owners = [(owner, attr)]
            else:
                owners = [(m, k) for m in modules for k, v in list(vars(m).items())
                          if v is original]
            for o, a in owners:
                self._patches.append((o, a, original))
                setattr(o, a, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Totals of every span-derived per-layer metric over the traced pass."""
        spans = self.spans
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        candidates = 0
        for span in spans:
            name, start, end, parent, _, own = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            outermost, under_identify = True, False
            p = parent
            while p >= 0:
                ancestor = spans[p][0]
                outermost = outermost and ancestor != name
                under_identify = under_identify or ancestor == "iso.identify"
                p = spans[p][3]
            if outermost:
                incl[name] = incl.get(name, 0.0) + end - start
            if under_identify and name == "construct.semidirect":
                candidates += 1
        out: dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out.update(self.counters)
        out["_search.generating_sequence.distinct_tables"] = len(self.tables)
        found, tried = self.counters.get("iso.are_isomorphic.found", 0), calls.get("iso.are_isomorphic", 0)
        out["iso.are_isomorphic.hit_ratio"] = found / tried if tried else 0.0
        out["iso.identify.candidates"] = candidates
        n_identify = calls.get("iso.identify", 0)
        out["iso.identify.candidates_per_call"] = candidates / n_identify if n_identify else 0.0
        return {name: out.get(name, 0.0) for name in metric_units()
                if not name.startswith(("trace.", "src."))}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
