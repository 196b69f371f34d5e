"""Spans around lcdmds' public functions, installed from outside the package.

Tracer.install patches each traced function in every module namespace the
package itself calls it through (for example rref in lcdmds.linear, where
LinearCode looks it up), so the program is measured without changing it.
Field arithmetic is not wrapped: a layer's self time includes the field ops
it calls. Untraced runs install no wrappers.

Each span is (id, name, start, end, parent, op): parent is the enclosing
span's id (0 at the top) and op numbers the benchmark operation that caused
it. Spans stay in memory, at most SPAN_CAP of them, and are written as JSONL
when the run ends; per-name calls, total and self time are kept for every
span, including those beyond the cap.
"""

from __future__ import annotations

import json
from math import comb
from time import perf_counter

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []
        self._t0 = perf_counter()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace owner.attr with a spanned wrapper; on_exit(args, result, secs)."""
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                secs = t1 - t0
                stats[0] += 1
                stats[1] += secs
                stats[2] += secs - frame[1]
                if stack:
                    stack[-1][1] += secs
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent, tracer.op))
                else:
                    tracer.dropped += 1
            if on_exit is not None:
                on_exit(args, result, secs)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap the public functions of every layer of lcdmds."""
        from lcdmds import cli, construct, fields, grs, linear, poly

        def on_interpolate(args, result, secs):
            self.count("poly.interpolate_points", len(args[1]))

        def on_mds(args, result, secs):
            code, (is_mds, route, _) = args[0], result
            if route == linear.ROUTE_ENUMERATION:
                self.count("linear.routes_enumeration")
                self.count("linear.enum_codewords", code.field.q**code.k - 1)
                self.count("linear.enum_s", secs)
            elif route == linear.ROUTE_COLUMN_SUBSETS:
                self.count("linear.routes_column_subsets")
                if is_mds:
                    self.count("linear.subsets", comb(code.n, code.k))
                    self.count("linear.subsets_s", secs)
            else:
                self.count("linear.routes_other")

        self.wrap(fields.Field, "__init__", "fields.build")
        for mod in (poly, grs):
            self.wrap(mod, "interpolate", "poly.interpolate", on_interpolate)
        self.wrap(poly.Poly, "eval", "poly.eval")
        self.wrap(linear.LinearCode, "__init__", "linear.code_init")
        self.wrap(linear, "rref", "linear.rref")
        self.wrap(linear.LinearCode, "hull_dimension", "linear.hull")
        self.wrap(linear.LinearCode, "mds_check", "linear.mds", on_mds)
        self.wrap(grs.GrsSpec, "generator", "grs.generator")
        self.wrap(grs.GrsSpec, "in_dual", "grs.in_dual")
        for mod in (grs, construct):
            self.wrap(mod, "dual_multipliers", "grs.dual_multipliers")
        for mod in (construct, cli):
            self.wrap(mod, "construct_auto", "construct.build")
            self.wrap(mod, "verify_report", "construct.verify")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": t0 - self._t0,
                            "end": t1 - self._t0,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
