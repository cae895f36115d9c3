"""Spans around the public entry points of each finsem layer.

``Tracer.install`` replaces each entry point by a wrapper that records a span
(name, start, end, parent) and counts calls.  A name is replaced in every
``finsem`` module that binds it, so calls through ``from .order import
enumerate_structure_maps`` in ``triangle`` are seen as well as direct ones.
Methods are replaced on the class that defines them, and the transposes on
each ``Correspondence`` in the registry.  ``uninstall`` puts every original
back; an untraced run never installs anything.

Self time is a span's duration minus the time covered by the spans opened
inside it.  Spans are aggregated as they close; the first ``SPAN_CAP`` of them
are also kept whole and written out at the end.  A generator is traced one
resumption at a time, so only the time spent producing items is counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter

SPAN_CAP = 20_000

# span name -> (module, attribute path) of every entry point it covers
MODULE_SPANS = {
    "order.upsets": [("finsem.order", "FinPoset.iter_upsets"),
                     ("finsem.order", "FinPoset.iter_downsets"),
                     ("finsem.order", "upsets"), ("finsem.order", "downsets")],
    "order.structure_maps": [("finsem.order", "enumerate_structure_maps")],
    "order.all_posets": [("finsem.order", "all_posets")],
    "effects.distribution": [("finsem.effects", "Distribution.__post_init__")],
    "effects.dist_bind": [("finsem.effects", "dist_bind")],
    "effects.iter_distributions": [("finsem.effects", "iter_distributions")],
    "monads.finite_measure": [("finsem.monads", "FiniteMeasure.__post_init__")],
    "triangle.arrows": [("finsem.triangle", "KleisliArrow.__post_init__")],
    "triangle.arrow_enum": [("finsem.triangle", "iter_kleisli_arrows"),
                            ("finsem.triangle", "random_kleisli_arrow")],
    "triangle.law_suite": [("finsem.triangle", "check_monad_laws")],
    "triangle.certify": [("finsem.triangle", "certify_full_faithful")],
    "gcl.parse": [("finsem.gcl", "parse")],
    "gcl.denote": [("finsem.gcl", "denote")],
    "gcl.wp": [("finsem.gcl", "wp")],
    "gcl.roundtrip": [("finsem.gcl", "check_roundtrip")],
    "gcl.eval_expr": [("finsem.gcl", "eval_expr")],
    "cli.main": [("finsem.cli", "cli_main")],
}
# span name -> method of every MonadFamily subclass that defines it
FAMILY_SPANS = {"monads.extend": ("extend",),
                "monads.elements": ("elements", "probe_elements"),
                "monads.contains": ("contains",)}
# span name -> field of every registered Correspondence
CORRESPONDENCE_SPANS = {"transformers.forward": ("forward",),
                        "transformers.backward": ("backward",),
                        "transformers.enumerate": ("iter_computations",
                                                   "iter_transformers")}


class Tracer:
    def __init__(self):
        self.stack = []       # open spans: [name, start, child time, id, parent id]
        self.agg = {}         # name -> [spans, inclusive s, self s]
        self.spans = []       # (id, parent id, name, start, end), the first SPAN_CAP
        self.calls = Counter()
        self.counters = Counter()
        self._ids = 0
        self._sampling = 0    # depth of random_kleisli_arrow calls in progress
        self._patches = []    # (owner, attribute, original, frozen)

    # -- spans ---------------------------------------------------------------------

    def enter(self, name):
        self._ids += 1
        parent = self.stack[-1][3] if self.stack else None
        self.stack.append([name, perf_counter(), 0.0, self._ids, parent])

    def exit(self):
        end = perf_counter()
        name, start, child, sid, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end))

    def inside(self, name):
        return bool(self.stack) and self.stack[-1][0] == name

    def _traced_iter(self, name, it):
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def wrap(self, name, fn, after=None):
        """A stand-in for fn that records a span and calls ``after(args, result)``."""
        tracer = self
        calls = self.calls
        is_gen = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if is_gen:
                return tracer._traced_iter(name, fn(*args, **kwargs))
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            if isinstance(result, types.GeneratorType):
                return tracer._traced_iter(name, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------------

    def _patch(self, owner, attr, value, frozen=False):
        self._patches.append((owner, attr, getattr(owner, attr) if frozen
                              else owner.__dict__[attr], frozen))
        if frozen:
            object.__setattr__(owner, attr, value)
        else:
            setattr(owner, attr, value)

    def install(self):
        from finsem import monads, transformers

        after = {
            "order.structure_maps": self._after_structure_maps,
            "triangle.law_suite": self._after_law_suite,
            "gcl.denote": self._after_denote,
        }
        for targets in MODULE_SPANS.values():
            for modname, _ in targets:
                importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "finsem" or n.startswith("finsem.")]
        for name, targets in MODULE_SPANS.items():
            for modname, path in targets:
                owner = sys.modules[modname]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, after.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        for name, methods in FAMILY_SPANS.items():
            for cls in vars(monads).values():
                if isinstance(cls, type) and issubclass(cls, monads.MonadFamily):
                    for attr in methods:
                        if attr in cls.__dict__:
                            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        for name, fields in CORRESPONDENCE_SPANS.items():
            for corr in transformers.REGISTRY.values():
                for attr in fields:
                    self._patch(corr, attr, self.wrap(name, getattr(corr, attr)), True)
        self._hook_counters()

    def _hook_counters(self):
        from finsem import gcl, triangle

        tokenize = gcl.tokenize

        def counted_tokenize(source):
            tokens = tokenize(source)
            if self.inside("gcl.parse"):
                self.counters["gcl.tokens"] += len(tokens)
            return tokens

        self._patch(gcl, "tokenize", counted_tokenize)
        # arrows attempted inside random_kleisli_arrow, accepted or not
        post_init = triangle.KleisliArrow.__dict__["__post_init__"]

        def counted_post_init(arrow):
            if self._sampling:
                self.counters["triangle.sample_attempts"] += 1
            post_init(arrow)

        self._patch(triangle.KleisliArrow, "__post_init__", counted_post_init)
        sample = triangle.random_kleisli_arrow

        def counted_sample(*args, **kwargs):
            self._sampling += 1
            try:
                arrow = sample(*args, **kwargs)
            finally:
                self._sampling -= 1
            self.counters["triangle.sample_accepted"] += 1
            return arrow

        self._patch(triangle, "random_kleisli_arrow", counted_sample)

    def uninstall(self):
        while self._patches:
            owner, attr, original, frozen = self._patches.pop()
            if frozen:
                object.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)

    # -- counters fed from results -------------------------------------------------------

    def _after_structure_maps(self, args, maps):
        dom, cod = args[0], args[1]
        dom, cod = getattr(dom, "poset", dom), getattr(cod, "poset", cod)
        self.counters["order.structure_maps.returned"] += len(maps)
        self.counters["order.structure_maps.candidates"] += max(len(cod), 1) ** len(dom)

    def _after_law_suite(self, args, report):
        self.counters["triangle.instances"] += report.checked_total()
        self.counters["triangle.sampled_cases"] += sum(
            not c.mode.startswith("exhaustive") for c in report.cases)

    def _after_denote(self, args, arrow):
        self.counters["gcl.states"] += len(arrow.graph)

    # -- results -----------------------------------------------------------------------

    def self_s(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def inclusive_s(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def layer_metrics(self):
        """Per-layer values: ``name -> (value, unit)``."""
        c, n, s = self.counters, self.calls, self.self_s
        returned = c["order.structure_maps.returned"]
        candidates = c["order.structure_maps.candidates"]
        attempts = c["triangle.sample_attempts"]
        parse_s = self.inclusive_s("gcl.parse")
        out = {
            "order.upsets.calls": (n["order.upsets"], "count"),
            "order.upsets.self_s": (s("order.upsets"), "s"),
            "order.structure_maps.calls": (n["order.structure_maps"], "count"),
            "order.structure_maps.self_s": (s("order.structure_maps"), "s"),
            "order.structure_maps.yield": (returned / candidates if candidates else 0.0,
                                           "ratio"),
            "order.all_posets.self_s": (s("order.all_posets"), "s"),
            "effects.distribution.count": (n["effects.distribution"], "count"),
            "effects.distribution.self_s": (s("effects.distribution"), "s"),
            "effects.dist_bind.calls": (n["effects.dist_bind"], "count"),
            "effects.dist_bind.self_s": (s("effects.dist_bind"), "s"),
            "effects.iter_distributions.self_s": (s("effects.iter_distributions"), "s"),
            "monads.extend.calls": (n["monads.extend"], "count"),
            "monads.extend.self_s": (s("monads.extend"), "s"),
            "monads.elements.calls": (n["monads.elements"], "count"),
            "monads.elements.self_s": (s("monads.elements"), "s"),
            "monads.contains.calls": (n["monads.contains"], "count"),
            "monads.contains.self_s": (s("monads.contains"), "s"),
            "monads.finite_measure.count": (n["monads.finite_measure"], "count"),
            "triangle.arrows.count": (n["triangle.arrows"], "count"),
            "triangle.arrows.self_s": (s("triangle.arrows"), "s"),
            "triangle.arrow_enum.self_s": (s("triangle.arrow_enum"), "s"),
            "triangle.law_suite.self_s": (s("triangle.law_suite"), "s"),
            "triangle.certify.self_s": (s("triangle.certify"), "s"),
            "triangle.instances": (c["triangle.instances"], "count"),
            "triangle.sampled_cases": (c["triangle.sampled_cases"], "count"),
            "triangle.sample_accept_ratio": (
                c["triangle.sample_accepted"] / attempts if attempts else 1.0, "ratio"),
            "transformers.forward.calls": (n["transformers.forward"], "count"),
            "transformers.forward.self_s": (s("transformers.forward"), "s"),
            "transformers.backward.calls": (n["transformers.backward"], "count"),
            "transformers.backward.self_s": (s("transformers.backward"), "s"),
            "transformers.enumerate.self_s": (s("transformers.enumerate"), "s"),
            "gcl.parse.self_s": (s("gcl.parse"), "s"),
            "gcl.parse.tokens_per_s": (c["gcl.tokens"] / parse_s if parse_s else 0.0, "1/s"),
            "gcl.denote.self_s": (s("gcl.denote"), "s"),
            "gcl.wp.self_s": (s("gcl.wp"), "s"),
            "gcl.roundtrip.self_s": (s("gcl.roundtrip"), "s"),
            "gcl.eval_expr.calls": (n["gcl.eval_expr"], "count"),
            "gcl.eval_expr.self_s": (s("gcl.eval_expr"), "s"),
            "gcl.states": (c["gcl.states"], "count"),
        }
        return out

    def write(self, path, extra):
        """The kept spans, the per-name aggregates and the counters, as JSON."""
        payload = dict(extra)
        payload["spans_kept"] = len(self.spans)
        payload["spans_total"] = self._ids
        payload["aggregates"] = {k: {"spans": v[0], "inclusive_s": v[1], "self_s": v[2]}
                                 for k, v in sorted(self.agg.items())}
        payload["calls"] = dict(sorted(self.calls.items()))
        payload["counters"] = dict(sorted(self.counters.items()))
        payload["spans"] = [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                            for i, p, n, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
