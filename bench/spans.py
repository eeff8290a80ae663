"""Span tracing for the benchmark, installed from outside the library.

Every public function of the traced layers is replaced, in every perspectra
module that holds a reference to it, by a wrapper that records one span:
(name, start, end, parent index, note).  The package imports by name
(`from .iso import canonical_form` in census.py, for example), so patching
only the defining module would miss most calls.  Spans stay in memory and are
written out when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("families", "incidence", "analysis", "iso", "census", "realize")

# Point-label constructors run once per point of every configuration built
# (about 140k calls in one census) and do no layer work; a span around each
# would mostly measure the tracer.
UNTRACED = frozenset({"incidence.center", "incidence.a_point",
                      "incidence.b_point", "incidence.c_point",
                      "incidence.free_point", "incidence.parse_label"})

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._canon_keys = set()

    def _note(self, name, args, result):
        """Counts recorded where the work happens: repeat keys of canonical
        forms, search nodes and field order of embedding searches."""
        if name == "iso.canonical_form":
            config = args[0]
            key = (len(config.points), config.lines)
            repeat = key in self._canon_keys
            self._canon_keys.add(key)
            return {"repeat": repeat}
        if name == "realize.embed_search":
            return {"q": args[1], "nodes": result.nodes}
        return None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = self._note(name, args, result) if result is not None else None
                spans[index] = (name, start, end, parent, note)

        return traced

    def install(self):
        """Patch every loaded perspectra module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "perspectra" or n.startswith("perspectra."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"perspectra.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def dump(self, path):
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, out, separators=(",", ":"))
            out.write("\n")


def _is_prime(q):
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def layer_metrics(spans):
    """Per-layer figures of one pass.  `<name>.s` is inclusive time of the
    outermost spans of that name; census.self_s is census-module span time
    not covered by child spans."""
    child_s = [0.0] * len(spans)
    inside_same_name = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_s[parent] += span[END] - span[START]
            p = parent
            while p >= 0 and not inside_same_name[i]:
                inside_same_name[i] = spans[p][NAME] == span[NAME]
                p = spans[p][PARENT]

    calls, incl, longest = {}, {}, {}
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), dur)
        if not inside_same_name[i]:
            incl[name] = incl.get(name, 0.0) + dur

    def s(name):
        return incl.get(name, 0.0)

    canon = [sp for sp in spans if sp[NAME] == "iso.canonical_form"]
    repeats = sum(1 for sp in canon if sp[NOTE] and sp[NOTE]["repeat"])
    census_self = sum(sp[END] - sp[START] - child_s[i]
                      for i, sp in enumerate(spans) if sp[NAME].startswith("census."))
    nodes = {"prime": 0, "ext": 0}
    search_s = {"prime": 0.0, "ext": 0.0}
    for sp in spans:
        if sp[NAME] == "realize.embed_search" and sp[NOTE]:
            kind = "prime" if _is_prime(sp[NOTE]["q"]) else "ext"
            nodes[kind] += sp[NOTE]["nodes"]
            search_s[kind] += sp[END] - sp[START]

    def rate(kind):
        return nodes[kind] / search_s[kind] if search_s[kind] else 0.0

    return {
        "iso.canonical_form.calls": calls.get("iso.canonical_form", 0),
        "iso.canonical_form.s": s("iso.canonical_form"),
        "iso.canonical_form.max_s": longest.get("iso.canonical_form", 0.0),
        "iso.canonical_form.repeat_ratio": repeats / len(canon) if canon else 0.0,
        "families.skew_perspective.calls": calls.get("families.skew_perspective", 0),
        "families.skew_perspective.s": s("families.skew_perspective"),
        "families.enumerate_veblen.s": s("families.enumerate_veblen"),
        "incidence.verify.calls": calls.get("incidence.verify", 0),
        "incidence.verify.s": s("incidence.verify"),
        "analysis.free_count.s": s("analysis.free_count"),
        "analysis.third_graph_criterion.s": s("analysis.third_graph_criterion"),
        "census.self_s": census_self,
        "incidence.from_json.s": s("incidence.from_json"),
        "census.identify.s": s("census.identify"),
        "realize.embed_search.calls": calls.get("realize.embed_search", 0),
        "realize.embed_search.s": s("realize.embed_search"),
        "realize.embed_search.nodes": nodes["prime"] + nodes["ext"],
        "realize.embed_search.nodes_per_s.prime": rate("prime"),
        "realize.embed_search.nodes_per_s.ext": rate("ext"),
    }
