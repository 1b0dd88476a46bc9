"""Per-layer tracing by wrapping shiftlab's public functions from outside.

Every wrapped call pushes a frame.  Calls to ordinary functions are kept
as spans (id, parent id, name, start, end, hot_s) in memory; self time
is computed from the spans afterwards.  Functions listed in HOT are
called so often that a span object per call would dominate their own
cost: they keep no span, only a call count and an accumulated self time
taken from the same frame stack, and the time they spend directly under
a span is stored on that span as `hot_s`.  Any call made inside a hot
call is counted as hot too, so a span never nests inside a hot frame.
"""

import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict

MODULES = ("words", "subshifts", "complexity", "chains", "autos",
           "spacetime", "systems", "suites", "cli")

# Where a module's public names include its own internals (the CLI's
# command handlers, the individual suites), only its entry point is a
# layer boundary, so the entry point's self time keeps that work.
ENTRY_ONLY = {"cli": {"main"}, "suites": {"run_suite"}}

# (layer name, owner module, class or None, attribute)
METHODS = (
    ("subshifts.words", "subshifts", "SubshiftSpec", "words"),
    ("subshifts.count_words", "subshifts", "SubshiftSpec", "count_words"),
    ("subshifts.contains", "subshifts", "SubshiftSpec", "contains"),
    ("subshifts.contains_config", "subshifts", "SftSpec", "contains_config"),
    ("subshifts.contains_config", "subshifts", "SparseSpec", "contains_config"),
    ("subshifts.contains_config", "subshifts", "ProductSpec", "contains_config"),
    ("words.sort_words", "words", "Alphabet", "sort_words"),
    ("autos.block_code", "autos", "BlockCode", "__init__"),
)

HOT = frozenset({
    "subshifts.words", "subshifts.count_words", "subshifts.contains",
    "subshifts.contains_config", "words.sort_words", "words.subwords",
    "words.occurrences", "autos.block_code", "autos.apply_to_word",
    "autos.apply_to_config", "complexity.complexity",
    "complexity.extension_radius", "chains.unique_extension",
})


class Frame:
    __slots__ = ("name", "start", "hot", "span_id", "parent_span", "child_s",
                 "hot_s", "nested_span_s")

    def __init__(self, name, start, hot, span_id, parent_span):
        self.name = name
        self.start = start
        self.hot = hot
        self.span_id = span_id
        self.parent_span = parent_span
        self.child_s = 0.0        # all directly nested wrapped calls
        self.hot_s = 0.0          # spans only: direct hot calls, minus spans inside them
        self.nested_span_s = 0.0  # hot only: spans reached through hot calls


def self_times(spans):
    """name -> summed self time, from (id, parent, name, start, end, hot_s) spans.

    A span's self time is its duration minus its child spans' durations
    minus the hot calls made directly under it.  Calls are sequential, so
    child intervals never overlap.
    """
    child = defaultdict(float)
    for _sid, parent, _name, start, end, _hot in spans:
        if parent is not None:
            child[parent] += end - start
    totals = defaultdict(float)
    for sid, _parent, name, start, end, hot in spans:
        totals[name] += (end - start) - child[sid] - hot
    return dict(totals)


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.hot_self = defaultdict(float)
        self.extra = defaultdict(int)     # named counters, e.g. words.returned
        self._words_seen = {}
        self._patched = []               # (namespace, attribute, original)
        self._next_id = 0

    # -- the wrapper ---------------------------------------------------------

    def _enter(self, name):
        top = self.stack[-1] if self.stack else None
        hot = name in HOT or (top is not None and top.hot)
        if hot:
            frame = Frame(name, 0.0, True, None, None)
        else:
            self._next_id += 1
            parent = None
            for f in reversed(self.stack):
                if not f.hot:
                    parent = f.span_id
                    break
            frame = Frame(name, 0.0, False, self._next_id, parent)
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        self.calls[frame.name] += 1
        parent = self.stack[-1] if self.stack else None
        if frame.hot:
            self.hot_self[frame.name] += dur - frame.child_s
            if parent is not None:
                if parent.hot:
                    parent.nested_span_s += frame.nested_span_s
                else:
                    parent.hot_s += dur - frame.nested_span_s
        else:
            self.spans.append((frame.span_id, frame.parent_span, frame.name,
                               frame.start, end, frame.hot_s))
        if parent is not None:
            parent.child_s += dur

    def wrap(self, name, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            tracer._exit(frame)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- observers for the derived counters ----------------------------------

    def _observe_words(self, args, kwargs, result, exc):
        if exc is not None:
            return
        spec, n = args[0], (args[1] if len(args) > 1 else kwargs["n"])
        key = id(spec)
        seen = self._words_seen.get(key)
        if seen is None:
            seen = self._words_seen[key] = set()
            weakref.finalize(spec, self._words_seen.pop, key, None)
        if n in seen:
            self.extra["subshifts.words.repeats"] += 1
        seen.add(n)
        self.extra["subshifts.words.returned"] += len(result)

    def _observe_sort(self, args, kwargs, result, exc):
        if exc is None:
            self.extra["words.sort_words.items"] += len(result)

    def _observe_chain(self, args, kwargs, result, exc):
        if exc is not None:
            self.extra["chains.build_chain.errors"] += 1

    def _observe_certify(self, args, kwargs, result, exc):
        if exc is None and result.status == "certified":
            self.extra["autos.certify_automorphism.certified"] += 1

    def _observe_enumerate(self, args, kwargs, result, exc):
        if exc is None:
            spec, radius = args[0], (args[1] if len(args) > 1 else kwargs["radius"])
            domain = self._original_words(spec, 2 * radius + 1)
            self.extra["autos.enumerate_automorphisms.tables_tried"] += (
                len(spec.alphabet) ** len(domain))

    # -- installing and removing ---------------------------------------------

    def install(self):
        """Patch every public function of the layers, in every namespace."""
        mods = {m: importlib.import_module(f"shiftlab.{m}") for m in MODULES}
        namespaces = [importlib.import_module("shiftlab")] + list(mods.values())
        observers = {
            "chains.build_chain": self._observe_chain,
            "autos.certify_automorphism": self._observe_certify,
            "autos.enumerate_automorphisms": self._observe_enumerate,
        }
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr not in ENTRY_ONLY.get(mname, {attr})):
                    continue
                name = f"{mname}.{attr}"
                traced = self.wrap(name, fn, observers.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, traced)
        self._original_words = vars(mods["subshifts"].SubshiftSpec)["words"]
        method_observers = {
            "subshifts.words": self._observe_words,
            "words.sort_words": self._observe_sort,
        }
        for name, mname, cls, attr in METHODS:
            owner = getattr(mods[mname], cls)
            fn = vars(owner)[attr]
            self._patch(owner, attr, self.wrap(name, fn, method_observers.get(name)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_s(self, name):
        return self.hot_self.get(name, 0.0) + self._span_self.get(name, 0.0)

    def finish(self):
        self._span_self = self_times(self.spans)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
