"""Outside-in span tracer for the ``coreval`` package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, every
binding of a public ``coreval`` function in every ``coreval`` module that
binds it, so a call is caught whichever module makes it: ``cluster_modes``
is bound in ``modes``, ``metric`` and ``report``, ``tokenize`` in ``corpus``
and ``behavior``.  Public methods of ``coreval`` classes are wrapped on the
class.  Two library boundaries are wrapped as well: ``coreval.modes.cdist``
(also counting the distance entries it computes) and ``requests.post``.
Generator functions are left alone, because a span around one would close
before its body runs.  Dispatch tables that hold function objects directly
(``cli._HANDLERS``) are not rewritten; their entries run inside ``cli.main``.

A span records name, start, end, the span that caused it and whether it
raised.  A span opened on a thread with no open span of its own gets, as
parent, the innermost open span of the thread that installed the tracer:
coreval's thread pools are created by those calls.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False


def layer_of(module_name: str) -> str:
    """Layer name of a coreval module: the last dotted part, leading "_" dropped."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``.

    Self time is the span's duration minus the part of its interval that its
    child spans cover; children on other threads may overlap one another, so
    the covered part is the length of the union of their clipped intervals.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(id(span), ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[id(span)] = (span.end - span.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, failed calls, self seconds and every duration."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "failed": 0, "self_s": 0.0,
                                         "durations": []})
        row["calls"] += 1
        row["failed"] += span.failed
        row["self_s"] += selfs[id(span)]
        row["durations"].append(span.end - span.start)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.names: list[str] = []  # every span name the last install could record
        self._local = threading.local()
        self._owner_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(args, kwargs)``, when given, returns (counter, amount) to add
        to ``self.counters`` on each call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(args, kwargs)
                tracer.counters[key] += amount
            stack = tracer._stack()
            span = Span(name, tracer.clock(), tracer._parent(stack))
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    def _plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding to replace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "coreval" or name.startswith("coreval."))]
        wrappers: dict[int, object] = {}
        names: dict[str, object] = {}

        def wrapper_for(fn, name):
            if id(fn) not in wrappers:
                if names.setdefault(name, fn) is not fn:
                    raise RuntimeError(f"two traced callables share the span name {name!r}")
                wrappers[id(fn)] = self.wrap(name, fn)
            return wrappers[id(fn)]

        def traceable(obj, attr):
            return (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("coreval")
                    and not inspect.isgeneratorfunction(obj))

        plan = []
        for module in modules:
            layer = layer_of(module.__name__)
            for attr, obj in vars(module).items():
                if traceable(obj, attr):
                    name = f"{layer_of(obj.__module__)}.{attr}"
                    plan.append((module, attr, wrapper_for(obj, name)))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if traceable(fn, meth):
                            plan.append((obj, meth, wrapper_for(fn, f"{layer}.{meth}")))
        modes = sys.modules["coreval.modes"]
        self.counters.setdefault("modes.cdist.pairs", 0)
        plan.append((modes, "cdist", self.wrap(
            "modes.cdist", modes.cdist,
            count=lambda a, k: ("modes.cdist.pairs", len(a[0]) * len(a[1])))))
        requests = sys.modules["requests"]
        plan.append((requests, "post", self.wrap("requests.post", requests.post)))
        self.names = sorted([*names, "modes.cdist", "requests.post"])
        return plan

    @contextlib.contextmanager
    def installed(self):
        """Trace coreval inside the block; every original binding is restored after."""
        if getattr(sys.modules["coreval.modes"].cdist, "__wrapped_by_tracer__", False):
            raise RuntimeError("a tracer is already installed")
        plan = self._plan()
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in plan]
        self._owner_stack = self._stack()
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
