"""Spans around detmin's public functions, recorded from outside the package.

``Tracer.install()`` replaces every public function and public method of the
traced detmin modules with a wrapper that records a span, wherever a detmin
module holds a reference to it (module globals and module-level dicts such
as the sweep's runner table).  ``uninstall()`` puts the originals back.
Spans are folded into per-name totals as they close: calls, inclusive time,
self time (the span minus the part of it its child spans cover) and sampler
draws.  A few numpy entry points get count-only wrappers, so numpy time
stays inside the self time of the detmin function that called it.

``CountingGenerator`` is a proxy around a numpy ``Generator`` that counts
method calls and delegates every call to the wrapped stream, so the values
drawn are exactly those of the bare generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

TRACED_MODULES = ("parametric", "linalg", "helicoidal", "pseudo", "levelset",
                  "kahler", "dual", "variation", "report", "sweep", "cli")

COUNTED_NUMPY = (("numpy.linalg", "svd"), ("numpy.linalg", "inv"),
                 ("numpy", "kron"))

# Every detmin sampler starts each candidate with one ``normal`` call.
DRAW_METHOD = "normal"


def self_time(start, end, children):
    """Length of [start, end] that no child interval covers.

    Children are clipped to the parent interval and overlaps between them
    are counted once.
    """
    covered = 0.0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            cursor = c1
    return (end - start) - covered


class CountingGenerator:
    """Generator proxy: counts calls per method, delegates to the same stream.

    ``on_draw`` is called once per ``normal`` call, before the draw.
    """

    def __init__(self, generator, on_draw=None):
        self._generator = generator
        self._on_draw = on_draw
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            if name == DRAW_METHOD and self._on_draw is not None:
                self._on_draw()
            return attr(*args, **kwargs)

        return counted


class Tracer:
    """Per-name span totals: ``stats[name] = [calls, total_s, self_s, draws]``.

    ``counts`` holds the count-only numpy wrappers.  Single-threaded: spans
    nest on one stack.
    """

    def __init__(self):
        self.stats = {}
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        return stat

    def wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = (name, [])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1].append((start, end))
                stat = self._stat(name)
                stat[0] += 1
                stat[1] += end - start
                stat[2] += self_time(start, end, frame[1])

        return traced

    def on_draw(self):
        """Charge one sampler draw to every span open on the stack."""
        for name in {frame[0] for frame in self._stack}:
            self._stat(name)[3] += 1

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        # the raw namespace entry, so a classmethod is restored as one
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(f"detmin.{m}")
                   for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for ns in [m for n, m in sys.modules.items()
                   if n == "detmin" or n.startswith("detmin.")]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]
        for module_name, attr in COUNTED_NUMPY:
            owner = importlib.import_module(module_name)
            self._set(owner, attr,
                      self._count(f"{module_name}.{attr}",
                                  getattr(owner, attr)))

    def count_draws(self, owner, attr):
        """Make the generators that ``owner.attr`` returns report draws."""
        factory = getattr(owner, attr)
        self._set(owner, attr, lambda *args: CountingGenerator(
            factory(*args), self.on_draw))

    def _wrap_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(name, member))
            elif isinstance(member, classmethod):
                self._set(cls, attr,
                          classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr,
                          staticmethod(self.wrap(name, member.__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
