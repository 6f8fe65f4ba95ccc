"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces a public spellcap function with a timing wrapper
at the module attribute its caller looks it up under, and ``uninstall`` puts
the original back. Untraced runs never install anything, so they run the
program exactly as a user does.

Each span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the span that was open when this one started (-1 at top level) and ``info``
holds what an optional hook read from the call's arguments or result.
"""

import importlib
import time

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, module_name: str, attr: str, span_name: str, hook=None):
        """Wrap ``module_name.attr``; ``hook(args, kwargs, result)`` returns info."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span_name, clock(), 0.0, open_[-1] if open_ else -1, None])
            open_.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][END] = clock()
            if hook is not None:
                spans[index][INFO] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(duration(s) for s in self.named(name))

    def mean(self, name: str) -> float:
        spans = self.named(name)
        return self.total(name) / len(spans) if spans else 0.0

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [duration(s) for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= duration(s)
        return out

    def ancestor(self, span: list, names) -> list | None:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return self.spans[parent]
            parent = self.spans[parent][PARENT]
        return None


def duration(span: list) -> float:
    return span[END] - span[START]
