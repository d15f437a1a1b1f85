"""In-memory spans and counters around calls into the purefb modules.

A span records, per boundary name, the number of calls, the inclusive time
of the outermost calls and the self time (inclusive time minus the part
covered by child spans of any name).  Re-entrant calls of one boundary,
such as ``ControllerStack.evaluate`` running inside its own differentiation
pass, count as calls but add their time to the outermost span only once.

Wrappers are installed from the benchmark's files on the name where the
program looks it up at call time (``simkit.rk4_step`` for ``integrate``,
``scenarios.integrate`` for ``Scenario.run``, ``backstep.seed`` for the
controller), and removed again by ``uninstall``.  Nothing under ``src/`` is
edited.
"""

import time

__all__ = ["Tracer"]


class _NothingLeftOut:
    spent = 0.0


class Tracer:
    """Counts, inclusive and self time per named boundary, kept in memory.

    ``left_out.spent`` is a running total of seconds that belong to no
    span (the benchmark's own speed samples); whatever it grows by while a
    span is open is taken out of that span's time.
    """

    def __init__(self, left_out=None):
        self.left_out = left_out or _NothingLeftOut()
        # name -> [calls, outermost calls, inclusive seconds, self seconds]
        self.spans = {}
        self.counts = {}
        self._open = []  # child-time accumulators of the spans now open
        self._depth = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stats(self, name):
        if name not in self.spans:
            self.spans[name] = [0, 0, 0.0, 0.0]
            self._depth[name] = 0
        return self.spans[name]

    def wrap(self, name, fn, on_return=None):
        """fn wrapped in a span.

        on_return(start, seconds, args, result) runs after each call that
        returns; start is the clock reading at the call, seconds its
        duration with left-out time taken off.
        """
        stats = self._stats(name)
        opened = self._open
        depth = self._depth
        left_out = self.left_out
        clock = time.perf_counter

        def span(*args, **kwargs):
            child = [0.0]
            opened.append(child)
            depth[name] += 1
            skip = left_out.spent
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (left_out.spent - skip)
                opened.pop()
                depth[name] -= 1
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += 1
                    stats[2] += dt
                stats[3] += dt - child[0]
                if opened:
                    opened[-1][0] += dt
            if on_return is not None:
                on_return(t0, dt, args, result)
            return result

        return span

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span opened by the benchmark."""
        return self.wrap(name, fn)(*args, **kwargs)

    def counter(self, name, fn):
        """fn wrapped so that each call adds one to counts[name]."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, wrapper_of):
        """Replace owner.attr by wrapper_of(original); undone by uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, name):
        return self.spans.get(name, [0, 0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.spans.get(name, [0, 0, 0.0, 0.0])[2]

    def self_s(self, name):
        return self.spans.get(name, [0, 0, 0.0, 0.0])[3]

    def per_call_us(self, name):
        """Inclusive microseconds per outermost call (0 when never called)."""
        s = self.spans.get(name)
        if not s or not s[1]:
            return 0.0
        return 1e6 * s[2] / s[1]

    def to_dict(self):
        return {
            "spans": {
                name: {"calls": s[0], "outer_calls": s[1], "total_s": s[2], "self_s": s[3]}
                for name, s in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
