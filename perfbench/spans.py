"""Call spans for the benchmark's traced run, and the per-layer figures
derived from them.

Untraced runs use ``NullTracer``, which only counts calls, so the
end-to-end timings carry no tracing cost. The traced run uses ``Tracer``:
one span per public call (name, start, end, parent span, round), kept in
memory and written out once the run ends. A round is one repetition, or the
set-up.

Replays are spans of public building blocks re-run, after a call, on that
call's input, because the benchmark cannot time them inside the package.
A call's residual is its duration minus that of its direct replay children.
"""

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Passes calls straight through and counts them."""

    enabled = False

    def __init__(self):
        self.calls = 0
        self.last = None

    def call(self, name, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    @contextmanager
    def round(self, rid, name="rep"):
        yield


class Tracer:
    """Records a span per call; ``last`` is the id of the latest span."""

    enabled = True

    def __init__(self):
        self.calls = 0
        self.last = None
        self.spans = []      # (id, name, start, end, parent, round, replay)
        self.counts = []     # (round, name, value)
        self._round = None
        self._parent = None

    def _span(self, name, parent, replay, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid] = (sid, name, t0, time.perf_counter(), parent,
                               self._round, replay)
            self.last = sid

    def call(self, name, fn, *args, **kwargs):
        self.calls += 1
        return self._span(name, self._parent, False, fn, args, kwargs)

    def replay(self, parent, name, fn, *args, **kwargs):
        """Re-run a building block of span ``parent`` under a replay span."""
        return self._span(name, parent, True, fn, args, kwargs)

    def count(self, name, value):
        self.counts.append((self._round, name, value))

    @contextmanager
    def round(self, rid, name="rep"):
        """Span of one round. Replays recorded after it still belong to it."""
        self._round = rid
        sid = len(self.spans)
        self.spans.append(None)
        self._parent = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, name, t0, time.perf_counter(), None, rid,
                               False)
            self._parent = None

    def per_round(self):
        """{round: {metric: value}}: seconds per call name (``<name>_s``),
        residuals (``<name>_residual_s``) and counts, summed per round."""
        rounds = defaultdict(lambda: defaultdict(float))
        replayed = defaultdict(float)
        for sid, name, t0, t1, parent, rid, replay in self.spans:
            rounds[rid][name + "_s"] += t1 - t0
            if replay:
                replayed[parent] += t1 - t0
        for sid, name, t0, t1, parent, rid, replay in self.spans:
            if not replay and sid in replayed:
                rounds[rid][name + "_residual_s"] += t1 - t0 - replayed[sid]
        for rid, name, value in self.counts:
            rounds[rid][name] += value
        return rounds

    def medians(self, names):
        """Per name, the median over the repetitions that have it; for a
        name only the set-up has, the set-up's value; otherwise 0."""
        rounds = self.per_round()
        setup = rounds.pop("setup", {})
        out = {}
        for name in names:
            values = [r[name] for r in rounds.values() if name in r]
            out[name] = (statistics.median(values) if values
                         else setup.get(name, 0.0))
        return out

    def dump(self, path, meta):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "round", "replay"],
                       "spans": self.spans,
                       "counts": self.counts}, fh)
