"""In-memory spans and counters recorded around calls into the package.

The traced run replaces module-level names that the package looks up at
call time (for example `recourse.search.predict_batch`) with wrappers that
record a span per call: name, start, end, index of the enclosing span, and
the user the call was made for. Counters are updated at the same boundary,
from the call's arguments and result, so ratios are measured where the
work happens. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# count(counts, result, args) updates the counters after a traced call.
CountFn = Callable[[Counter, object, tuple], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, user id]
        self.counts: Counter = Counter()
        self.user: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count: Optional[CountFn] = None):
        """Route calls of `module.attr` through a span named `name`."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.user]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, out, args)
            return out

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total seconds, self seconds, and call count.

        A span's self time is its duration minus the time its direct
        children cover; calls are sequential, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, user id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
