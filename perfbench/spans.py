"""In-memory span recorder for outside-in layer tracing.

A span is one call into a layer: a name, a start, an end and the id of the
span that was open when it began (its parent; -1 for a root).  Spans live in
flat typed arrays while the run goes on and are written out once it ends.

Spans come from wrapped calls on one thread, so they open and close in
call-stack order: the children of a span never overlap one another and lie
inside it.  A span's self time is therefore its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NameStats:
    """Aggregate of the spans of one name, or of one group of names."""

    calls: int
    busy_s: float  # summed duration of spans not nested in one of the same group
    self_s: float
    durations: np.ndarray  # seconds, one per span


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._name)

    def wrap(self, fn, name: str, *, before=None, after=None, on_error=None):
        """`fn` recording one span per call, named `name`.

        before(*args, **kwargs) runs ahead of the span, after(result) once it
        closes, and on_error() inside it when fn raises.  The recording is
        written out inline: a wrapper may run a million times in a pass.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(sid)
            # read the clock last so the bookkeeping above falls outside the span
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Duration minus the part covered by direct children, per span."""
        return _self_times(self.arrays())

    def stats(self, group=None) -> dict[str, NameStats]:
        """Aggregate spans by name, or by `group(name)` when given.

        Every wrapped name appears, with zero calls if it never ran.
        busy_s sums only spans whose parent lies in another group, so a
        group calling itself is not counted twice.
        """
        a = self.arrays()
        keys = [group(name) if group else name for name in self.names]
        groups = list(dict.fromkeys(keys))
        group_of_name = np.array([groups.index(k) for k in keys], dtype=np.int32)
        span_group = group_of_name[a["name"]]
        has_parent = a["parent"] >= 0
        parent_group = np.full(span_group.size, -1, dtype=np.int32)
        parent_group[has_parent] = span_group[a["parent"][has_parent]]
        outermost = parent_group != span_group
        dur = a["end"] - a["start"]
        own = _self_times(a)
        out = {}
        for gid, key in enumerate(groups):
            mask = span_group == gid
            out[key] = NameStats(
                calls=int(mask.sum()),
                busy_s=float(dur[mask & outermost].sum()),
                self_s=float(own[mask].sum()),
                durations=dur[mask],
            )
        return out

    def write(self, path) -> None:
        """Write every span to an .npz file: names table plus span arrays."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
    return dur - covered
