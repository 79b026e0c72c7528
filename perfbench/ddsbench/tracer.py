"""In-memory span tracer that instruments the program from outside.

The tracer never edits the program's source.  :meth:`Tracer.patch_function`
replaces a module-level function in *every* ``repro`` module that imported
it by name (``build_decision_network`` is bound in ``core.fixed_ratio`` as
well as in ``core.flow_network``), and :meth:`Tracer.patch_method` replaces
one class attribute.  :meth:`Tracer.restore` undoes every patch, so traced
and untraced passes can alternate inside one process.

Spans live in flat arrays (one slot per span) and are only turned into
per-name aggregates, or written out, when the run ends.  Each thread keeps
its own stack of open spans, so a span's parent is the innermost span open
on the same thread.  Every span also records the request id that was current
when it opened: the benchmark drives one request at a time, so spans on
daemon worker threads are attributed to the one request in flight.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """Record named spans with parent links, thread ids and request ids."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.threads = array("q")
        #: Request id stamped on spans opened from now on (-1: none).
        self.request_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            with self._lock:
                code = self._codes.setdefault(name, len(self.names))
                if code == len(self.names):
                    self.names.append(name)
        return code

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, code: int) -> int:
        """Open a span of name ``code`` on this thread; returns its id."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            sid = len(self.starts)
            self.name_of.append(code)
            self.parents.append(parent)
            self.requests.append(self.request_id)
            self.threads.append(threading.get_ident())
            self.ends.append(math.nan)
            self.starts.append(_clock())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """Close span ``sid``; it must be the innermost open span of this thread."""
        self.ends[sid] = _clock()
        stack = self._stack()
        if not stack or stack[-1] != sid:
            raise RuntimeError(f"span {self.names[self.name_of[sid]]!r} closed out of order")
        stack.pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so every call records one ``name`` span.

        The span closes in ``finally``, so it closes even when the call raises.
        """
        code = self._code(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = tracer.open(code)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap the method ``cls.attr`` (looked up in the class's own dict)."""
        self.patch_attr(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_attr(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.starts)

    def open_spans(self) -> int:
        """How many recorded spans never closed."""
        return sum(1 for end in self.ends if math.isnan(end))

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span's self time is its duration minus the durations of its direct
        children (spans whose parent is it, necessarily on the same thread).
        """
        durations = self.durations()
        child = [0.0] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[sid]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for sid, code in enumerate(self.name_of):
            row = out[self.names[code]]
            row["calls"] += 1
            row["total_s"] += durations[sid]
            row["self_s"] += durations[sid] - child[sid]
        return out

    def by_request(self, names: set[str]) -> dict[int, dict[str, float]]:
        """Per request id, the summed duration of spans named in ``names``."""
        wanted = {self._codes[name] for name in names if name in self._codes}
        out: dict[int, dict[str, float]] = {}
        for sid, code in enumerate(self.name_of):
            if code in wanted:
                row = out.setdefault(self.requests[sid], {})
                name = self.names[code]
                row[name] = row.get(name, 0.0) + (self.ends[sid] - self.starts[sid])
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tname\tstart\tend\tparent\trequest\tthread\n")
            origin = self.starts[0] if len(self.starts) else 0.0
            for sid in range(len(self.starts)):
                thread = threads.setdefault(self.threads[sid], len(threads))
                handle.write(
                    f"{sid}\t{self.names[self.name_of[sid]]}\t"
                    f"{self.starts[sid] - origin:.7f}\t{self.ends[sid] - origin:.7f}\t"
                    f"{self.parents[sid]}\t{self.requests[sid]}\t{thread}\n"
                )
