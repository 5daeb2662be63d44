"""Spans from outside: wrappers around the public functions of each layer.

The benchmark never edits the program.  For a traced run it replaces
the attribute a caller looks up at call time (a class attribute for
methods, a module global for functions such as ``parse_document`` in
``repro.soup.cache``) with a wrapper that records one span per call.

A span is ``(name, start, end, parent)``; spans live in per-thread
``array`` columns (24 bytes a span, so a million spans stay small) and
are written out once, at the end of the run.  A layer's self time is
its spans' time minus the time their direct children cover; children
of one thread's stack never overlap, so that is a plain sum.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_INHERITED = object()
#: ``end`` of a span not closed yet.
_OPEN = -1.0


class SpanStore:
    """The spans one thread recorded, column-wise."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: List[int] = []


class Tracer:
    """Records spans and counters; installs and removes wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._counters_lock = threading.Lock()
        self._stores: List[SpanStore] = []
        self._stores_lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _store(self) -> SpanStore:
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = SpanStore()
            with self._stores_lock:
                self._stores.append(store)
        return store

    def open(self, name_id: int) -> Tuple[SpanStore, int]:
        store = self._store()
        index = len(store.start)
        store.parent.append(store.stack[-1] if store.stack else -1)
        store.name.append(name_id)
        store.end.append(_OPEN)
        store.stack.append(index)
        store.start.append(self.clock())
        return store, index

    def close(self, store: SpanStore, index: int) -> None:
        store.end[index] = self.clock()
        store.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        name_of: Optional[Callable[..., str]] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """*fn* recording one span per call.

        *name_of(args)* picks a per-call span name (``crawl.task.<mode>``);
        *on_result(tracer, args, result)* feeds counters from the call.
        """
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if name_of is None else self.name_id(name_of(args))
            store, index = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(store, index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` is one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                store, index = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(store, index)
                yield item

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict registry);
        :meth:`uninstall` restores it, or, for an attribute *owner* only
        inherited, deletes the override."""
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = replacement
            return
        self._patched.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def patch_path(self, path: str, name: str, **kwargs) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place."""
        owner, attr = resolve(path)
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over every thread's spans."""
        out: Dict[str, Dict[str, float]] = {}
        with self._stores_lock:
            stores = list(self._stores)
        for store in stores:
            for name_id, calls, total, own in span_self_times(
                store.start, store.end, store.name, store.parent
            ):
                entry = out.setdefault(
                    self.names[name_id],
                    {"calls": 0, "total_s": 0.0, "self_s": 0.0},
                )
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += own
        return out

    def dump(self, path) -> None:
        """Write every span as ``name start end parent`` lines."""
        with self._stores_lock:
            stores = list(self._stores)
        with open(path, "w", encoding="utf-8") as handle:
            for thread, store in enumerate(stores):
                handle.write(f"# thread {thread}\n")
                for i in range(len(store.start)):
                    handle.write(
                        f"{self.names[store.name[i]]} {store.start[i]:.9f} "
                        f"{store.end[i]:.9f} {store.parent[i]}\n"
                    )


def span_self_times(start, end, name, parent) -> List[Tuple[int, int, float, float]]:
    """Per name id: ``(name_id, calls, total time, self time)``.

    Self time is a span's duration minus the durations of its direct
    children.  Spans still open are ignored.
    """
    count = len(start)
    covered = [0.0] * count
    for i in range(count):
        if end[i] != _OPEN and parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    totals: Dict[int, List[float]] = {}
    for i in range(count):
        if end[i] == _OPEN:
            continue
        duration = end[i] - start[i]
        entry = totals.setdefault(name[i], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered[i]
    return [(nid, int(c), t, s) for nid, (c, t, s) in sorted(totals.items())]


def resolve(path: str):
    """``"pkg.mod.Class.attr"`` -> ``(owner object, "attr")``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path}")
