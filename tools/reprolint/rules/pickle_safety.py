"""Pickle-safety: the process-executor shard bundle must stay picklable.

The process backend ships each shard to a worker as a pickled bundle
(task tuples + id seeds) plus the run-constant shared dict installed by
the pool initializer (retry policy, detector instances).  A lambda,
local class, lock, or open handle smuggled into any type reachable from
that surface only explodes at pool start — or worse, only on the
process backend in CI.  This rule walks the reachable class graph
statically and flags the unpicklable member up front.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint.core import Finding, ProjectRule, SourceFile

#: The bundle surface: the engine's bundle dataclasses plus the live
#: detector instances that travel in the worker-shared dict
#: (``CrawlEngine._run_in_workers``).
DEFAULT_ROOTS: Tuple[Tuple[str, str], ...] = (
    ("src/repro/measure/engine.py", "CrawlTask"),
    ("src/repro/measure/engine.py", "RetryPolicy"),
    ("src/repro/bannerclick/detect.py", "BannerClick"),
    ("src/repro/lang/detector.py", "LanguageDetector"),
    # Wire dataclasses cross the distributed executor's socket framing;
    # their payloads must stay as serialisable as bundle state itself.
    ("src/repro/distributed/wire.py", "WireBundle"),
    ("src/repro/distributed/wire.py", "WireResult"),
)

#: Constructors whose product cannot cross a process boundary.
_UNPICKLABLE_CTORS = {
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "local", "open", "socket", "Popen",
}

#: Annotation type names that denote unpicklable members.
_UNPICKLABLE_TYPES = _UNPICKLABLE_CTORS | {
    "IO", "TextIO", "BinaryIO", "TextIOWrapper", "BufferedReader",
    "BufferedWriter", "FileIO",
}


@dataclass
class _ClassInfo:
    src: SourceFile
    node: ast.ClassDef


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Every identifier mentioned in a (possibly string) annotation."""
    names: Set[str] = set()
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            stack.append(node.value)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def _ctor_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


class BundlePickleSafetyRule(ProjectRule):
    name = "bundle-pickle-safety"
    summary = "types reachable from the shard bundle carry no unpicklable members"
    explanation = """\
Statically walks the class graph reachable from the process-executor
bundle surface — the engine's bundle dataclasses (``CrawlTask``,
``RetryPolicy``) and the detector types shipped in the worker-shared
dict (``BannerClick``, ``LanguageDetector``) — following the type
annotations of dataclass fields and ``__init__`` assignments across the
repo.  In every reachable class it flags members a worker process could
not unpickle:

- lambda defaults (``cb: Callable = lambda: ...`` or
  ``field(default=lambda ...)``) and ``field(default_factory=<lambda or
  Lock>)``;
- instance attributes assigned a lambda, a function/class defined
  locally inside ``__init__``, a ``threading`` primitive, an ``open()``
  handle, a socket, or a subprocess handle;
- annotations naming lock or file-handle types.

Per-instance dict/list factories (``field(default_factory=dict)``) and
module-level functions are fine — they pickle by value or reference.
If a worker-side type genuinely needs a lock, keep it out of the
bundle graph and rebuild it in the worker (see ``_worker_world``).
"""

    def __init__(
        self, roots: Sequence[Tuple[str, str]] = DEFAULT_ROOTS
    ) -> None:
        self.roots = tuple(roots)

    # -- class graph -------------------------------------------------
    def _index(
        self, sources: Sequence[SourceFile]
    ) -> Tuple[Dict[Tuple[str, str], _ClassInfo], Dict[str, List[_ClassInfo]]]:
        by_file: Dict[Tuple[str, str], _ClassInfo] = {}
        by_name: Dict[str, List[_ClassInfo]] = {}
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    info = _ClassInfo(src, node)
                    by_file[(src.rel, node.name)] = info
                    by_name.setdefault(node.name, []).append(info)
        return by_file, by_name

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        by_file, by_name = self._index(sources)
        queue: List[_ClassInfo] = []
        seen: Set[Tuple[str, str]] = set()

        def enqueue_name(name: str, origin: SourceFile) -> None:
            info = by_file.get((origin.rel, name))
            if info is None:
                matches = by_name.get(name, [])
                if len(matches) != 1:
                    return  # unknown or ambiguous: stay conservative
                info = matches[0]
            key = (info.src.rel, info.node.name)
            if key not in seen:
                seen.add(key)
                queue.append(info)

        for rel, class_name in self.roots:
            info = by_file.get((rel, class_name))
            if info is not None and (rel, class_name) not in seen:
                seen.add((rel, class_name))
                queue.append(info)

        while queue:
            info = queue.pop()
            yield from self._check_class(info, enqueue_name)

    # -- per-class checks --------------------------------------------
    def _check_class(self, info: _ClassInfo, enqueue_name) -> Iterator[Finding]:
        src, node = info.src, info.node
        label = f"{node.name} (reachable from the shard bundle)"
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                for name in _annotation_names(stmt.annotation):
                    if name in _UNPICKLABLE_TYPES:
                        yield src.finding(
                            self.name,
                            stmt,
                            f"{label}: field annotated {name} cannot cross "
                            "the process boundary",
                        )
                    else:
                        enqueue_name(name, src)
                if stmt.value is not None:
                    yield from self._check_default(src, label, stmt.value, enqueue_name)
            elif isinstance(stmt, ast.Assign):
                yield from self._check_default(src, label, stmt.value, enqueue_name)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name in (
                "__init__",
                "__post_init__",
            ):
                yield from self._check_init(src, label, stmt, enqueue_name)

    def _check_default(
        self, src: SourceFile, label: str, value: ast.AST, enqueue_name
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield src.finding(
                self.name,
                value,
                f"{label}: lambda default makes instances unpicklable; use a "
                "module-level function",
            )
            return
        ctor = _ctor_name(value)
        if ctor in _UNPICKLABLE_CTORS:
            yield src.finding(
                self.name,
                value,
                f"{label}: {ctor}(...) default cannot cross the process "
                "boundary",
            )
        if isinstance(value, ast.Call) and ctor == "field":
            for keyword in value.keywords:
                if keyword.arg not in ("default", "default_factory"):
                    continue
                if isinstance(keyword.value, ast.Lambda):
                    if keyword.arg == "default":
                        yield src.finding(
                            self.name,
                            keyword.value,
                            f"{label}: field(default=<lambda>) makes every "
                            "instance unpicklable; use a module-level function",
                        )
                    continue  # default_factory lambdas build picklable values
                inner = _ctor_name(keyword.value)
                if inner in _UNPICKLABLE_CTORS:
                    yield src.finding(
                        self.name,
                        keyword.value,
                        f"{label}: field({keyword.arg}={inner}...) plants an "
                        "unpicklable member in every instance",
                    )
                if keyword.arg == "default_factory" and isinstance(
                    keyword.value, ast.Name
                ):
                    if keyword.value.id in _UNPICKLABLE_CTORS:
                        yield src.finding(
                            self.name,
                            keyword.value,
                            f"{label}: field(default_factory="
                            f"{keyword.value.id}) plants an unpicklable "
                            "member in every instance",
                        )
                    else:
                        enqueue_name(keyword.value.id, src)

    def _check_init(
        self, src: SourceFile, label: str, init: ast.FunctionDef, enqueue_name
    ) -> Iterator[Finding]:
        for arg in list(init.args.args) + list(init.args.kwonlyargs):
            if arg.annotation is not None:
                for name in _annotation_names(arg.annotation):
                    if name in _UNPICKLABLE_TYPES:
                        yield src.finding(
                            self.name,
                            arg,
                            f"{label}: __init__ accepts a {name}; it would "
                            "land in an instance attribute and break pickling",
                        )
                    else:
                        enqueue_name(name, src)
        local_defs = {
            stmt.name
            for stmt in init.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        }
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            targets_self = any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                for target in stmt.targets
            )
            if not targets_self:
                continue
            value = stmt.value
            if isinstance(value, ast.Lambda):
                yield src.finding(
                    self.name,
                    value,
                    f"{label}: instance attribute holds a lambda; workers "
                    "cannot unpickle it — use a module-level function",
                )
            elif isinstance(value, ast.Name) and value.id in local_defs:
                yield src.finding(
                    self.name,
                    value,
                    f"{label}: instance attribute holds a function/class "
                    "defined locally in __init__; move it to module level",
                )
            else:
                ctor = _ctor_name(value)
                if ctor in _UNPICKLABLE_CTORS:
                    yield src.finding(
                        self.name,
                        value,
                        f"{label}: self.<attr> = {ctor}(...) cannot cross "
                        "the process boundary; rebuild it worker-side "
                        "instead of shipping it",
                    )
