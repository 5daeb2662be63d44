"""Public surface discipline: ship only what a program runs.

A public definition in ``src/repro`` that only the tests call is code
the package carries for nobody: it has to be read, kept in step with
the engine, and kept passing, yet no crawl, campaign, experiment or
example ever runs it.  The rule flags such definitions so each one is
deleted, moved next to the test or benchmark that uses it, or kept
with a pragma that says why.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from tools.reprolint.core import REPO_ROOT, Finding, Rule, SourceFile

#: Where the programs live.  A definition is used when one of these
#: (other than its own module) names it; ``tests/`` and ``benchmarks/``
#: do not count.
PROGRAM_PATHS: Tuple[str, ...] = ("src/repro", "examples", "perfbench", "README.md")

#: The reasons a pragma may give for keeping a test-only definition,
#: as the justification's first word.
KEEP_REASONS: Tuple[str, ...] = (
    "oracle:",     # a reference implementation a differential test compares against
    "perfbench:",  # perfbench imports or patches it by path
    "probe:",      # a test probe of a production counter
    "hook:",       # a hook a framework dispatches by name
)

_SCOPE = "src/repro/"

#: A string literal that names code: ``"on_request"``,
#: ``"repro.soup.api.query_selector_all"``, ``"module:attr"``.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
_WORD = re.compile(r"[A-Za-z_]\w*")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_reexport(node: ast.stmt) -> bool:
    """A package ``__init__``'s imports and ``__all__`` publish names;
    they do not use them."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def names_used(tree: ast.Module, *, package_init: bool = False) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every identifier, attribute, imported name
    and name-like string literal in *tree*."""
    body = [node for node in tree.body if not (package_init and _is_reexport(node))]
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)
        ):
            for part in re.split(r"[.:]", node.value):
                yield part, node.lineno


@functools.lru_cache(maxsize=None)
def program_users(root: Path = REPO_ROOT) -> Dict[str, FrozenSet[str]]:
    """Name -> the program files (repo-relative) that use it."""
    users: Dict[str, Set[str]] = {}
    for top in PROGRAM_PATHS:
        path = root / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for file in files:
            if not file.is_file() or "__pycache__" in file.parts:
                continue
            text = file.read_text(encoding="utf-8")
            if file.suffix == ".py":
                tree = ast.parse(text, filename=str(file))
                names = {
                    name for name, _ in
                    names_used(tree, package_init=file.name == "__init__.py")
                }
            else:
                names = set(_WORD.findall(text))
            rel = file.relative_to(root).as_posix()
            for name in names:
                users.setdefault(name, set()).add(rel)
    return {name: frozenset(files) for name, files in users.items()}


def public_definitions(tree: ast.Module) -> Iterator[ast.AST]:
    """Module-level functions and classes, and the methods of
    module-level classes, whose names do not start with ``_``."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS[:2]) and not member.name.startswith("_"):
                    yield member


class TestOnlyDefinitionRule(Rule):
    __test__ = False  # not a pytest test class

    name = "test-only-definition"
    summary = "public src/repro definitions must be reached by a program"
    explanation = f"""\
A public module-level function or class, or a public method, in
``src/repro/**`` (``__init__.py`` aside) must be named somewhere a
program lives: another ``src/repro`` module, ``examples/``,
``perfbench/`` or ``README.md``; a use in its own module outside its
own body counts too.  A name counts as an identifier, an attribute, an
import, or a string literal (``_emit("on_request")``,
``"repro.soup.api.query_selector_all"``), so hooks dispatched by name
are used.  Package re-exports are not uses.  Tests and benchmarks do
not count: a definition only they reach is surface the package ships
for nobody.  Delete it, move it next to its only user in ``tests/``
or ``benchmarks/``, or keep it with a pragma whose justification
starts with one of {', '.join(KEEP_REASONS)}: a reference
implementation a differential test compares production against, a
name perfbench imports or patches, a test probe of a production
counter, or a hook a framework dispatches by name.
"""

    def __init__(self, used_names: Optional[Iterable[str]] = None) -> None:
        #: Names injected as used elsewhere (tests); None reads the tree.
        self.used_names = None if used_names is None else frozenset(used_names)

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(_SCOPE) and not rel.endswith("/__init__.py")

    def _used_elsewhere(self, name: str, rel: str) -> bool:
        if self.used_names is not None:
            return name in self.used_names
        return bool(program_users().get(name, frozenset()) - {rel})

    def check(self, src: SourceFile) -> Iterator[Finding]:
        local: Dict[str, Set[int]] = {}
        for name, line in names_used(src.tree):
            local.setdefault(name, set()).add(line)
        for node in public_definitions(src.tree):
            if self._used_elsewhere(node.name, src.rel):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if any(
                not first <= line <= node.end_lineno
                for line in local.get(node.name, ())
            ):
                continue
            yield src.finding(
                self.name, node,
                f"`{node.name}` is public but only tests or benchmarks "
                "name it; delete it, move it next to its user, or keep it "
                "with a justified pragma (--explain test-only-definition)",
            )
