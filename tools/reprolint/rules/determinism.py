"""Determinism rules: record values must be hash-seed and entropy free.

The byte-identity contract (same records across backends, worker
counts, kill/resume, and ``PYTHONHASHSEED``) only holds if every value
that can reach a record is derived deterministically.  These rules
police the record-producing packages — ``measure/``, ``webgen/``,
``vantage/``, ``smp/``, ``consent/`` — plus ``benchmarks/`` and
``tools/`` (whose outputs gate CI floors and must be stable too).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from tools.reprolint.core import Finding, Rule, SourceFile

#: Path prefixes whose modules produce (or directly feed) records.
RECORD_SCOPES: Tuple[str, ...] = (
    "src/repro/measure/",
    "src/repro/webgen/",
    "src/repro/vantage/",
    "src/repro/smp/",
    "src/repro/consent/",
    "benchmarks/",
    "tools/",
)


def in_record_scope(rel: str) -> bool:
    return rel.startswith(RECORD_SCOPES)


class _ImportTable(ast.NodeVisitor):
    """Map local names to the modules / members they were imported as."""

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}  # local name -> module path
        self.members: Dict[str, Tuple[str, str]] = {}  # local -> (module, member)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            self.members[alias.asname or alias.name] = (node.module, alias.name)


def _imports(src: SourceFile) -> _ImportTable:
    table = _ImportTable()
    table.visit(src.tree)
    return table


def _call_target(
    node: ast.Call, table: _ImportTable
) -> Optional[Tuple[str, str]]:
    """Resolve a call to ``(module, member)`` via the import table."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = table.modules.get(func.value.id)
        if module is not None:
            return (module, func.attr)
        member = table.members.get(func.value.id)
        if member is not None:  # e.g. ``from datetime import datetime``
            return (f"{member[0]}.{member[1]}", func.attr)
    elif isinstance(func, ast.Name):
        member = table.members.get(func.id)
        if member is not None:
            return member
    return None


class SaltedHashRule(Rule):
    name = "salted-hash"
    summary = "builtin hash() is salted per process; derive values stably"
    explanation = """\
The builtin ``hash()`` is salted per interpreter process (PYTHONHASHSEED),
so any value derived from it differs across processes, across the
engine's worker processes, and across reruns.  Webgen's banner-variant
derivation once had exactly this bug; the rule stops the class.

Use ``repro.rng.derive_seed`` (SHA-256, stable everywhere) for seed
derivation, or ``zlib.crc32`` for cheap bucketing the way engine
sharding does.  Defining ``__hash__`` on your own classes is fine —
the salt only matters once a hash value leaks into output.
"""

    def applies_to(self, rel: str) -> bool:
        return in_record_scope(rel)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        in_hash_methods: Set[int] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                for sub in ast.walk(node):
                    in_hash_methods.add(id(sub))
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and id(node) not in in_hash_methods
            ):
                yield src.finding(
                    self.name,
                    node,
                    "hash() is salted per process; derive this value with "
                    "repro.rng.derive_seed (or zlib.crc32 for bucketing)",
                )


#: ``random``-module functions that draw from the unseeded global RNG.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes", "seed",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
}

#: Wall-clock constructors (durations via perf_counter/monotonic are
#: fine: they never produce a portable value, only elapsed intervals).
_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime.datetime", "now"), ("datetime.datetime", "utcnow"),
    ("datetime.datetime", "today"), ("datetime.date", "today"),
}


class UnseededEntropyRule(Rule):
    name = "unseeded-entropy"
    summary = "no unseeded RNG, uuid4, os.urandom, secrets, or wall-clock values"
    explanation = """\
Record-producing code must draw every stochastic value from a stream
seeded through ``repro.rng`` (``derive_seed`` / ``SeedSequence``), or
the output stops being reproducible across runs and machines.  Flagged:

- module-level ``random.*`` draws (the unseeded global RNG) and
  ``random.Random()`` constructed without a seed;
- ``uuid.uuid1`` / ``uuid.uuid4`` (MAC/entropy based; ``uuid3``/``uuid5``
  are namespace digests and fine);
- ``os.urandom`` and anything in ``secrets``;
- wall-clock reads (``time.time``, ``datetime.now`` ...).  Durations
  from ``time.perf_counter`` / ``monotonic`` are allowed: they feed
  throughput instrumentation and cannot masquerade as stable values.

``random.Random(derive_seed(...))`` — an explicitly seeded stream — is
the sanctioned pattern and is not flagged.
"""

    def applies_to(self, rel: str) -> bool:
        return in_record_scope(rel)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        table = _imports(src)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node, table)
            if target is None:
                continue
            module, member = target
            message = None
            if module == "random" and member in _GLOBAL_RANDOM_FNS:
                message = (
                    f"random.{member}() draws from the unseeded global RNG; "
                    "use a stream from repro.rng (SeedSequence/derive_seed)"
                )
            elif (
                (module, member) == ("random", "Random")
                and not node.args
                and not node.keywords
            ):
                message = (
                    "random.Random() without a seed is entropy-seeded; pass "
                    "a derive_seed(...) value"
                )
            elif module == "uuid" and member in {"uuid1", "uuid4"}:
                message = (
                    f"uuid.{member}() is entropy/MAC derived; derive ids "
                    "from the seed tree (or uuid5 over a stable name)"
                )
            elif (module, member) == ("os", "urandom"):
                message = (
                    "os.urandom() is pure entropy; derive bytes from "
                    "repro.rng instead"
                )
            elif module == "secrets":
                message = (
                    f"secrets.{member}() is cryptographic entropy; "
                    "record-producing code must stay deterministic"
                )
            elif (module, member) in _WALL_CLOCK or (
                module.endswith(("datetime", "date")) and member in {"now", "utcnow"}
            ):
                message = (
                    f"{module.rsplit('.', 1)[-1]}.{member}() reads the wall "
                    "clock; thread timestamps through the run configuration "
                    "instead (perf_counter durations are fine)"
                )
            if message is not None:
                yield src.finding(self.name, node, message)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


class SetIterationRule(Rule):
    name = "set-iteration"
    summary = "never iterate a bare set toward output; sort it first"
    explanation = """\
Set iteration order depends on element hashes — for strings, on the
per-process hash salt — so a loop, comprehension, ``list()``/``tuple()``
conversion, or ``join`` over a bare set can order output differently in
every worker process.  Wrap the set in ``sorted(...)`` (the repo-wide
idiom; see e.g. ``compare_rounds``) before the order can matter.

Only syntactic set expressions (literals, ``set(...)``/``frozenset(...)``
calls, set comprehensions) are flagged; membership tests and unordered
reductions (``len``, ``sum``, ``min``, ``max``, ``any``, ``all``) over
sets are fine.
"""

    def applies_to(self, rel: str) -> bool:
        return in_record_scope(rel)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                func = node.func
                order_sensitive = (
                    isinstance(func, ast.Name) and func.id in {"list", "tuple"}
                ) or (isinstance(func, ast.Attribute) and func.attr == "join")
                if order_sensitive:
                    iterables.extend(node.args[:1])
            for iterable in iterables:
                if _is_set_expr(iterable):
                    yield src.finding(
                        self.name,
                        iterable,
                        "iteration order over a bare set follows the salted "
                        "hash; wrap it in sorted(...) before it can reach "
                        "output",
                    )
