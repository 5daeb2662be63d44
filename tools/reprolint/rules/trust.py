"""Trust boundaries: nothing that crosses one is deserialised as code.

Worker sockets, checkpoints, spec files and HTTP bodies carry JSON and
are validated field by field.  An object-serialisation module in
``src/`` is how a live-object path (and arbitrary code execution on
load) would come back, so importing one is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Finding, Rule, SourceFile

#: Modules that rebuild arbitrary objects (and so run code) on load.
OBJECT_SERIALIZERS = frozenset({"pickle", "marshal", "shelve", "dill", "cloudpickle"})


class NoPickleRule(Rule):
    name = "no-pickle"
    summary = "no object-serialisation modules in src/"
    explanation = """\
Everything that crosses a trust boundary is validated data: wire
frames, the JSON worker state, checkpoints, spec JSON, HTTP bodies.
``pickle``, ``marshal``, ``shelve``, ``dill`` and ``cloudpickle`` rebuild
arbitrary objects, so loading their bytes from a peer runs that peer's
code.  Importing any of them under ``src/`` is flagged; ship plain
data (``json``) and rebuild objects from their constructor arguments.
"""

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in OBJECT_SERIALIZERS:
                    yield src.finding(
                        self.name, node,
                        f"`{name}` deserialises objects (and runs code) "
                        "on load; ship JSON data instead",
                    )
