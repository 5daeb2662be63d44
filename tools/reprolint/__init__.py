"""reprolint: repo-specific static analysis enforcing the reproducibility contract.

The repo's headline claim — byte-identical records across executor
backends, worker counts, kill/resume, and interpreter hash seeds — is
defended dynamically by the differential test matrices.  reprolint
enforces the same invariants *statically*, so a violation is caught at
lint time instead of after an expensive crawl matrix:

- **determinism** (``salted-hash``, ``unseeded-entropy``,
  ``set-iteration``): record-producing modules must not derive values
  from the per-process-salted ``hash()``, unseeded entropy sources, or
  bare-``set`` iteration order — seeds flow through
  :func:`repro.rng.derive_seed`.
- **streaming discipline** (``materialized-records``): the analysis
  layer and the merge/reconcile paths stay single-pass; no
  ``load_records`` / ``list(iter_records(...))`` / ``.readlines()`` /
  whole-file ``json.load``.
- **locking discipline** (``unlocked-mutation``): state mutated under a
  lock somewhere must be mutated under that lock everywhere.
- **robustness** (``broad-except``): worker-path handlers never swallow
  a fault without a trace.
- **trust boundaries** (``no-pickle``): ``src/`` imports no
  object-serialisation module; what crosses a boundary is JSON data.
- **public surface** (``test-only-definition``): every public
  ``src/repro`` definition is named by a program, not only by tests.

Run ``python -m tools.reprolint --list-rules`` for the registry and
``--explain RULE`` for the full rationale of one rule.
"""

from tools.reprolint.core import (  # noqa: F401
    Baseline,
    BaselineError,
    Finding,
    SourceFile,
    lint_sources,
    load_sources,
)
from tools.reprolint.rules import all_rules  # noqa: F401
