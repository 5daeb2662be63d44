"""The reprolint rule registry."""

from typing import Dict, Iterable, List, Optional

from tools.reprolint.core import Rule
from tools.reprolint.rules.determinism import (
    SaltedHashRule,
    SetIterationRule,
    UnseededEntropyRule,
)
from tools.reprolint.rules.locking import UnlockedMutationRule
from tools.reprolint.rules.robustness import BroadExceptRule
from tools.reprolint.rules.streaming import MaterializedRecordsRule
from tools.reprolint.rules.surface import TestOnlyDefinitionRule
from tools.reprolint.rules.trust import NoPickleRule


def all_rules(used_names: Optional[Iterable[str]] = None) -> List[Rule]:
    """One fresh instance of every registered rule.  *used_names*, when
    given, are the names ``test-only-definition`` treats as used outside
    the linted file, instead of reading the program tree."""
    return [
        SaltedHashRule(),
        UnseededEntropyRule(),
        SetIterationRule(),
        MaterializedRecordsRule(),
        UnlockedMutationRule(),
        BroadExceptRule(),
        NoPickleRule(),
        TestOnlyDefinitionRule(used_names),
    ]


def rules_by_name() -> Dict[str, Rule]:
    return {rule.name: rule for rule in all_rules()}
