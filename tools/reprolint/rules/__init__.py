"""The reprolint rule registry."""

from typing import Dict, List

from tools.reprolint.core import Rule
from tools.reprolint.rules.determinism import (
    SaltedHashRule,
    SetIterationRule,
    UnseededEntropyRule,
)
from tools.reprolint.rules.locking import UnlockedMutationRule
from tools.reprolint.rules.robustness import BroadExceptRule
from tools.reprolint.rules.streaming import MaterializedRecordsRule
from tools.reprolint.rules.trust import NoPickleRule


def all_rules() -> List[Rule]:
    """One fresh instance of every registered rule."""
    return [
        SaltedHashRule(),
        UnseededEntropyRule(),
        SetIterationRule(),
        MaterializedRecordsRule(),
        UnlockedMutationRule(),
        BroadExceptRule(),
        NoPickleRule(),
    ]


def rules_by_name() -> Dict[str, Rule]:
    return {rule.name: rule for rule in all_rules()}
