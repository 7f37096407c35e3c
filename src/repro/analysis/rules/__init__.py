"""Registry of shipped lint rules.

Each rule lives in its own module and subclasses
:class:`repro.analysis.engine.Rule`. The registry is asserted against
:data:`~repro.analysis.engine.ALL_RULE_IDS` at import time so the
engine's rule-id catalog (used for CLI ``--rule`` choices and
per-directory configs) can never drift from the actual rule set.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.engine import ALL_RULE_IDS, Rule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.excepts import BareExceptRule
from repro.analysis.rules.imports import UnusedImportRule
from repro.analysis.rules.lifecycle import ThreadLifecycleRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.strict_json import StrictJsonRule

_RULE_CLASSES = (
    BareExceptRule,
    DeterminismRule,
    LockDisciplineRule,
    StrictJsonRule,
    ThreadLifecycleRule,
    UnusedImportRule,
)

assert tuple(sorted(cls.id for cls in _RULE_CLASSES)) == ALL_RULE_IDS, (
    "rule registry out of sync with engine.ALL_RULE_IDS"
)


def get_rules(rule_filter: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate registered rules, optionally filtered by id."""
    if rule_filter is not None:
        wanted = set(rule_filter)
        unknown = wanted - set(ALL_RULE_IDS)
        if unknown:
            raise ValueError(f"unknown lint rule(s): {sorted(unknown)}")
        return [cls() for cls in _RULE_CLASSES if cls.id in wanted]
    return [cls() for cls in _RULE_CLASSES]
