"""Cascade PBE benchmark toolkit.

Generates multi-step find-and-replace synthesis problems whose rule
interactions (feeding, bleeding, and their counter variants) are
classified exactly, builds program-reordering puzzles from them, and
scores candidate solvers, including remote chat-completion models.
"""

from .core import (
    Alphabet,
    Cascade,
    EmptySourceError,
    LITE_ALPHABET,
    RewriteRule,
    apply_cascade,
    apply_rule,
    levenshtein,
    levenshtein_vec,
    string_sets,
)
from .relations import (
    RelationEdge,
    bleeds,
    classify_bfcc,
    feeds,
    oracle_bleeds,
    oracle_feeds,
)
from .proposer import (
    BalanceReport,
    Dataset,
    GeneratorParams,
    PbeInstance,
    generate_dataset,
    kl_balance_report,
    lite_params,
)

__all__ = [
    "Alphabet",
    "BalanceReport",
    "Cascade",
    "Dataset",
    "EmptySourceError",
    "GeneratorParams",
    "LITE_ALPHABET",
    "PbeInstance",
    "RelationEdge",
    "RewriteRule",
    "apply_cascade",
    "apply_rule",
    "bleeds",
    "classify_bfcc",
    "feeds",
    "generate_dataset",
    "kl_balance_report",
    "levenshtein",
    "levenshtein_vec",
    "lite_params",
    "oracle_bleeds",
    "oracle_feeds",
    "string_sets",
]

__version__ = "0.1.0"
