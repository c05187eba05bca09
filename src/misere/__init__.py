"""Misère game algebra in the dicot and dead-ending universes.

Games are interned trees (see misere.core); outcomes, universe-relative
comparison, canonical forms, text notation and empirical verification
scans live in the sibling modules and are re-exported here.

Names load on first use: ``import misere`` imports no submodule, and
reading ``misere.ge`` (or ``misere.ordering``, or any submodule named in
``_TABLES``, ``misere.cli`` included) imports the module that defines it,
so a caller pays only for the modules it reads.

``stats()`` counts the entries of every process-global memo table in the
submodules loaded so far; it loads none itself.
"""

import importlib
import sys

__version__ = "0.1.0"

# Defining submodule -> the public names re-exported from it.
_EXPORTS = {
    "core": (
        "DEFAULT_SEED", "DomainError", "GameId", "ResourceError", "Universe",
        "add", "conjugate", "followers", "integer", "is_dead_ending",
        "is_dead_left_end", "is_dead_right_end", "is_dicot", "is_impartial",
        "is_left_end", "is_right_end", "left_options", "mk_game", "murder",
        "rank", "right_options", "star", "structural_key", "zero",
    ),
    "outcomes": (
        "Outcome", "Result", "left_result", "normal_left_result",
        "normal_outcome", "normal_right_result", "outcome", "outcome_ge",
        "right_result", "strong_left_outcome", "strong_outcome",
        "strong_right_outcome",
    ),
    "ordering": ("definitional_ge_check", "equivalent", "ge", "ge_normal"),
    "canonical": (
        "ReductionStep", "ReversibleOption", "bypass_open_reversible",
        "canonical_form", "canonical_form_traced", "find_reversible",
        "is_fundamental_left", "is_fundamental_right", "minimal_murder_index",
        "reduce_end_reversible_dead_ending", "reduce_end_reversible_dicot",
        "step_to_doc", "remove_dominated",
    ),
    "notation": (
        "InterchangeError", "ParseError", "from_interchange", "integer_value",
        "murder_value", "parse", "print_game", "to_interchange",
    ),
    "lab": (
        "MAX_ENUM_RANK", "CensusReport", "Distinguisher", "EnumerationBudget",
        "ScanReport", "brute_strong_left", "brute_strong_right", "census",
        "distinguish", "enumerate_dead_ends", "enumerate_dead_left_ends",
        "enumerate_dead_right_ends", "enumerate_games", "sample_rank3_games",
        "scan_cancellativity", "scan_conjugate_property",
        "scan_end_invertibility", "scan_hand_tying", "scan_murder_theorems",
        "scan_normal_embedding", "scan_weak_avoidance",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, "stats"])

# Submodule -> its memo tables, by name.  A dict whose values are dicts
# holds rows, memo[a][b], and counts one entry per pair; a function
# memoised by functools.lru_cache counts its cache's entries.
_TABLES = {
    "core": ("_NODES", "_TABLE", "_INTEGERS", "_MURDERS", "_CONJ", "_SUMS"),
    "outcomes": ("_MIS_L", "_MIS_R", "_NOR_L", "_NOR_R", "_STRONG"),
    "ordering": ("_GE_DICOT", "_GE_DEAD_ENDING", "_OUTCOME_VECTORS"),
    "canonical": ("_CANON",),
    "notation": ("_BRACE", "_NAMED"),
    "lab": ("_dead_left_ends", "_dead_right_ends"),
    "cli": ("_PARSERS",),
}


def stats() -> dict:
    """Entry counts of the memo tables of every loaded submodule.

    Keys are "module._TABLE" (for example "core._NODES", the intern
    table's node count), in a fixed order; a submodule not yet loaded is
    left out, since counting its tables would load it.
    """
    counts = {}
    for module, names in _TABLES.items():
        mod = sys.modules.get(__name__ + "." + module)
        if mod is None:
            continue
        for name in names:
            table = getattr(mod, name)
            key = module + "." + name
            if hasattr(table, "cache_info"):
                counts[key] = table.cache_info().currsize
            elif isinstance(table, dict) and isinstance(
                    next(iter(table.values()), None), dict):
                counts[key] = sum(map(len, table.values()))
            else:
                counts[key] = len(table)
    return counts


def __getattr__(name):
    if name in _TABLES:
        value = importlib.import_module("." + name, __name__)
    elif name in _ORIGIN:
        value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
