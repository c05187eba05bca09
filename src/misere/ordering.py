"""Universe-relative comparison of games.

``ge(g, h, u)`` decides whether g is at least as good as h for Left in
every sum context drawn from the universe u, without quantifying over
contexts: it checks the base outcomes (plain for dicots, strong for
dead-ending games) and then a pair of maintenance conditions on the
options, recursing on strictly smaller total rank; ``_COMPARE[u]`` binds
this once per universe, so the recursion never tests or hashes u.
The public ``ge`` and ``equivalent`` check that each game lies in u once,
then run the bound comparison; a caller that has already checked its
games, such as the census, may call ``_COMPARE[u][0]`` directly.

``definitional_ge_check`` is the quantifier made literal over a finite
test set; it exists so the subordinate test can be cross-validated and so
games outside the universe can still be probed.  It is a finite form of
the indistinguishability relation of misère quotients (Plambeck & Siegel,
JCTA 2008): each game's results against the set are two bit vectors,
memoised per game and set, and each set is validated once per universe.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import core, outcomes
from .core import DomainError, GameId, Universe
from .outcomes import (Result, outcome_ge, sum_left_result, sum_outcome,
                       sum_right_result)


def _comparison(base, memo: dict) -> tuple:
    """The (ge, le) pair of one universe, on ids known to lie in it, closed
    over its base outcome and its memo.

    The memo holds rows: ``memo[g][h]`` is the answer for g >= h, and the
    row of g is made on g's first comparison.  A lookup indexes by the ids
    the caller already holds, so it builds and hashes no pair key.
    """
    def ge(g: GameId, h: GameId) -> bool:
        if g == h:
            return True
        row = memo.get(g)
        if row is None:
            row = memo.setdefault(g, {})
        r = row.get(h)
        if r is None:
            r = row[h] = outcome_ge(base(g), base(h)) and keeps_up(g, h)
        return r

    def le(g: GameId, h: GameId) -> bool:
        return ge(h, g)

    def keeps_up(g: GameId, h: GameId) -> bool:
        # Left must keep up: every Left option of h is matched by a Left
        # option of g, unless h's move can be answered through its own
        # Right responses back below g.  Right must not gain: the same
        # condition with the players swapped, on g's Right options.
        for mine, theirs, own, reply, above in (
                (g, h, core.left_options, core.right_options, ge),
                (h, g, core.right_options, core.left_options, le)):
            ours = own(mine)
            for x in own(theirs):
                if any(above(a, x) for a in ours):
                    continue
                if any(above(mine, b) for b in reply(x)):
                    continue
                return False
        return True

    return ge, le


_GE_DICOT, _GE_DEAD_ENDING = {}, {}
_COMPARE = {u: _comparison(outcomes._BASE[u], memo) for u, memo in (
    (Universe.DICOT, _GE_DICOT), (Universe.DEAD_ENDING, _GE_DEAD_ENDING))}


def ge(g: GameId, h: GameId, u: Universe) -> bool:
    """Does g >= h relative to the universe u?  Both games must lie in u."""
    core.require_member(g, u)
    core.require_member(h, u)
    return _COMPARE[u][0](g, h)


def equivalent(g: GameId, h: GameId, u: Universe) -> bool:
    """Indistinguishable by every context in u: ge both ways."""
    core.require_member(g, u)
    core.require_member(h, u)
    at_least = _COMPARE[u][0]
    return at_least(g, h) and at_least(h, g)


def ge_normal(g: GameId, h: GameId) -> bool:
    """Normal-play comparison: Left playing second wins g plus conjugate(h)."""
    return outcomes.normal_sum_right_result(g, core.conjugate(h)) == Result.L


# The definitional check's tables.  A test set is interned by its contents
# to a small index; (index, u) is in _CHECKED_SETS once every game of the
# set is known to lie in u; _OUTCOME_VECTORS[index][g] holds g's results
# against the set as two bit vectors, in one row per set.  (No name here
# starts with _GE: those are the memos of the bound comparison.)
_TEST_SETS: dict = {}
_CHECKED_SETS: set = set()
_OUTCOME_VECTORS: dict = {}


def _outcome_vector(g: GameId, vectors: dict, tests: tuple) -> tuple:
    """(Left-first bits, Right-first bits) of g against tests: bit i is set
    when Left wins g + tests[i] with that player moving first.  vectors is
    the set's row of _OUTCOME_VECTORS."""
    v = vectors.get(g)
    if v is None:
        left = right = 0
        for i, x in enumerate(tests):
            if sum_left_result(g, x):
                left |= 1 << i
            if sum_right_result(g, x):
                right |= 1 << i
        v = vectors[g] = (left, right)
    return v


def definitional_ge_check(g: GameId, h: GameId, u: Universe,
                          test_set: Iterable[GameId]) -> bool:
    """Check outcome(g + x) >= outcome(h + x) for every x in test_set.

    Every test game must belong to u, and the whole set is checked before
    any answer is given; g and h themselves may lie outside it.  This is
    only as strong as the test set is rich.

    The results of a game against a test set are kept as two bit vectors,
    one per player moving first, so g >= h over the set is two AND-NOTs.
    Each distinct set (by contents) is validated once per universe.
    """
    tests = tuple(test_set)
    index = _TEST_SETS.setdefault(tests, len(_TEST_SETS))
    if (index, u) not in _CHECKED_SETS:
        for x in tests:
            core.require_member(x, u)
        _CHECKED_SETS.add((index, u))
    vectors = _OUTCOME_VECTORS.setdefault(index, {})
    g_left, g_right = _outcome_vector(g, vectors, tests)
    h_left, h_right = _outcome_vector(h, vectors, tests)
    # outcome_ge on every sum: no x where h + x wins for Left and g + x not.
    return not (h_left & ~g_left) and not (h_right & ~g_right)


class Distinguisher(core.Record):
    """Result of a bounded search for a context telling two games apart.

    verdict is one of "holds" (equivalence confirmed), "fails-with-witness"
    (witness is a game x with outcome(g + x) != outcome(h + x)), or
    "inconclusive" (no witness within the budget, equivalence not
    confirmed).  budget is the pair (max_rank, max_options) searched.
    """

    __slots__ = ("verdict", "witness", "budget")
    verdict: str
    witness: Optional[GameId]
    budget: tuple

    HOLDS = "holds"
    FAILS = "fails-with-witness"
    INCONCLUSIVE = "inconclusive"


def distinguish(g: GameId, h: GameId, u: Universe, max_rank: int = core._DEFAULT_RANK,
                max_options: int = core._DEFAULT_OPTIONS) -> Distinguisher:
    """Search u, by increasing rank in structural order, for a witness
    context whose sum changes the outcome; fall back on the subordinate
    test when none exists within the budget."""
    core.require_member(g, u)
    core.require_member(h, u)
    from . import lab

    budget = (max_rank, max_options)
    for x in lab.enumerate_games(lab.EnumerationBudget(max_rank, max_options, u)):
        if sum_outcome(g, x) != sum_outcome(h, x):
            return Distinguisher(Distinguisher.FAILS, x, budget)
    if equivalent(g, h, u):
        return Distinguisher(Distinguisher.HOLDS, None, budget)
    return Distinguisher(Distinguisher.INCONCLUSIVE, None, budget)
