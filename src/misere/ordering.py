"""Universe-relative comparison of games.

``ge(g, h, u)`` decides whether g is at least as good as h for Left in
every sum context drawn from the universe u, without quantifying over
contexts: it checks the base outcomes (plain outcomes for dicots, strong
outcomes for dead-ending games) and then a pair of maintenance conditions
on the options, recursing on strictly smaller total rank.

``definitional_ge_check`` is the quantifier made literal over a finite
test set; it exists so the subordinate test can be cross-validated and so
games outside the universe can still be probed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import core, outcomes
from .core import DomainError, GameId, Universe
from .outcomes import (Result, outcome_ge, sum_left_result, sum_outcome,
                       sum_right_result)

_GE: dict = {}


def ge(g: GameId, h: GameId, u: Universe) -> bool:
    """Does g >= h relative to the universe u?  Both games must lie in u."""
    core.require_member(g, u)
    core.require_member(h, u)
    return _ge(g, h, u)


def _ge(g: GameId, h: GameId, u: Universe) -> bool:
    if g == h:
        return True
    key = (g, h, u)
    r = _GE.get(key)
    if r is None:
        r = _ge_compute(g, h, u)
        _GE[key] = r
    return r


def _le(g: GameId, h: GameId, u: Universe) -> bool:
    return _ge(h, g, u)


def _ge_compute(g: GameId, h: GameId, u: Universe) -> bool:
    if not outcome_ge(outcomes.base_outcome(g, u), outcomes.base_outcome(h, u)):
        return False
    # Left must keep up: every Left option of h is matched by a Left
    # option of g, unless h's move can be answered through its own
    # Right responses back below g.  Right must not gain: the same
    # condition with the players swapped, on g's Right options.
    for mine, theirs, own, reply, above in (
            (g, h, core.left_options, core.right_options, _ge),
            (h, g, core.right_options, core.left_options, _le)):
        ours = own(mine)
        for x in own(theirs):
            if any(above(a, x, u) for a in ours):
                continue
            if any(above(mine, b, u) for b in reply(x)):
                continue
            return False
    return True


def equivalent(g: GameId, h: GameId, u: Universe) -> bool:
    """Indistinguishable by every context in u: ge both ways."""
    return ge(g, h, u) and ge(h, g, u)


def ge_normal(g: GameId, h: GameId) -> bool:
    """Normal-play comparison: Left playing second wins g plus conjugate(h)."""
    return outcomes.normal_sum_right_result(g, core.conjugate(h)) == Result.L


def definitional_ge_check(g: GameId, h: GameId, u: Universe,
                          test_set: Iterable[GameId]) -> bool:
    """Check outcome(g + x) >= outcome(h + x) for every x in test_set.

    Every test game must belong to u; g and h themselves may lie outside
    it.  This is only as strong as the test set is rich.
    """
    for x in test_set:
        core.require_member(x, u)
        # outcome_ge on the two sum outcomes, read off the results.
        if (sum_left_result(g, x) < sum_left_result(h, x)
                or sum_right_result(g, x) < sum_right_result(h, x)):
            return False
    return True


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


def distinguish(g: GameId, h: GameId, u: Universe,
                max_rank: int = 2, max_options: int = 4) -> Distinguisher:
    """Search u, by increasing rank in structural order, for a witness
    context whose sum changes the outcome; fall back on the subordinate
    test when none exists within the budget."""
    core.require_member(g, u)
    core.require_member(h, u)
    from . import lab

    budget = (max_rank, max_options)
    slice_budget = lab.EnumerationBudget(max_rank=max_rank,
                                         max_options=max_options, universe=u)
    for x in lab.enumerate_games(slice_budget):
        if sum_outcome(g, x) != sum_outcome(h, x):
            return Distinguisher(Distinguisher.FAILS, x, budget)
    if equivalent(g, h, u):
        return Distinguisher(Distinguisher.HOLDS, None, budget)
    return Distinguisher(Distinguisher.INCONCLUSIVE, None, budget)
