"""Who wins: misère and normal results, outcomes, and strong outcomes.

Results are per-player: ``left_result(g)`` says who wins when Left moves
first, ``right_result(g)`` when Right moves first, with L > R as values;
``normal_left_result`` and ``normal_right_result`` are the same under
normal play.  Under the misère convention a player with no move wins;
under the normal convention a player with no move loses.  The pair of
results folds into one of four outcomes L, N, P, R, partially ordered by
how good they are for Left (L on top, R at the bottom, N and P
incomparable).

There is one recursion, on pairs: each result function takes a sum
g + h as the pair of ids (g, h), with h = 0 by default, so
``left_result(g)`` is g alone and no sum is interned just to be
evaluated.  The four are the functions ``_convention`` builds, each body
written once for the player to move.  ``strong_outcome`` is checked
against the brute force in ``lab``, which plays every dead end up to a
rank bound on pairs, and against the frozenset reference in the tests,
which builds each sum explicitly.

Strong outcomes refine misère outcomes for dead-ending games: they ask
who wins when an arbitrary dead end is placed alongside the game.  The
pessimal attack for each player is realized by a murder of rank one less
than the game, which keeps the computation finite.
"""

from __future__ import annotations

import enum

from . import core
from .core import DomainError, GameId, Universe


class Result(enum.IntEnum):
    R = 0
    L = 1

    def __str__(self):
        return self.name


class Outcome(enum.Enum):
    L = (Result.L, Result.L)
    N = (Result.L, Result.R)
    P = (Result.R, Result.L)
    R = (Result.R, Result.R)

    def __init__(self, left: Result, right: Result):
        self.left = left
        self.right = right

    def __str__(self):
        return self.name


# The outcome of a pair of results, indexed [left][right]: indexing skips
# the value lookup of Outcome((left, right)), the bulk of a memo hit.
_OUTCOMES = tuple(tuple(Outcome((left, right)) for right in Result)
                  for left in Result)


def outcome_ge(a: Outcome, b: Outcome) -> bool:
    """Partial order on outcomes: at least as good for Left, both ways round."""
    return a.left >= b.left and a.right >= b.right


# The identity of the sum: each result function reads f(g) as f(g, _ZERO).
_ZERO = core.zero()


def _convention(prefix: str, name: str, at_left_end: Result,
                left_memo: dict, right_memo: dict):
    """The Left-first and Right-first result functions of one convention,
    published as ``<prefix>left_result`` and ``<prefix>right_result``.

    Each takes a sum g + h as the pair (g, h); 0 has no options, so a
    single game g is the pair (g, 0).  at_left_end is the result when Left
    has no move on Left's turn (L under misère play, R under normal play);
    a Right-end gives the other.  One body serves both players: Right is
    Left with the options, the winner, the end value and the memo swapped.
    Each function finds the other player's function in a table bound here,
    so no side argument enters the recursion.  A sum is never interned:
    its options for the player to move are the pairs (gᴸ, h) and (g, hᴸ),
    and its results are memoised per unordered pair.
    """
    mover = [None, None]  # indexed by the Result the player to move wants

    def player(side: str, options, wins: Result, at_end: Result, memo: dict):
        loses = Result(1 - wins)

        def result(g: GameId, h: GameId = _ZERO) -> Result:
            key = (g, h) if g < h else (h, g)
            r = memo.get(key)
            if r is None:
                reply = mover[loses]
                go = options(g)
                ho = options(h)
                r = loses if go or ho else at_end
                # Loops rather than any(): the first win settles it, and no
                # generator frame is added per move of a long sum.
                for x in go:
                    if reply(x, h) is wins:
                        r = wins
                        break
                else:
                    for y in ho:
                        if reply(g, y) is wins:
                            r = wins
                            break
                memo[key] = r
            return r

        # The public name makes the function picklable by reference.
        result.__name__ = result.__qualname__ = prefix + side + "_result"
        result.__doc__ = ("Winner of g + h (h = 0 by default) under %s play when"
                          " %s moves first, without interning the sum."
                          % (name, side.title()))
        mover[wins] = result
        return result

    return (player("left", core.left_options, Result.L, at_left_end, left_memo),
            player("right", core.right_options, Result.R,
                   Result(1 - at_left_end), right_memo))


_MIS_L: dict = {}
_MIS_R: dict = {}
left_result, right_result = _convention("", "misère", Result.L, _MIS_L, _MIS_R)

_NOR_L: dict = {}
_NOR_R: dict = {}
normal_left_result, normal_right_result = _convention(
    "normal_", "normal", Result.R, _NOR_L, _NOR_R)


def outcome(g: GameId, h: GameId = _ZERO) -> Outcome:
    """Misère outcome of g + h (h = 0 by default), without interning the sum."""
    return _OUTCOMES[left_result(g, h)][right_result(g, h)]


def normal_outcome(g: GameId) -> Outcome:
    """Normal-play outcome of g."""
    return _OUTCOMES[normal_left_result(g)][normal_right_result(g)]


_STRONG: dict = {}


def strong_outcome(g: GameId) -> Outcome:
    """Strong misère outcome of a dead-ending game.

    Defined for dead-ending games only.  The empty game is N.  Otherwise
    each side is the worse, for the player moving first, of the plain
    result and the result with that player's murder one rank below g
    placed alongside; that sum is evaluated on the pair, not interned.
    """
    o = _STRONG.get(g)
    if o is None:
        if not core.is_dead_ending(g):
            raise DomainError("strong outcomes require a dead-ending game")
        k = core.rank(g)
        if k == 0:
            o = Outcome.N
        else:
            left_attack = core.murder(k - 1)
            right_attack = core.conjugate(left_attack)
            o = _OUTCOMES[min(left_result(g), left_result(g, left_attack))][
                max(right_result(g), right_result(g, right_attack))]
        _STRONG[g] = o
    return o


def strong_left_outcome(g: GameId) -> Result:
    """Worst case for Left moving first in g plus any dead Left-end."""
    return strong_outcome(g).left


def strong_right_outcome(g: GameId) -> Result:
    """Best case for Right moving first in g plus any dead Right-end."""
    return strong_outcome(g).right


# The outcome a comparison in a universe starts from, as ordering binds it.
_BASE = {Universe.DICOT: outcome, Universe.DEAD_ENDING: strong_outcome}
