"""Who wins: misère and normal results, outcomes, and strong outcomes.

Results are per-player: ``left_result(g)`` says who wins when Left moves
first, ``right_result(g)`` when Right moves first, with L > R as values.
Under the misère convention a player with no move wins; under the normal
convention a player with no move loses.  The pair of results folds into
one of four outcomes L, N, P, R, partially ordered by how good they are
for Left (L on top, R at the bottom, N and P incomparable).

There is one recursion, on pairs: the results of a sum g + h are
evaluated on the pair of ids (g, h), and a single game g is the pair
(0, g), since 0 is the identity of the sum.  The result function of the
player to move is written once: per convention, Left's is made from
Left's options, winner, end value and memo, and Right's is the same body
with each of them swapped.  ``strong_outcome`` computes both of its
sides together from the two functions.  A sum
is never built in the intern table just to be evaluated; callers that
only ask who wins a sum use ``sum_left_result`` and its siblings.
The closed-form strong outcome below does so too.  It is checked against
two other implementations: the brute force in ``lab``, which plays every
dead end up to a rank bound on pairs, and the frozenset reference in the
tests, which builds each sum explicitly.

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


def _convention(at_left_end: Result, left_memo: dict, right_memo: dict):
    """The Left-first and Right-first result functions of one convention.

    Each takes a sum g + h as the pair (g, h); a single game g is the pair
    (0, g), since 0 is the identity of the sum and has no options.
    at_left_end is the result when Left has no move on Left's turn (L
    under misère play, R under normal play); a Right-end gives the other.
    One body serves both players: Right is Left with the options, the
    winner, the end value and the memo swapped.  Each function finds the
    other player's function in a table bound here, so no side argument
    enters the recursion.  A sum is never interned: its options for the
    player to move are the pairs (gᴸ, h) and (g, hᴸ), and its results are
    memoised per unordered pair.
    """
    zero = core.zero()
    mover = [None, None]  # indexed by the Result the player to move wants

    def player(options, wins: Result, at_end: Result, memo: dict):
        loses = Result(1 - wins)

        def result(g: GameId, h: GameId = zero) -> Result:
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

        mover[wins] = result
        return result

    return (player(core.left_options, Result.L, at_left_end, left_memo),
            player(core.right_options, Result.R, Result(1 - at_left_end),
                   right_memo))


_MIS_L: dict = {}
_MIS_R: dict = {}
_mis_left, _mis_right = _convention(Result.L, _MIS_L, _MIS_R)

_NOR_L: dict = {}
_NOR_R: dict = {}
_nor_left, _nor_right = _convention(Result.R, _NOR_L, _NOR_R)


def left_result(g: GameId) -> Result:
    """Winner of g under misère play when Left moves first."""
    return _mis_left(g)


def right_result(g: GameId) -> Result:
    """Winner of g under misère play when Right moves first."""
    return _mis_right(g)


def outcome(g: GameId) -> Outcome:
    """Misère outcome of g."""
    return _OUTCOMES[_mis_left(g)][_mis_right(g)]


def normal_left_result(g: GameId) -> Result:
    """Winner of g under normal play when Left moves first."""
    return _nor_left(g)


def normal_right_result(g: GameId) -> Result:
    """Winner of g under normal play when Right moves first."""
    return _nor_right(g)


def normal_outcome(g: GameId) -> Outcome:
    """Normal-play outcome of g."""
    return _OUTCOMES[_nor_left(g)][_nor_right(g)]


def sum_left_result(g: GameId, h: GameId) -> Result:
    """left_result(add(g, h)), without interning the sum."""
    return _mis_left(g, h)


def sum_right_result(g: GameId, h: GameId) -> Result:
    """right_result(add(g, h)), without interning the sum."""
    return _mis_right(g, h)


def sum_outcome(g: GameId, h: GameId) -> Outcome:
    """outcome(add(g, h)), without interning the sum."""
    return _OUTCOMES[_mis_left(g, h)][_mis_right(g, h)]


def normal_sum_left_result(g: GameId, h: GameId) -> Result:
    """normal_left_result(add(g, h)), without interning the sum."""
    return _nor_left(g, h)


def normal_sum_right_result(g: GameId, h: GameId) -> Result:
    """normal_right_result(add(g, h)), without interning the sum."""
    return _nor_right(g, h)


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
            o = _OUTCOMES[min(_mis_left(g), _mis_left(g, left_attack))][
                max(_mis_right(g), _mis_right(g, right_attack))]
        _STRONG[g] = o
    return o


def strong_left_outcome(g: GameId) -> Result:
    """Worst case for Left moving first in g plus any dead Left-end."""
    return strong_outcome(g).left


def strong_right_outcome(g: GameId) -> Result:
    """Best case for Right moving first in g plus any dead Right-end."""
    return strong_outcome(g).right


_BASE = {Universe.DICOT: outcome, Universe.DEAD_ENDING: strong_outcome}


def base_outcome(g: GameId, u: Universe) -> Outcome:
    """The outcome a comparison in u starts from, as ordering binds it."""
    return _BASE[u](g)
