"""Who wins: misère and normal results, outcomes, and strong outcomes.

Results are per-player: ``left_result(g)`` says who wins when Left moves
first, ``right_result(g)`` when Right moves first, with L > R as values.
Under the misère convention a player with no move wins; under the normal
convention a player with no move loses.  The pair of results folds into
one of four outcomes L, N, P, R, partially ordered by how good they are
for Left (L on top, R at the bottom, N and P incomparable).

Each recursion is written once, with the convention or the side as a
parameter: one factory binds the Left-first and Right-first functions of
each convention, and one helper computes both sides of a strong outcome.

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

    def __str__(self):
        return self.name

    @property
    def left(self) -> Result:
        return self.value[0]

    @property
    def right(self) -> Result:
        return self.value[1]


def outcome_ge(a: Outcome, b: Outcome) -> bool:
    """Partial order on outcomes: at least as good for Left, both ways round."""
    return a.left >= b.left and a.right >= b.right


def _convention(at_left_end: Result, left_memo: dict, right_memo: dict):
    """The Left-first and Right-first result functions of one convention.

    at_left_end is the result when Left has no move on Left's turn (L
    under misère play, R under normal play); a Right-end gives the other.
    Binding the closures once keeps side arguments out of the recursion.
    """
    at_right_end = Result(1 - at_left_end)

    def left(g: GameId) -> Result:
        r = left_memo.get(g)
        if r is None:
            opts = core.left_options(g)
            r = max(map(right, opts)) if opts else at_left_end
            left_memo[g] = r
        return r

    def right(g: GameId) -> Result:
        r = right_memo.get(g)
        if r is None:
            opts = core.right_options(g)
            r = min(map(left, opts)) if opts else at_right_end
            right_memo[g] = r
        return r

    return left, right


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
    return Outcome((_mis_left(g), _mis_right(g)))


def normal_left_result(g: GameId) -> Result:
    """Winner of g under normal play when Left moves first."""
    return _nor_left(g)


def normal_right_result(g: GameId) -> Result:
    """Winner of g under normal play when Right moves first."""
    return _nor_right(g)


def normal_outcome(g: GameId) -> Outcome:
    """Normal-play outcome of g."""
    return Outcome((_nor_left(g), _nor_right(g)))


_STRONG: dict = {}


def _strong_side(g: GameId, attack: GameId, result, worst) -> Result:
    """The worse of result(g) and result(g + attack) for the first player."""
    return worst(result(g), result(core.add(g, attack)))


def strong_outcome(g: GameId) -> Outcome:
    """Strong misère outcome of a dead-ending game.

    Defined for dead-ending games only.  The empty game is N.  Otherwise
    each side is the worse, for the player moving first, of the plain
    result and the result with that player's murder one rank below g
    placed alongside.
    """
    o = _STRONG.get(g)
    if o is None:
        if not core.is_dead_ending(g):
            raise DomainError("strong outcomes require a dead-ending game")
        k = core.rank(g)
        if k == 0:
            o = Outcome.N
        else:
            attack = core.murder(k - 1)
            o = Outcome((_strong_side(g, attack, _mis_left, min),
                         _strong_side(g, core.conjugate(attack), _mis_right, max)))
        _STRONG[g] = o
    return o


def strong_left_outcome(g: GameId) -> Result:
    """Worst case for Left moving first in g plus any dead Left-end."""
    return strong_outcome(g).left


def strong_right_outcome(g: GameId) -> Result:
    """Best case for Right moving first in g plus any dead Right-end."""
    return strong_outcome(g).right


def base_outcome(g: GameId, u: Universe) -> Outcome:
    """The outcome a universe-relative comparison starts from."""
    if u is Universe.DICOT:
        return outcome(g)
    o = _STRONG.get(g)
    return strong_outcome(g) if o is None else o
