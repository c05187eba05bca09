"""Reduction to the unique simplest form of an equivalence class.

Three families of rewrites preserve equivalence within a universe:

* domination: an option at least as good as a sibling (for the owning
  player) makes the sibling redundant;
* open reversibility: an option the opponent can profitably revert
  through is bypassed, splicing in the reverting position's options;
* end reversibility: an option the opponent can revert through a dead
  end cannot be bypassed (there is nothing to splice in) and is instead
  removed, replaced by a star, or replaced by a one-move end, depending
  on the universe.

Each rule is written once and takes the side it acts on, ``_LEFT`` or
``_RIGHT``: a record, bound once at import, of all that differs between
the players, from their options to their murder and their at_least per
universe.  The public step functions and the fixpoint loop call the same
per-side steps, and Right is Left with each field swapped.

``canonical_form`` applies these bottom-up to a fixpoint.  Equivalent
games in the same universe reach the same interned id, so equivalence of
canonicalized games is id equality.  ``_CANON`` memoises the form of
each game and of each game rebuilt on its canonical options, which many
games share, in one row per universe: ``_CANON[u][g]``.  The public
calls fetch the row, made on first use, and the recursion reads it by
id alone, so no (g, u) key is built or hashed; ``canonical_form_traced``
reads no row.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from . import core, ordering, outcomes
from .core import DomainError, GameId, ResourceError, Universe
from .outcomes import Result

RULE_DOMINATION = "domination"
RULE_OPEN_REVERSIBLE = "open-reversible"
RULE_END_REMOVE = "end-remove"
RULE_END_PAIR_REMOVE = "end-pair-remove"
RULE_SUBSTITUTE_STAR = "substitute-star"
RULE_STAR_PAIR_TO_ZERO = "star-pair-to-zero"
RULE_SUBSTITUTE_MURDER = "substitute-murder"


class ReductionStep(core.Record):
    """One rewrite: rule (a RULE_* name) turned before into after, on side
    "L" or "R"."""

    __slots__ = ("rule", "side", "before", "after")
    rule: str
    side: str
    before: GameId
    after: GameId


class ReversibleOption(core.Record):
    """An option A the opponent can revert through B at no loss.

    option is A, via is B, and open says whether B still has moves for
    A's owner to splice in (open reversible) or none (end reversible).
    """

    __slots__ = ("option", "via", "open")
    option: GameId
    via: GameId
    open: bool

    @property
    def end(self) -> bool:
        return not self.open


_LEFT = SimpleNamespace(
    name="L", title="Left", options=core.left_options,
    replace=lambda g, opts: core.mk_game(opts, core.right_options(g)),
    wins=Result.L, strong=outcomes.strong_left_outcome,
    reply=outcomes.right_result, murder=core.murder,
    at_least={u: ge for u, (ge, le) in ordering._COMPARE.items()})
_RIGHT = SimpleNamespace(
    name="R", title="Right", options=core.right_options, other=_LEFT,
    replace=lambda g, opts: core.mk_game(core.left_options(g), opts),
    wins=Result.R, strong=outcomes.strong_right_outcome,
    reply=outcomes.left_result, murder=lambda n: core.conjugate(core.murder(n)),
    at_least={u: le for u, (ge, le) in ordering._COMPARE.items()})
_LEFT.other = _RIGHT
_SIDES = (_LEFT, _RIGHT)


def _reversions(g: GameId, side: SimpleNamespace, u: Universe):
    """Each (A, B), in structural order, where the option A of g on side
    reverts through B: an opponent's option of A no better than g for A's owner."""
    at_least = side.at_least[u]
    for a in side.options(g):
        for b in side.other.options(a):
            if at_least(g, b):
                yield a, b


def _undominated(g: GameId, side: SimpleNamespace, u: Universe) -> GameId:
    """g without the options on side that a remaining sibling dominates,
    or g itself when none is."""
    at_least = side.at_least[u]
    opts = side.options(g)
    kept = []
    for a in opts:
        # A loop rather than any(): the first dominating sibling settles
        # it, and no generator frame is added per option scanned.
        for b in kept:
            if at_least(b, a):
                break
        else:
            kept = [b for b in kept if not at_least(a, b)]
            kept.append(a)
    return g if len(kept) == len(opts) else side.replace(g, kept)


def remove_dominated(g: GameId, u: Universe) -> GameId:
    """Drop every option some distinct remaining sibling dominates.

    Mutually equivalent options collapse to the structurally least one.
    """
    core.require_member(g, u)
    return _undominated(_undominated(g, _LEFT, u), _RIGHT, u)


def find_reversible(g: GameId, side: str, u: Universe) -> Optional[ReversibleOption]:
    """First reversible option of g on the given side, if any.

    The option is open when the reverting position still has moves for
    the owning player to splice in, and closed (end) when the reverting
    position is a dead end for that player.
    """
    core.require_member(g, u)
    player = next((s for s in _SIDES if s.name == side), None)
    if player is None:
        raise ValueError("side must be 'L' or 'R'")
    for a, b in _reversions(g, player, u):
        return ReversibleOption(a, b, bool(player.options(b)))
    return None


def _splice(g: GameId, a: GameId, b: GameId, side: SimpleNamespace) -> GameId:
    """g with its option a on side replaced by the options of b on side."""
    rest = [x for x in side.options(g) if x != a]
    return side.replace(g, rest + list(side.options(b)))


def _bypass_first_open(g: GameId, side: SimpleNamespace, u: Universe) -> GameId:
    """g with its first open reversible option on side bypassed, or g."""
    for a, b in _reversions(g, side, u):
        if side.options(b):
            return _splice(g, a, b, side)
    return g


def bypass_open_reversible(g: GameId, a: GameId, b: GameId, u: Universe) -> GameId:
    """Replace the reversible option a by the relevant options of b.

    An option can sit on both sides of a game, so the pair is matched
    against both readings and the one that is genuinely open wins.
    """
    core.require_member(g, u)
    reverting = [side for side in _SIDES if (a, b) in _reversions(g, side, u)]
    for side in reverting:
        if side.options(b):
            return _splice(g, a, b, side)
    if reverting:
        raise DomainError("option reverts through an end; cannot bypass")
    raise DomainError("not an open reversible option of the game")


def _checked_fundamental(g: GameId, a: GameId, side: SimpleNamespace) -> bool:
    """_is_fundamental, once g is dead-ending and a is an option on side."""
    core.require_member(g, Universe.DEAD_ENDING)
    if a not in side.options(g):
        raise ValueError("not a %s option of the game" % side.title)
    return _is_fundamental(g, a, side)


def _is_fundamental(g: GameId, a: GameId, side: SimpleNamespace) -> bool:
    """is_fundamental_left, or its mirror, for an option a of dead-ending g."""
    opts = side.options(g)
    return len(opts) > 1 and side.strong(g) == side.wins and \
        side.strong(side.replace(g, [x for x in opts if x != a])) != side.wins


def is_fundamental_left(g: GameId, a: GameId) -> bool:
    """Is a the Left option whose removal costs Left the strong outcome?

    Removing the only Left option leaves a Left-end, which Left moving
    first always wins with any dead Left-end alongside, so a lone option
    is never fundamental.
    """
    return _checked_fundamental(g, a, _LEFT)


def is_fundamental_right(g: GameId, a: GameId) -> bool:
    """Mirror of is_fundamental_left for Right options."""
    return _checked_fundamental(g, a, _RIGHT)


def _least_murder(g: GameId, side: SimpleNamespace) -> tuple:
    """(n, m) for the least n such that g is at least as good for side's
    player as m, the murder of index n that is a dead end for them."""
    ends = [core.rank(b) for _, b in _reversions(g, side, Universe.DEAD_ENDING)
            if not side.options(b)]
    if not ends and side.options(g):
        raise DomainError("game has no %s option reverting through a %s-end"
                          % (side.title, side.title))
    bound = min(ends) if ends else core.rank(g)
    for n in range(bound + 1):
        m = side.murder(n)
        if side.at_least[Universe.DEAD_ENDING](g, m):
            return n, m
    raise RuntimeError("murder index scan exceeded its bound; every dead "
                       "end compares against a murder of index <= rank")


def minimal_murder_index(g: GameId) -> int:
    """Least n with g >= murder(n) in the dead-ending universe.

    Defined whenever g is a Left-end or has a Left option reverting
    through a dead Left-end; in either case the index is bounded by the
    rank of that end.
    """
    core.require_member(g, Universe.DEAD_ENDING)
    return _least_murder(g, _LEFT)[0]


def _end_step(g: GameId, u: Universe) -> tuple:
    """The first end-reversibility rewrite of g in u as (rule, side, result),
    Left options first, or (None, None, g) when none applies.  The rules
    of each universe are described on reduce_end_reversible_*.
    """
    dicot = u is Universe.DICOT
    # options reverting through an end their owner is left in, each once
    hits = [(side, list(dict.fromkeys(a for a, b in _reversions(g, side, u)
                                      if not side.options(b))))
            for side in _SIDES]
    if all(hit and len(side.options(g)) == 1 for side, hit in hits):
        return (RULE_STAR_PAIR_TO_ZERO if dicot else RULE_END_PAIR_REMOVE,
                "LR", core.zero())
    for side, hit in hits:
        for a in hit:
            rest = [x for x in side.options(g) if x != a]
            if dicot:
                if any(side.reply(x) == side.wins for x in rest):
                    return RULE_END_REMOVE, side.name, side.replace(g, rest)
                target = core.star()
            else:
                removed = side.replace(g, rest)
                if core.is_dead_ending(removed) and \
                        not _is_fundamental(g, a, side):
                    return RULE_END_REMOVE, side.name, removed
                target = side.other.replace(core.zero(), (_least_murder(g, side)[1],))
            if a != target:
                return (RULE_SUBSTITUTE_STAR if dicot else RULE_SUBSTITUTE_MURDER,
                        side.name, side.replace(g, rest + [target]))
    return None, None, g


def reduce_end_reversible_dicot(g: GameId) -> GameId:
    """One end-reversibility rewrite in the dicot universe, or g itself.

    A pair of lone reversible options collapses the game to zero.
    Otherwise a reversible option is removed when its owner still has a
    winning move among the siblings, and replaced by star when it was
    the only winning move.
    """
    core.require_member(g, Universe.DICOT)
    return _end_step(g, Universe.DICOT)[2]


def reduce_end_reversible_dead_ending(g: GameId) -> GameId:
    """One end-reversibility rewrite in the dead-ending universe.

    In priority order: a pair of lone reversible options collapses to
    zero in a single step; a non-fundamental reversible option is
    removed when the result stays dead-ending; otherwise the option is
    replaced by the one-move end over the least murder the game covers.
    """
    core.require_member(g, Universe.DEAD_ENDING)
    return _end_step(g, Universe.DEAD_ENDING)[2]


_PASS_CAP = 1000


def _reduce_once(g: GameId, u: Universe) -> tuple:
    """The first applicable top-level rewrite as (rule, side, result).

    Domination goes first, then open reversibility, Left before Right in
    each, then the end rules; the result is g itself when none applies.
    """
    for rule, step in ((RULE_DOMINATION, _undominated),
                       (RULE_OPEN_REVERSIBLE, _bypass_first_open)):
        for side in _SIDES:
            nxt = step(g, side, u)
            if nxt != g:
                return rule, side.name, nxt
    return _end_step(g, u)


_CANON: dict = {}


def canonical_form(g: GameId, u: Universe) -> GameId:
    """The unique reduced game equivalent to g within u."""
    core.require_member(g, u)
    return _canonical(g, u, _CANON.setdefault(u, {}), None)


def canonical_form_traced(g: GameId, u: Universe):
    """Canonical form plus the rewrite steps performed, bottom-up.

    Tracing recomputes the reduction instead of consulting the cache, so
    the step list is complete for this game even in a warm process.
    """
    core.require_member(g, u)
    trace: list = []
    return _canonical(g, u, _CANON.setdefault(u, {}), trace), trace


def _canonical(g: GameId, u: Universe, memo: dict, trace) -> GameId:
    """The canonical form of g in u, through memo, the row of _CANON for u;
    with a trace list the row is written but not read."""
    if trace is None:
        hit = memo.get(g)
        if hit is not None:
            return hit
    left = [_canonical(x, u, memo, trace) for x in core.left_options(g)]
    right = [_canonical(x, u, memo, trace) for x in core.right_options(g)]
    cur = core.mk_game(left, right)
    if trace is None:
        # Games that differ only below canonical children meet here.
        hit = memo.get(cur)
        if hit is not None:
            memo[g] = hit
            return hit
    for _ in range(_PASS_CAP):
        rule, side, nxt = _reduce_once(cur, u)
        if nxt == cur:
            break
        if trace is not None:
            trace.append(ReductionStep(rule, side, cur, nxt))
        cur = nxt
    else:
        raise ResourceError("reduction did not reach a fixpoint within %d passes"
                            % _PASS_CAP)
    memo[g] = cur
    memo[cur] = cur
    return cur


def step_to_doc(step: ReductionStep) -> dict:
    """Serialize a reduction step with games in interchange form."""
    from . import notation

    return {
        "rule": step.rule,
        "side": step.side,
        "before": notation.to_interchange(step.before),
        "after": notation.to_interchange(step.after),
    }
