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

Each rule is written once, with the side it acts on as a parameter: the
public step functions and the fixpoint loop call the same per-side
steps, and Right is Left with the options and the order swapped.

``canonical_form`` applies these bottom-up to a fixpoint.  Equivalent
games in the same universe reach the same interned id, so equivalence of
canonicalized games is id equality.
"""

from __future__ import annotations

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


_SIDES = ("L", "R")
_OTHER = {"L": "R", "R": "L"}
_NAME = {"L": "Left", "R": "Right"}


def _options(g: GameId, side: str) -> tuple:
    """The options of g for the player named by side."""
    return core.left_options(g) if side == "L" else core.right_options(g)


def _replace(g: GameId, side: str, opts) -> GameId:
    """g with the options of side replaced by opts."""
    if side == "L":
        return core.mk_game(opts, core.right_options(g))
    return core.mk_game(core.left_options(g), opts)


def _at_least(a: GameId, b: GameId, side: str, u: Universe) -> bool:
    """Is a at least as good as b for the player named by side?"""
    return ordering._ge(a, b, u) if side == "L" else ordering._ge(b, a, u)


def _reversions(g: GameId, side: str, u: Universe):
    """Each (A, B), in structural order, where the option A of g on side
    reverts through B: an opponent's option of A no better than g for A's owner."""
    for a in _options(g, side):
        for b in _options(a, _OTHER[side]):
            if _at_least(g, b, side, u):
                yield a, b


def _undominated(g: GameId, side: str, u: Universe) -> GameId:
    """g without the options on side that a remaining sibling dominates,
    or g itself when none is."""
    opts = _options(g, side)
    kept = []
    for a in opts:
        if any(_at_least(b, a, side, u) for b in kept):
            continue
        kept = [b for b in kept if not _at_least(a, b, side, u)]
        kept.append(a)
    return g if len(kept) == len(opts) else _replace(g, side, kept)


def remove_dominated(g: GameId, u: Universe) -> GameId:
    """Drop every option some distinct remaining sibling dominates.

    Mutually equivalent options collapse to the structurally least one.
    """
    core.require_member(g, u)
    return _undominated(_undominated(g, "L", u), "R", u)


def find_reversible(g: GameId, side: str, u: Universe) -> Optional[ReversibleOption]:
    """First reversible option of g on the given side, if any.

    The option is open when the reverting position still has moves for
    the owning player to splice in, and closed (end) when the reverting
    position is a dead end for that player.
    """
    core.require_member(g, u)
    if side not in _SIDES:
        raise ValueError("side must be 'L' or 'R'")
    for a, b in _reversions(g, side, u):
        return ReversibleOption(a, b, bool(_options(b, side)))
    return None


def _splice(g: GameId, a: GameId, b: GameId, side: str) -> GameId:
    """g with its option a on side replaced by the options of b on side."""
    rest = [x for x in _options(g, side) if x != a]
    return _replace(g, side, rest + list(_options(b, side)))


def _bypass_first_open(g: GameId, side: str, u: Universe) -> GameId:
    """g with its first open reversible option on side bypassed, or g."""
    for a, b in _reversions(g, side, u):
        if _options(b, side):
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
        if _options(b, side):
            return _splice(g, a, b, side)
    if reverting:
        raise DomainError("option reverts through an end; cannot bypass")
    raise DomainError("not an open reversible option of the game")


def _is_fundamental(g: GameId, a: GameId, side: str) -> bool:
    """is_fundamental_left, or its mirror, for the option a on side."""
    core.require_member(g, Universe.DEAD_ENDING)
    opts = _options(g, side)
    if a not in opts:
        raise ValueError("not a %s option of the game" % _NAME[side])
    if len(opts) == 1:
        return False
    strong = outcomes.strong_left_outcome if side == "L" \
        else outcomes.strong_right_outcome
    win = Result[side]
    return strong(g) == win and \
        strong(_replace(g, side, [x for x in opts if x != a])) != win


def is_fundamental_left(g: GameId, a: GameId) -> bool:
    """Is a the Left option whose removal costs Left the strong outcome?

    Removing the only Left option leaves a Left-end, which Left moving
    first always wins with any dead Left-end alongside, so a lone option
    is never fundamental.
    """
    return _is_fundamental(g, a, "L")


def is_fundamental_right(g: GameId, a: GameId) -> bool:
    """Mirror of is_fundamental_left for Right options."""
    return _is_fundamental(g, a, "R")


def _least_murder(g: GameId, side: str) -> tuple:
    """(n, m) for the least n such that g is at least as good for side's
    player as m, the murder of index n that is a dead end for them."""
    ends = [core.rank(b) for _, b in _reversions(g, side, Universe.DEAD_ENDING)
            if not _options(b, side)]
    if not ends and _options(g, side):
        raise DomainError("game has no %s option reverting through a %s-end"
                          % (_NAME[side], _NAME[side]))
    bound = min(ends) if ends else core.rank(g)
    for n in range(bound + 1):
        m = core.murder(n) if side == "L" else core.conjugate(core.murder(n))
        if _at_least(g, m, side, Universe.DEAD_ENDING):
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
    return _least_murder(g, "L")[0]


def _end_step(g: GameId, u: Universe) -> tuple:
    """The first end-reversibility rewrite of g in u as (rule, side, result),
    Left options first, or (None, None, g) when none applies.  The rules
    of each universe are described on reduce_end_reversible_*.
    """
    dicot = u is Universe.DICOT
    # options reverting through an end their owner is left in, each once
    hits = {side: list(dict.fromkeys(a for a, b in _reversions(g, side, u)
                                     if not _options(b, side)))
            for side in _SIDES}
    if all(hits[side] and len(_options(g, side)) == 1 for side in _SIDES):
        return (RULE_STAR_PAIR_TO_ZERO if dicot else RULE_END_PAIR_REMOVE,
                "LR", core.zero())
    for side in _SIDES:
        for a in hits[side]:
            rest = [x for x in _options(g, side) if x != a]
            if dicot:
                reply = outcomes.right_result if side == "L" \
                    else outcomes.left_result
                if any(reply(x) == Result[side] for x in rest):
                    return RULE_END_REMOVE, side, _replace(g, side, rest)
                target = core.star()
            else:
                removed = _replace(g, side, rest)
                if core.is_dead_ending(removed) and \
                        not _is_fundamental(g, a, side):
                    return RULE_END_REMOVE, side, removed
                target = _replace(core.zero(), _OTHER[side],
                                  (_least_murder(g, side)[1],))
            if a != target:
                return (RULE_SUBSTITUTE_STAR if dicot else RULE_SUBSTITUTE_MURDER,
                        side, _replace(g, side, rest + [target]))
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
                return rule, side, nxt
    return _end_step(g, u)


_CANON: dict = {}


def canonical_form(g: GameId, u: Universe) -> GameId:
    """The unique reduced game equivalent to g within u."""
    core.require_member(g, u)
    return _canonical(g, u, None)


def canonical_form_traced(g: GameId, u: Universe):
    """Canonical form plus the rewrite steps performed, bottom-up.

    Tracing recomputes the reduction instead of consulting the cache, so
    the step list is complete for this game even in a warm process.
    """
    core.require_member(g, u)
    trace: list = []
    return _canonical(g, u, trace), trace


def _canonical(g: GameId, u: Universe, trace) -> GameId:
    key = (g, u)
    if trace is None:
        hit = _CANON.get(key)
        if hit is not None:
            return hit
    left = [_canonical(x, u, trace) for x in core.left_options(g)]
    right = [_canonical(x, u, trace) for x in core.right_options(g)]
    cur = core.mk_game(left, right)
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
    _CANON[key] = cur
    _CANON[(cur, u)] = cur
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
