"""Interned game trees and the basic algebra on them.

A game is a pair of finite sets of games (Left options, Right options).
Every game constructed through this module is stored in a process-global
intern table and identified by an integer id; option sets are normalized
(duplicate-free, sorted by a fixed structural order) before interning, so
two ids are equal exactly when the trees are identical up to option-set
reordering.  Nodes are immutable once interned and the table only grows,
so ids may be shared freely for the lifetime of the process.

The structural order used for sorting option sets compares, in turn: the
rank (tree height), the number of Left options, the number of Right
options, and then the child keys themselves, lexicographically.  It is a
total order on interned games.
"""

from __future__ import annotations

import enum
import operator
import threading
from typing import Iterable, Optional

GameId = int

# Seed of the sampled scans (lab) when the caller gives none.  It lives
# here, with no dependencies, so the command line can read it without
# loading the enumeration lab.
DEFAULT_SEED = 1729


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ResourceError(RuntimeError):
    """A configured budget (node count, elaboration size) was exceeded."""


class _Node:
    __slots__ = (
        "left", "right", "rank", "key",
        "dicot", "dead_ending", "dead_left_end", "dead_right_end",
        "impartial",
    )

    def __init__(self, left, right, rank, key, dicot, dead_ending,
                 dead_left_end, dead_right_end, impartial):
        self.left = left
        self.right = right
        self.rank = rank
        self.key = key
        self.dicot = dicot
        self.dead_ending = dead_ending
        self.dead_left_end = dead_left_end
        self.dead_right_end = dead_right_end
        self.impartial = impartial


_LOCK = threading.RLock()
_NODES: list = []
_TABLE: dict = {}


def _node(g: GameId) -> _Node:
    return _NODES[g]


def _validate_ids(ids) -> None:
    n = len(_NODES)
    for i in ids:
        if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < n):
            raise ValueError("not an interned game id: %r" % (i,))


def _normalize(ids: Iterable[GameId]) -> tuple:
    ids = list(ids)
    _validate_ids(ids)
    return tuple(sorted(set(ids), key=lambda i: _NODES[i].key))


def mk_game(left: Iterable[GameId], right: Iterable[GameId]) -> GameId:
    """Intern the game with the given Left and Right option sets.

    Options may be given in any order and with duplicates; the stored
    form is canonical, so mk_game is idempotent on its own output.
    """
    lt = _normalize(left)
    rt = _normalize(right)
    found = _TABLE.get((lt, rt))
    if found is not None:
        return found
    with _LOCK:
        found = _TABLE.get((lt, rt))
        if found is not None:
            return found
        ln = [_NODES[i] for i in lt]
        rn = [_NODES[i] for i in rt]
        opts = ln + rn
        rank = 1 + max(c.rank for c in opts) if opts else 0
        dead_left = not lt and all(c.dead_left_end for c in rn)
        dead_right = not rt and all(c.dead_right_end for c in ln)
        if not lt or not rt:
            dead_ending = dead_left or dead_right
        else:
            dead_ending = all(c.dead_ending for c in opts)
        dicot = (not lt and not rt) or (
            bool(lt) and bool(rt) and all(c.dicot for c in opts))
        impartial = lt == rt and all(c.impartial for c in ln)
        key = (rank, len(lt), len(rt)) + tuple(c.key for c in opts)
        node = _Node(lt, rt, rank, key, dicot, dead_ending,
                     dead_left, dead_right, impartial)
        gid = len(_NODES)
        _NODES.append(node)
        _TABLE[(lt, rt)] = gid
        return gid


_ZERO = mk_game((), ())
_STAR = mk_game((_ZERO,), (_ZERO,))


def zero() -> GameId:
    """The empty game { | }."""
    return _ZERO


def star() -> GameId:
    """The game {0 | 0}."""
    return _STAR


_INTEGERS: dict = {0: _ZERO}


def integer(n: int) -> GameId:
    """The integer game: n Left moves for n > 0, |n| Right moves for n < 0."""
    n = operator.index(n)
    g = _INTEGERS.get(n)
    if g is not None:
        return g
    step = 1 if n > 0 else -1
    k = 0
    g = _ZERO
    while k != n:
        k += step
        cached = _INTEGERS.get(k)
        if cached is None:
            if k > 0:
                cached = mk_game((g,), ())
            else:
                cached = mk_game((), (g,))
            _INTEGERS[k] = cached
        g = cached
    return g


_MURDERS: list = [_ZERO]


def murder(n: int) -> GameId:
    """The n-th murder: the Left-end with Right options 0 and murder(n-1).

    murder(0) is the empty game; murder(1) coincides with integer(-1).
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("murder index must be a natural number")
    while len(_MURDERS) <= n:
        _MURDERS.append(mk_game((), (_ZERO, _MURDERS[-1])))
    return _MURDERS[n]


def left_options(g: GameId) -> tuple:
    return _node(g).left


def right_options(g: GameId) -> tuple:
    return _node(g).right


def rank(g: GameId) -> int:
    """Height of the game tree; 0 exactly for the empty game."""
    return _node(g).rank


_CONJ: dict = {}


def conjugate(g: GameId) -> GameId:
    """Swap the roles of the players throughout the tree."""
    r = _CONJ.get(g)
    if r is None:
        node = _node(g)
        r = mk_game(tuple(conjugate(x) for x in node.right),
                    tuple(conjugate(x) for x in node.left))
        _CONJ.setdefault(g, r)
        _CONJ.setdefault(r, g)
    return r


_SUMS: dict = {}


def add(g: GameId, h: GameId) -> GameId:
    """Disjunctive sum: play in exactly one component per move."""
    if g == _ZERO:
        return h
    if h == _ZERO:
        return g
    pair = (g, h) if g <= h else (h, g)
    r = _SUMS.get(pair)
    if r is None:
        gn = _node(g)
        hn = _node(h)
        left = [add(x, h) for x in gn.left] + [add(g, y) for y in hn.left]
        right = [add(x, h) for x in gn.right] + [add(g, y) for y in hn.right]
        r = _SUMS.setdefault(pair, mk_game(left, right))
    return r


def is_left_end(g: GameId) -> bool:
    """No Left options."""
    return not _node(g).left


def is_right_end(g: GameId) -> bool:
    """No Right options."""
    return not _node(g).right


def is_dead_left_end(g: GameId) -> bool:
    """Every follower (the game included) is a Left-end."""
    return _node(g).dead_left_end


def is_dead_right_end(g: GameId) -> bool:
    """Every follower (the game included) is a Right-end."""
    return _node(g).dead_right_end


def is_dicot(g: GameId) -> bool:
    """Every subposition has either both sides empty or both non-empty."""
    return _node(g).dicot


def is_dead_ending(g: GameId) -> bool:
    """Every end reachable from the game (itself included) is dead."""
    return _node(g).dead_ending


def is_impartial(g: GameId) -> bool:
    """Both players have the same options everywhere in the tree."""
    return _node(g).impartial


def structural_key(g: GameId):
    """Sort key realizing the global structural order on interned games."""
    return _node(g).key


def followers(g: GameId) -> list:
    """Every subposition reachable from g, g included, in structural order."""
    seen = set()
    stack = [g]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        node = _node(x)
        stack.extend(node.left)
        stack.extend(node.right)
    return sorted(seen, key=structural_key)


class Universe(enum.Enum):
    """A parentally closed family of games used to relativize comparisons."""

    DICOT = "dicot"
    DEAD_ENDING = "dead-ending"

    def contains(self, g: GameId) -> bool:
        if self is Universe.DICOT:
            return is_dicot(g)
        return is_dead_ending(g)


def require_member(g: GameId, u: Universe) -> None:
    if not u.contains(g):
        from . import notation
        raise DomainError("game %s is not %s"
                          % (notation.print_game(g, "brace"), u.value))
