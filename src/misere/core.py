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

The table is kept as parallel columns indexed by id: ``_NODES[g]`` is
the pair (Left options, Right options), the same tuple object that keys
``_TABLE``; ``_KEY[g]`` is the structural key, whose first entry is the
rank, so no column repeats it; ``_FLAGS[g]`` packs the membership
predicates into one small int, and each ``Universe`` member carries the
bit that marks its games.
``mk_game`` appends ``_NODES`` after the other columns and writes
``_TABLE`` last, so an id that ``_validate_ids`` admits (it is bounded by
``len(_NODES)``) or that a lookup returns always has all its columns.

The memo of a function of two games is a table of rows, ``memo[a][b]``,
not a dict keyed by the pair (a, b): a lookup indexes by ids the caller
already holds and allocates no key.  ``_SUMS`` is kept this way here, as
are the comparison and canonical-form memos of ``ordering`` and
``canonical`` (but not the result memos of ``outcomes``).
``misere.stats()`` counts one entry per pair.
"""

from __future__ import annotations

import enum
import functools
import operator
import threading
from typing import Iterable, Optional

GameId = int

# Seed of the sampled scans (lab) when the caller gives none, and the
# default enumeration budget (max_rank, max_options) of the scans, the
# distinguisher search and the command line.  They live here, with no
# dependencies, so the command line can read them without loading the
# enumeration lab.
DEFAULT_SEED = 1729
_DEFAULT_RANK = 2
_DEFAULT_OPTIONS = 4


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ResourceError(RuntimeError):
    """A configured budget (node count, elaboration size) was exceeded."""


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields, in order, as ``__slots__`` (annotating
    each for type checkers) and their defaults in ``_defaults``; a callable default is called once per
    record, so each gets a fresh value.  Fields are given positionally or
    by keyword, and ``_check`` may refuse the values.  The repr is
    ``Name(field=value, ...)``, records of the same class are equal when
    their fields are, the hash is that of the field tuple, and fields
    cannot be assigned or deleted.  It stands in for a frozen dataclass,
    because importing dataclasses (and inspect with it) would lengthen
    the start-up of every command-line query.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError("%s takes %d arguments, got %d"
                            % (cls.__name__, len(names), len(args)))
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError("%s got two values for %r" % (cls.__name__, name))
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
                if callable(value):
                    value = value()
            else:
                raise TypeError("%s is missing %r" % (cls.__name__, name))
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError("%s has no field %r" % (cls.__name__, next(iter(kwargs))))
        self._check()

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, since the slots
        # cannot be set one by one.
        return type(self), self._values()


_LOCK = threading.RLock()
_NODES: list = []
_KEY: list = []
_FLAGS: list = []
_TABLE: dict = {}

# The bits of _FLAGS[g].
_DICOT, _DEAD_ENDING, _DEAD_LEFT_END, _DEAD_RIGHT_END, _IMPARTIAL = 1, 2, 4, 8, 16
_ALL = _DICOT | _DEAD_ENDING | _DEAD_LEFT_END | _DEAD_RIGHT_END | _IMPARTIAL


def _validate_ids(ids) -> None:
    n = len(_NODES)
    for i in ids:
        if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < n):
            raise ValueError("not an interned game id: %r" % (i,))


def _normalize(ids: Iterable[GameId]) -> tuple:
    ids = list(ids)
    _validate_ids(ids)
    return tuple(sorted(set(ids), key=_KEY.__getitem__))


def mk_game(left: Iterable[GameId], right: Iterable[GameId]) -> GameId:
    """Intern the game with the given Left and Right option sets.

    Options may be given in any order and with duplicates; the stored
    form is canonical, so mk_game is idempotent on its own output.
    """
    lt = _normalize(left)
    rt = _normalize(right)
    pair = (lt, rt)
    found = _TABLE.get(pair)
    if found is not None:
        return found
    with _LOCK:
        found = _TABLE.get(pair)
        if found is not None:
            return found
        # The flags that every Left option, and every Right option, carries.
        fl = functools.reduce(operator.and_, map(_FLAGS.__getitem__, lt), _ALL)
        fr = functools.reduce(operator.and_, map(_FLAGS.__getitem__, rt), _ALL)
        if lt and rt:  # membership is inherited from the options
            flags = fl & fr & (_DICOT | _DEAD_ENDING)
            if lt == rt:
                flags |= fl & _IMPARTIAL
        elif rt:  # a Left-end, dead when its Right options are
            flags = _DEAD_LEFT_END | _DEAD_ENDING if fr & _DEAD_LEFT_END else 0
        elif lt:  # the mirror image
            flags = _DEAD_RIGHT_END | _DEAD_ENDING if fl & _DEAD_RIGHT_END else 0
        else:  # the empty game
            flags = _ALL
        keys = tuple(map(_KEY.__getitem__, lt + rt))
        rank = 1 + max(k[0] for k in keys) if keys else 0
        gid = len(_NODES)
        _KEY.append((rank, len(lt), len(rt)) + keys)
        _FLAGS.append(flags)
        _NODES.append(pair)
        _TABLE[pair] = gid
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
    return _NODES[g][0]


def right_options(g: GameId) -> tuple:
    return _NODES[g][1]


def rank(g: GameId) -> int:
    """Height of the game tree; 0 exactly for the empty game."""
    return _KEY[g][0]


_CONJ: dict = {}


def conjugate(g: GameId) -> GameId:
    """Swap the roles of the players throughout the tree."""
    # Before the memo: True hashes as 1 and would find its entry.
    _validate_ids((g,))
    r = _CONJ.get(g)
    if r is None:
        lt, rt = _NODES[g]
        r = mk_game(tuple(conjugate(x) for x in rt),
                    tuple(conjugate(x) for x in lt))
        _CONJ.setdefault(g, r)
        _CONJ.setdefault(r, g)
    return r


_SUMS: dict = {}


def add(g: GameId, h: GameId) -> GameId:
    """Disjunctive sum: play in exactly one component per move.

    Sums are memoised in rows, ``_SUMS[smaller id][larger id]``, so a
    lookup indexes by the two ids and builds no pair key.
    """
    if g == _ZERO:
        return h
    if h == _ZERO:
        return g
    a, b = (g, h) if g <= h else (h, g)
    row = _SUMS.get(a)
    if row is None:
        row = _SUMS.setdefault(a, {})
    r = row.get(b)
    if r is None:
        gl, gr = _NODES[g]
        hl, hr = _NODES[h]
        left = [add(x, h) for x in gl] + [add(g, y) for y in hl]
        right = [add(x, h) for x in gr] + [add(g, y) for y in hr]
        r = row.setdefault(b, mk_game(left, right))
    return r


def is_left_end(g: GameId) -> bool:
    """No Left options."""
    return not _NODES[g][0]


def is_right_end(g: GameId) -> bool:
    """No Right options."""
    return not _NODES[g][1]


def is_dead_left_end(g: GameId) -> bool:
    """Every follower (the game included) is a Left-end."""
    return _FLAGS[g] & _DEAD_LEFT_END != 0


def is_dead_right_end(g: GameId) -> bool:
    """Every follower (the game included) is a Right-end."""
    return _FLAGS[g] & _DEAD_RIGHT_END != 0


def is_dicot(g: GameId) -> bool:
    """Every subposition has either both sides empty or both non-empty."""
    return _FLAGS[g] & _DICOT != 0


def is_dead_ending(g: GameId) -> bool:
    """Every end reachable from the game (itself included) is dead."""
    return _FLAGS[g] & _DEAD_ENDING != 0


def is_impartial(g: GameId) -> bool:
    """Both players have the same options everywhere in the tree."""
    return _FLAGS[g] & _IMPARTIAL != 0


def structural_key(g: GameId):
    """Sort key realizing the global structural order on interned games."""
    return _KEY[g]


def followers(g: GameId) -> list:
    """Every subposition reachable from g, g included, in structural order."""
    seen = set()
    stack = [g]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        lt, rt = _NODES[x]
        stack.extend(lt)
        stack.extend(rt)
    return sorted(seen, key=structural_key)


class Universe(enum.Enum):
    """A parentally closed family of games used to relativize comparisons.

    Each member's value is its name on the command line, and its ``bit``
    is the ``_FLAGS`` bit that marks the games it contains, so a
    membership test is one index and one AND.
    """

    DICOT = "dicot", _DICOT
    DEAD_ENDING = "dead-ending", _DEAD_ENDING

    def __new__(cls, value: str, bit: int):
        member = object.__new__(cls)
        member._value_ = value
        member.bit = bit
        return member

    def contains(self, g: GameId) -> bool:
        return _FLAGS[g] & self.bit != 0


def require_member(g: GameId, u: Universe) -> None:
    """ValueError unless g is an interned game id, DomainError unless it
    lies in u."""
    _validate_ids((g,))
    if not _FLAGS[g] & u.bit:
        raise DomainError("%s is not %s" % (_describe(g), u.value))


# A domain error spells out its game in brace form up to this many characters.
_DESCRIBE_LIMIT = 200


def _describe(g: GameId) -> str:
    """"game {...}" in brace form, or, when that form would be longer than
    _DESCRIBE_LIMIT, g's rank and number of distinct subpositions.  The
    length is counted on ints over the DAG, so a long form is never built."""
    subs = followers(g)
    length = {}
    for x in subs:  # children first: structural order begins with the rank
        lt, rt = _NODES[x]
        # "{", "|" and "}", the options, and a "," between two on a side.
        length[x] = (3 + max(len(lt) - 1, 0) + max(len(rt) - 1, 0)
                     + sum(map(length.__getitem__, lt))
                     + sum(map(length.__getitem__, rt)))
    if length[g] <= _DESCRIBE_LIMIT:
        from . import notation
        return "game " + notation.print_game(g, "brace")
    return "a game of rank %d with %d distinct subpositions" % (_KEY[g][0], len(subs))
