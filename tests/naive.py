"""Plain recursive re-implementation used as an independent oracle.

Games are (frozenset, frozenset) pairs of Left and Right option sets,
with no interning, no eager flags, and no shared state beyond functools
caching on the hashable representation.  Tests convert package games to
this form and check that both implementations agree.
"""

from functools import lru_cache

import misere


@lru_cache(maxsize=None)
def reflect(g):
    return (frozenset(reflect(x) for x in misere.left_options(g)),
            frozenset(reflect(x) for x in misere.right_options(g)))


@lru_cache(maxsize=None)
def rank(t):
    l, r = t
    return 1 + max((rank(x) for x in l | r), default=-1)


@lru_cache(maxsize=None)
def structural_key(t):
    """Rank, the number of Left options, the number of Right options, then
    the keys of the Left options and of the Right options, each sorted."""
    l, r = t
    return ((rank(t), len(l), len(r)) + tuple(sorted(map(structural_key, l)))
            + tuple(sorted(map(structural_key, r))))


@lru_cache(maxsize=None)
def conjugate(t):
    l, r = t
    return (frozenset(conjugate(x) for x in r),
            frozenset(conjugate(x) for x in l))


@lru_cache(maxsize=None)
def add(t, s):
    tl, tr = t
    sl, sr = s
    left = {add(x, s) for x in tl} | {add(t, y) for y in sl}
    right = {add(x, s) for x in tr} | {add(t, y) for y in sr}
    return (frozenset(left), frozenset(right))


@lru_cache(maxsize=None)
def left_result(t):
    l, _ = t
    if not l:
        return "L"
    return "L" if any(right_result(x) == "L" for x in l) else "R"


@lru_cache(maxsize=None)
def right_result(t):
    _, r = t
    if not r:
        return "R"
    return "R" if any(left_result(x) == "R" for x in r) else "L"


def outcome(t):
    return left_result(t) + right_result(t)


@lru_cache(maxsize=None)
def normal_left_result(t):
    l, _ = t
    if not l:
        return "R"
    return "L" if any(normal_right_result(x) == "L" for x in l) else "R"


@lru_cache(maxsize=None)
def normal_right_result(t):
    _, r = t
    if not r:
        return "L"
    return "R" if any(normal_left_result(x) == "R" for x in r) else "L"


@lru_cache(maxsize=None)
def is_left_end(t):
    return not t[0]


@lru_cache(maxsize=None)
def is_right_end(t):
    return not t[1]


@lru_cache(maxsize=None)
def is_dead_left_end(t):
    l, r = t
    return not l and all(is_dead_left_end(x) for x in r)


@lru_cache(maxsize=None)
def is_dead_right_end(t):
    l, r = t
    return not r and all(is_dead_right_end(x) for x in l)


@lru_cache(maxsize=None)
def is_dead_ending(t):
    l, r = t
    if not l:
        return is_dead_left_end(t)
    if not r:
        return is_dead_right_end(t)
    return all(is_dead_ending(x) for x in l | r)


@lru_cache(maxsize=None)
def is_dicot(t):
    l, r = t
    if not l and not r:
        return True
    if not l or not r:
        return False
    return all(is_dicot(x) for x in l | r)


@lru_cache(maxsize=None)
def is_impartial(t):
    l, r = t
    return l == r and all(is_impartial(x) for x in l)


@lru_cache(maxsize=None)
def murder(n):
    """M(0) is the empty game, M(n) = {|0, M(n-1)}."""
    zero = (frozenset(), frozenset())
    return zero if n == 0 else (frozenset(), frozenset({zero, murder(n - 1)}))


@lru_cache(maxsize=None)
def strong_left_result(t):
    """Left moving first in t, alone or beside the murder one rank below t,
    whichever is worse for Left; the sum is built explicitly."""
    if rank(t) == 0:
        return left_result(t)
    attacked = left_result(add(t, murder(rank(t) - 1)))
    return "R" if "R" in (left_result(t), attacked) else "L"


@lru_cache(maxsize=None)
def strong_right_result(t):
    """Right moving first in t, alone or beside the conjugated murder one
    rank below t, whichever is worse for Right."""
    if rank(t) == 0:
        return right_result(t)
    attacked = right_result(add(t, conjugate(murder(rank(t) - 1))))
    return "L" if "L" in (right_result(t), attacked) else "R"
