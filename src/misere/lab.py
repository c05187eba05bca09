"""Exhaustive and sampled empirical checks over small games.

Enumeration is level-by-level: games of rank r draw their options from
the already-accepted games of lower rank, subject to a per-side option
cap and a universe filter.  The candidate count is computed up front and
refused when it exceeds the node cap, because the number of forms grows
doubly exponentially with rank.  Everything here is deterministic: slices
come out in structural order and sampling uses an explicit seed.

The dead-end sets are enumerated once per budget and cached; each call
still returns a fresh list.  Checks that only ask who wins a sum, the
brute-force strong outcomes among them, evaluate it on the pair of
summands (``outcomes.sum_left_result`` and siblings) instead of interning
it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from typing import Iterable, Optional

from . import canonical, core, notation, ordering, outcomes
from .core import (DEFAULT_SEED, _DEFAULT_OPTIONS, _DEFAULT_RANK,
                   DomainError, GameId, ResourceError, Universe)
from .outcomes import Outcome, Result

MAX_ENUM_RANK = 3
DEFAULT_NODE_CAP = 500_000


class EnumerationBudget(core.Record):
    """A slice to enumerate: games of rank at most max_rank with at most
    max_options options per side, in universe (every game when None),
    refused when a level would examine more than node_cap forms."""

    __slots__ = ("max_rank", "max_options", "universe", "node_cap")
    max_rank: int
    max_options: int
    universe: Optional[Universe]
    node_cap: int
    _defaults = {"max_rank": _DEFAULT_RANK, "max_options": _DEFAULT_OPTIONS,
                 "universe": None, "node_cap": DEFAULT_NODE_CAP}

    def _check(self):
        for name in ("max_rank", "max_options", "node_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError("%s must be an int, got %r" % (name, value))
        if not isinstance(self.universe, (Universe, type(None))):
            raise TypeError("universe must be a Universe or None, got %r"
                            % (self.universe,))
        if self.max_rank < 0:
            raise ValueError("max_rank must be a natural number")
        if self.max_rank > MAX_ENUM_RANK:
            raise DomainError(
                "enumeration beyond rank %d is refused; the form count "
                "explodes doubly exponentially" % MAX_ENUM_RANK)
        if self.max_options < 1:
            raise ValueError("max_options must be at least 1")


def _sides(pool: list, cap: int) -> list:
    """All option sets of size <= cap over pool, in deterministic order."""
    out = []
    for k in range(min(cap, len(pool)) + 1):
        out.extend(itertools.combinations(pool, k))
    return out


def _side_count(n: int, cap: int) -> int:
    return sum(math.comb(n, k) for k in range(min(cap, n) + 1))


def enumerate_games(budget: EnumerationBudget) -> list:
    """Every game of the budget's universe within the budget, in
    structural order.  Every subposition of an enumerated game respects
    the option cap because options are drawn from accepted games only.
    """
    universe = budget.universe
    accepted = [core.zero()]
    for r in range(1, budget.max_rank + 1):
        pool = sorted(accepted, key=core.structural_key)
        low = [g for g in pool if core.rank(g) < r - 1]
        total = _side_count(len(pool), budget.max_options) ** 2
        stale = _side_count(len(low), budget.max_options) ** 2
        if total - stale > budget.node_cap:
            raise ResourceError(
                "level %d would examine %d candidate forms, above the "
                "node cap of %d" % (r, total - stale, budget.node_cap))
        sides = _sides(pool, budget.max_options)
        tops = [max((core.rank(g) for g in s), default=-1) for s in sides]
        for i, ls in enumerate(sides):
            for j, rs in enumerate(sides):
                if max(tops[i], tops[j]) != r - 1:
                    continue
                g = core.mk_game(ls, rs)
                if universe is None or universe.contains(g):
                    accepted.append(g)
    return sorted(accepted, key=core.structural_key)


@functools.lru_cache(maxsize=None)
def _dead_left_ends(max_rank: int, max_options: Optional[int],
                    node_cap: int) -> tuple:
    # lru_cache keeps no exception, so a refused budget is refused each call.
    if max_rank < 0:
        raise ValueError("max_rank must be a natural number")
    if max_options is not None and max_options < 0:
        raise ValueError("max_options must be a natural number")
    accepted = [core.zero()]
    for r in range(1, max_rank + 1):
        pool = sorted(accepted, key=core.structural_key)
        cap = len(pool) if max_options is None else max_options
        fresh = []
        count = _side_count(len(pool), cap)
        if count > node_cap:
            raise ResourceError("dead-end level %d would examine %d forms" % (r, count))
        for s in _sides(pool, cap):
            if s and max(core.rank(g) for g in s) == r - 1:
                fresh.append(core.mk_game((), s))
        accepted.extend(fresh)
    return tuple(sorted(accepted, key=core.structural_key))


@functools.lru_cache(maxsize=None)
def _dead_right_ends(max_rank: int, max_options: Optional[int],
                     node_cap: int) -> tuple:
    ends = _dead_left_ends(max_rank, max_options, node_cap)
    return tuple(sorted((core.conjugate(g) for g in ends), key=core.structural_key))


def enumerate_dead_left_ends(max_rank: int, max_options: Optional[int] = None,
                             node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Every dead Left-end of rank <= max_rank under the option cap."""
    return list(_dead_left_ends(max_rank, max_options, node_cap))


def enumerate_dead_right_ends(max_rank: int, max_options: Optional[int] = None,
                              node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Every dead Right-end of rank <= max_rank under the option cap."""
    return list(_dead_right_ends(max_rank, max_options, node_cap))


def enumerate_dead_ends(max_rank: int, max_options: Optional[int] = None) -> list:
    """Every dead end of rank <= max_rank under the option cap, in structural order."""
    both = set(enumerate_dead_left_ends(max_rank, max_options))
    both.update(enumerate_dead_right_ends(max_rank, max_options))
    return sorted(both, key=core.structural_key)


def brute_strong_left(g: GameId, max_end_rank: Optional[int] = None,
                      max_options: Optional[int] = None) -> Result:
    """Worst Left result over explicitly enumerated dead Left-ends.

    Independent of the closed-form computation in outcomes: this one
    plays out every attack up to the rank bound (rank of g plus one by
    default).
    """
    core.require_member(g, Universe.DEAD_ENDING)
    bound = core.rank(g) + 1 if max_end_rank is None else max_end_rank
    ends = enumerate_dead_left_ends(bound, max_options)
    return min(outcomes.sum_left_result(g, x) for x in ends)


def brute_strong_right(g: GameId, max_end_rank: Optional[int] = None,
                       max_options: Optional[int] = None) -> Result:
    core.require_member(g, Universe.DEAD_ENDING)
    bound = core.rank(g) + 1 if max_end_rank is None else max_end_rank
    ends = enumerate_dead_right_ends(bound, max_options)
    return max(outcomes.sum_right_result(g, x) for x in ends)


def sample_rank3_games(universe: Universe, max_options: int = 2,
                       count: int = 300, seed: int = DEFAULT_SEED) -> list:
    """A deterministic sample of rank-3 games under the option cap.

    The full rank-3 slice is far too large to enumerate (tens of
    millions of forms in the dead-ending universe even with two options
    per side), so scans over rank 3 draw from this sample instead.
    """
    _require_count("count", count)
    budget = EnumerationBudget(max_rank=2, max_options=max_options,
                               universe=universe)
    pool = enumerate_games(budget)
    rng = random.Random(seed)
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < count * 200:
        attempts += 1
        ls = rng.sample(pool, rng.randint(0, max_options))
        rs = rng.sample(pool, rng.randint(0, max_options))
        ranks = [core.rank(g) for g in ls + rs]
        if not ranks or max(ranks) != 2:
            continue
        g = core.mk_game(ls, rs)
        if universe.contains(g):
            seen.add(g)
    return sorted(seen, key=core.structural_key)


def _require_count(name: str, n: int) -> None:
    """Refuse a negative sample count or index bound, which would silently
    check nothing, or the same as 0."""
    if n < 0:
        raise ValueError("%s must be at least 0, got %d" % (name, n))


def _violation_lines(violations: tuple) -> list:
    """The first 20 violations of a text report, then how many more."""
    lines = ["  VIOLATION: %s" % v for v in violations[:20]]
    if len(violations) > 20:
        lines.append("  ... %d more" % (len(violations) - 20))
    return lines


class ScanReport(core.Record):
    """What a property scan checked; seed is None when it sampled nothing."""

    __slots__ = ("name", "universe", "checked", "violations", "counts", "seed")
    name: str
    universe: Optional[str]
    checked: int
    violations: tuple
    counts: dict
    seed: Optional[int]
    _defaults = {"counts": dict, "seed": None}

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "scan": self.name,
            "universe": self.universe,
            "checked": self.checked,
            "counts": dict(self.counts),
            "seed": self.seed,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = ["scan %s%s: %d checks, %d violations"
                 % (self.name,
                    " [%s]" % self.universe if self.universe else "",
                    self.checked, len(self.violations))]
        for k in sorted(self.counts):
            lines.append("  %s: %s" % (k, self.counts[k]))
        return "\n".join(lines + _violation_lines(self.violations))


class CensusReport(core.Record):
    """A census of one slice: its canonical classes, one representative
    each, and the pairs checked against pairwise equivalence."""

    __slots__ = ("universe", "total", "per_rank", "class_count",
                 "representatives", "outcome_distribution", "invertible",
                 "violations", "seed", "pairs_checked")
    universe: str
    total: int
    per_rank: dict
    class_count: int
    representatives: tuple
    outcome_distribution: dict
    invertible: tuple
    violations: tuple
    seed: int
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "universe": self.universe,
            "total": self.total,
            "per_rank": {str(k): v for k, v in sorted(self.per_rank.items())},
            "class_count": self.class_count,
            "representatives": [notation.to_interchange(g)
                                for g in self.representatives],
            "representative_names": [notation.print_game(g)
                                     for g in self.representatives],
            "outcome_distribution": dict(sorted(self.outcome_distribution.items())),
            "invertible": [notation.print_game(g) for g in self.invertible],
            "pairs_checked": self.pairs_checked,
            "seed": self.seed,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [
            "census [%s]: %d games, %d classes" % (
                self.universe, self.total, self.class_count),
            "  per rank: " + ", ".join(
                "%d: %d" % (k, v) for k, v in sorted(self.per_rank.items())),
            "  outcomes: " + ", ".join(
                "%s: %d" % (k, v)
                for k, v in sorted(self.outcome_distribution.items())),
            "  invertible: %d of %d" % (len(self.invertible), self.total),
            "  pairwise checks: %d, violations: %d" % (
                self.pairs_checked, len(self.violations)),
        ]
        return "\n".join(lines + _violation_lines(self.violations))


def census(budget: Optional[EnumerationBudget] = None, *,
           games: Optional[Iterable[GameId]] = None,
           universe: Optional[Universe] = None,
           seed: int = DEFAULT_SEED,
           sample_pairs: Optional[int] = 2000) -> CensusReport:
    """Bucket a slice by canonical form and cross-validate the buckets.

    Bucketing uses canonical ids, computed once per game; validation
    replays pairwise equivalence, on every pair when sample_pairs is None
    or at least the number of pairs, and on a seeded sample of
    sample_pairs pairs otherwise.  Any disagreement lands in the
    violations list.  ``canonical_form`` checks once that each game lies
    in the universe, so the pairs run the universe's bound comparison
    ``ordering._COMPARE[u][0]`` both ways without checking again.

    Invertibility is decided once per class, as c + conjugate(c)
    equivalent to 0 for the class's canonical form c.  By the conjugate
    property a game of the universe that has an inverse has its conjugate
    as that inverse, so g is invertible exactly when g + conjugate(g) is
    equivalent to 0.  Equivalence is a congruence for + that commutes with
    conjugation (the universe is closed under both), so every game of a
    class gets its class's answer.  The sum s = c + conjugate(c) is its
    own conjugate, and g >= h exactly when conjugate(h) >= conjugate(g),
    so 0 >= s is the same test as s >= 0, and s is equivalent to 0
    exactly when s >= 0.
    """
    if sample_pairs is not None:
        _require_count("sample_pairs", sample_pairs)
    if games is None:
        if budget is None or budget.universe is None:
            raise DomainError("census needs a universe-filtered budget or "
                              "an explicit game list")
        universe = budget.universe
        games = enumerate_games(budget)
    elif universe is None:
        raise DomainError("census over an explicit game list needs a universe")
    games = sorted(set(games), key=core.structural_key)
    u = universe
    canon = {g: canonical.canonical_form(g, u) for g in games}
    ge = ordering._COMPARE[u][0]
    buckets: dict = {}
    for g, c in canon.items():
        buckets.setdefault(c, []).append(g)
    n = len(games)
    pairs_checked = n * (n - 1) // 2
    if sample_pairs is None or pairs_checked <= sample_pairs:
        pairs = itertools.combinations(games, 2)
    else:
        # Two distinct indices i and j, with j drawn among the other n - 1.
        rng = random.Random(seed)
        draws = ((rng.randrange(n), rng.randrange(n - 1)) for _ in range(sample_pairs))
        pairs = ((games[i], games[j + (j >= i)]) for i, j in draws)
        pairs_checked = sample_pairs
    violations = []
    for a, b in pairs:
        same_bucket = canon[a] == canon[b]
        equiv = ge(a, b) and ge(b, a)
        if same_bucket != equiv:
            violations.append(
                "%s vs %s: canonical ids %s, equivalence %s" % (
                    notation.print_game(a), notation.print_game(b),
                    "agree" if same_bucket else "differ", equiv))
    invertible_classes = set()
    for c in buckets:
        s = core.add(c, core.conjugate(c))
        core.require_member(s, u)
        if ge(s, core.zero()):
            invertible_classes.add(c)
    invertible = tuple(g for g in games if canon[g] in invertible_classes)
    return CensusReport(
        universe=u.value,
        total=n,
        per_rank=dict(Counter(core.rank(g) for g in games)),
        class_count=len(buckets),
        representatives=tuple(sorted(buckets, key=core.structural_key)),
        outcome_distribution=dict(Counter(str(outcomes.outcome(g)) for g in games)),
        invertible=invertible,
        violations=tuple(violations),
        seed=seed,
        pairs_checked=pairs_checked,
    )


def scan_murder_theorems(max_index: int = 6, max_end_rank: int = 3) -> ScanReport:
    """Outcomes and ordering of the murder family, and Left-end coverage.

    Checks that the first murder is the only one Left does not win
    outright, that the family is a descending chain from index one on
    (but not from index zero), and that every non-zero dead Left-end
    sits above every murder of at least its rank.
    """
    _require_count("max_index", max_index)
    u = Universe.DEAD_ENDING
    violations = []
    checked = 0
    checked += 1
    if outcomes.outcome(core.murder(0)) != Outcome.N:
        violations.append("outcome(murder(0)) != N")
    for k in range(1, max_index + 1):
        checked += 1
        if outcomes.outcome(core.murder(k)) != Outcome.L:
            violations.append("outcome(murder(%d)) != L" % k)
    for n in range(1, max_index):
        checked += 1
        if not ordering.ge(core.murder(n), core.murder(n + 1), u):
            violations.append("murder(%d) >= murder(%d) fails" % (n, n + 1))
    checked += 1
    if ordering.ge(core.murder(0), core.murder(1), u):
        violations.append("murder(0) >= murder(1) unexpectedly holds")
    ends = [e for e in enumerate_dead_left_ends(max_end_rank) if e != core.zero()]
    for e in ends:
        k = core.rank(e)
        for n in range(k, k + 3):
            checked += 1
            if not ordering.ge(e, core.murder(n), u):
                violations.append(
                    "%s >= murder(%d) fails" % (notation.print_game(e), n))
    return ScanReport("murders", u.value, checked, tuple(violations),
                      {"max_index": max_index, "left_ends": len(ends)})


def scan_conjugate_property(universe: Universe, max_rank: int = _DEFAULT_RANK,
                            max_options: int = _DEFAULT_OPTIONS) -> ScanReport:
    """Whenever a sum of two slice games is equivalent to zero, each
    summand must be equivalent to the other's conjugate."""
    u = universe
    games = enumerate_games(EnumerationBudget(max_rank, max_options, u))
    zero = core.zero()
    violations = []
    checked = 0
    inverse_pairs = 0
    impartial_pairs = 0
    for i, g in enumerate(games):
        for h in games[i:]:
            if outcomes.sum_outcome(g, h) != Outcome.N:
                continue
            checked += 1
            if not ordering.equivalent(core.add(g, h), zero, u):
                continue
            inverse_pairs += 1
            if core.is_impartial(g) and core.is_impartial(h):
                impartial_pairs += 1
            for x, y in ((h, g), (g, h)):
                if not ordering.equivalent(x, core.conjugate(y), u):
                    violations.append(
                        "%s + %s ~ 0 but %s !~ conjugate(%s)" % (
                            notation.print_game(g), notation.print_game(h),
                            notation.print_game(x), notation.print_game(y)))
    return ScanReport("conjugate", u.value, checked, tuple(violations),
                      {"games": len(games), "inverse_pairs": inverse_pairs,
                       "impartial_inverse_pairs": impartial_pairs})


def scan_end_invertibility(max_rank: int = 3) -> ScanReport:
    """Every dead end cancels against its conjugate in the dead-ending
    universe: the canonical form of the sum is the empty game."""
    u = Universe.DEAD_ENDING
    violations = []
    ends = enumerate_dead_ends(max_rank)
    for e in ends:
        s = core.add(e, core.conjugate(e))
        if canonical.canonical_form(s, u) != core.zero():
            violations.append(
                "%s + conjugate does not cancel" % notation.print_game(e))
    return ScanReport("ends", u.value, len(ends), tuple(violations),
                      {"max_rank": max_rank})


def scan_cancellativity(universe: Universe, samples: int = 1000,
                        max_rank: int = _DEFAULT_RANK,
                        max_options: int = _DEFAULT_OPTIONS,
                        seed: int = DEFAULT_SEED) -> ScanReport:
    """Comparison survives adding the same summand to both sides.

    The compared pair is drawn from the slice's ge-true pairs so no
    sample is vacuous.  Summands that are dead ends are invertible, so
    for those the comparison must also survive cancelling them again:
    there the implication tightens to an equality of verdicts.
    """
    _require_count("samples", samples)
    u = universe
    games = enumerate_games(EnumerationBudget(max_rank, max_options, u))
    ends = [e for e in enumerate_dead_ends(max_rank) if u.contains(e)]
    rng = random.Random(seed)
    violations = []
    forward = 0
    converse = 0
    draws = 0
    while forward < samples and draws < samples * 200:
        draws += 1
        g = games[rng.randrange(len(games))]
        h = games[rng.randrange(len(games))]
        if not ordering.ge(g, h, u):
            continue
        j = games[rng.randrange(len(games))]
        forward += 1
        if not ordering.ge(core.add(g, j), core.add(h, j), u):
            violations.append(
                "%s >= %s but adding %s breaks it" % (
                    notation.print_game(g), notation.print_game(h),
                    notation.print_game(j)))
    draws = 0
    while ends and converse < samples and draws < samples * 200:
        draws += 1
        g = games[rng.randrange(len(games))]
        h = games[rng.randrange(len(games))]
        if ordering.ge(g, h, u):
            continue
        j = ends[rng.randrange(len(ends))]
        converse += 1
        if ordering.ge(core.add(g, j), core.add(h, j), u):
            violations.append(
                "%s >= %s fails yet holds after adding invertible %s" % (
                    notation.print_game(g), notation.print_game(h),
                    notation.print_game(j)))
    return ScanReport("cancellativity", u.value,
                      forward + converse, tuple(violations),
                      {"games": len(games), "forward": forward,
                       "invertible_converse": converse}, seed)


def scan_hand_tying(universe: Universe, samples: int = 1000,
                    max_rank: int = _DEFAULT_RANK,
                    max_options: int = _DEFAULT_OPTIONS,
                    seed: int = DEFAULT_SEED) -> ScanReport:
    """Granting Left one extra option never hurts a Left who can move.

    The widened game has to stay inside the universe, which restricts
    which options may join a Right-end in the dead-ending universe; such
    draws are redrawn and reported separately.
    """
    _require_count("samples", samples)
    u = universe
    games = enumerate_games(EnumerationBudget(max_rank, max_options, u))
    movers = [g for g in games if core.left_options(g)]
    rng = random.Random(seed)
    violations = []
    checked = 0
    skipped = 0
    attempts = 0
    while movers and checked < samples and attempts < samples * 20:
        attempts += 1
        g = movers[rng.randrange(len(movers))]
        a = games[rng.randrange(len(games))]
        widened = core.mk_game(core.left_options(g) + (a,),
                               core.right_options(g))
        if not u.contains(widened):
            skipped += 1
            continue
        checked += 1
        if not ordering.ge(widened, g, u):
            violations.append(
                "widening %s with %s is not an improvement" % (
                    notation.print_game(g), notation.print_game(a)))
    return ScanReport("hand-tying", u.value, checked, tuple(violations),
                      {"games": len(games), "movers": len(movers),
                       "skipped_outside_universe": skipped}, seed)


def scan_weak_avoidance(universe: Universe = Universe.DEAD_ENDING,
                        max_rank: int = _DEFAULT_RANK,
                        max_options: int = _DEFAULT_OPTIONS) -> ScanReport:
    """When an end-reversible Left option wins a sum whose other part
    still has Left moves, some move in that other part wins as well."""
    u = universe
    games = enumerate_games(EnumerationBudget(max_rank, max_options, u))
    xs = [x for x in games if core.left_options(x)]
    violations = []
    checked = 0
    applicable = 0
    carriers = 0
    for g in games:
        end_reversible = []
        for a in core.left_options(g):
            if any(core.is_left_end(b) and ordering.ge(g, b, u)
                   for b in core.right_options(a)):
                end_reversible.append(a)
        if not end_reversible:
            continue
        carriers += 1
        for a in end_reversible:
            for x in xs:
                checked += 1
                if outcomes.sum_right_result(a, x) != Result.L:
                    continue
                applicable += 1
                if not any(outcomes.sum_right_result(g, xl) == Result.L
                           for xl in core.left_options(x)):
                    violations.append(
                        "%s wins via %s against %s with no move in the "
                        "second component" % (
                            notation.print_game(g), notation.print_game(a),
                            notation.print_game(x)))
    return ScanReport("weak-avoidance", u.value, checked, tuple(violations),
                      {"games": len(games), "carriers": carriers,
                       "applicable": applicable})


def scan_normal_embedding(universe: Universe, max_rank: int = _DEFAULT_RANK,
                          max_options: int = _DEFAULT_OPTIONS,
                          sample_pairs: Optional[int] = None,
                          seed: int = DEFAULT_SEED) -> ScanReport:
    """Universe-relative comparison must imply normal-play comparison.

    Checks every ordered pair of the slice when sample_pairs is None, and
    the report's seed is then None; otherwise checks sample_pairs pairs
    drawn with the seed.
    """
    if sample_pairs is not None:
        _require_count("sample_pairs", sample_pairs)
    u = universe
    games = enumerate_games(EnumerationBudget(max_rank, max_options, u))
    violations = []
    checked = 0
    ge_true = 0
    if sample_pairs is None:
        pairs = ((g, h) for g in games for h in games)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(games), rng.choice(games))
                 for _ in range(sample_pairs))
    for g, h in pairs:
        checked += 1
        if ordering.ge(g, h, u):
            ge_true += 1
            if not ordering.ge_normal(g, h):
                violations.append(
                    "%s >= %s in %s but not under normal play" % (
                        notation.print_game(g), notation.print_game(h), u.value))
    return ScanReport("embedding", u.value, checked, tuple(violations),
                      {"games": len(games), "ge_true": ge_true},
                      None if sample_pairs is None else seed)
