"""Results of a sum evaluated on the pair of summands, and the cached
dead-end sets the brute-force strong outcomes play against.

The pair evaluation must agree with the single-game results of the
interned sum, the brute-force oracle must no longer intern anything once
its dead ends exist, and the closed-form strong outcome nothing once its
murders exist.
"""

import subprocess
import sys

import pytest

import misere
from misere import EnumerationBudget, ResourceError, Universe, core, lab, outcomes

D = Universe.DICOT
E = Universe.DEAD_ENDING

# Each takes a sum as the pair (g, h) or as one interned game.
RESULTS = [outcomes.left_result, outcomes.right_result, outcomes.outcome,
           outcomes.normal_left_result, outcomes.normal_right_result]


@pytest.mark.parametrize("f", RESULTS, ids=[f.__name__ for f in RESULTS])
def test_pair_results_match_interned_sum(f):
    # Every ordered pair of the rank-2 dead-ending slice, which holds the
    # rank-2 dicot slice and 0; pairs of two non-empty dicots never reach
    # an end of the sum, pairs of dead ends do.
    dicots = misere.enumerate_games(EnumerationBudget(2, 4, D))
    dead_ending = misere.enumerate_games(EnumerationBudget(2, 4, E))
    assert misere.zero() in dicots and set(dicots) <= set(dead_ending)
    mismatches = [(g, h) for g in dead_ending for h in dead_ending
                  if f(g, h) != f(core.add(g, h))]
    assert mismatches == []


def test_pair_results_of_named_sums():
    one, star = misere.integer(1), misere.star()
    # misère: Right never has a move in 1 + 1, so Right wins either way
    assert outcomes.outcome(one, one) == misere.Outcome.R
    # * + * is N in misère play and P in normal play
    assert outcomes.outcome(star, star) == misere.Outcome.N
    assert outcomes.normal_left_result(star, star) == misere.Result.R
    assert outcomes.normal_right_result(star, star) == misere.Result.L


def test_brute_force_strong_outcomes_intern_nothing_once_ends_exist():
    games = misere.enumerate_games(EnumerationBudget(2, 4, E))
    for bound in range(1, 4):
        lab.enumerate_dead_left_ends(bound)
        lab.enumerate_dead_right_ends(bound)
    before = len(core._NODES)
    for g in games:
        lab.brute_strong_left(g)
        lab.brute_strong_right(g)
    assert len(core._NODES) == before


def test_strong_outcomes_intern_nothing_once_murders_exist():
    # A fresh interpreter, so that no earlier test has interned the sums.
    script = """
import misere
from misere import EnumerationBudget, Universe, core
games = misere.enumerate_games(EnumerationBudget(2, 4, Universe.DEAD_ENDING))
for n in range(3):
    core.conjugate(core.murder(n))
before = len(core._NODES)
for g in games:
    misere.strong_outcome(g)
print(len(games), len(core._NODES) - before)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["232", "0"]


@pytest.mark.parametrize("enumerate_ends", [lab.enumerate_dead_left_ends,
                                            lab.enumerate_dead_right_ends])
def test_dead_end_sets_are_cached_as_fresh_lists(enumerate_ends):
    first = enumerate_ends(3)
    second = enumerate_ends(3)
    assert first == second
    assert first is not second
    first.clear()
    assert enumerate_ends(3) == second
    with pytest.raises(ResourceError):
        enumerate_ends(3, node_cap=1)
