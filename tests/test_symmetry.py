"""Conjugation identities that let each rule be written for one side only.

Right is Left with the players swapped: every Right-side answer on g is
the Left-side answer on the conjugate of g, with the winner flipped where
the answer names one.  The single end-reversibility steps are left out
on purpose: they try Left before Right, so they are not symmetric.
"""

import pytest

import misere
from misere import EnumerationBudget, Result, Universe, outcomes

D = Universe.DICOT
E = Universe.DEAD_ENDING

SLICES = {
    "rank-3 dicot": EnumerationBudget(3, 2, D),
    "rank-2 dead-ending": EnumerationBudget(2, 4, E),
}


@pytest.fixture(scope="module", params=sorted(SLICES))
def games(request):
    budget = SLICES[request.param]
    return budget.universe, misere.enumerate_games(budget)


def flip(r):
    return Result.R if r == Result.L else Result.L


def test_results_mirror(games):
    _, gs = games
    for g in gs:
        c = misere.conjugate(g)
        assert misere.right_result(g) == flip(misere.left_result(c))
        assert misere.normal_right_result(g) == flip(misere.normal_left_result(c))


def test_strong_outcomes_mirror(games):
    _, gs = games
    for g in gs:
        c = misere.conjugate(g)
        assert misere.strong_right_outcome(g) == flip(misere.strong_left_outcome(c))


def test_fundamental_options_mirror(games):
    _, gs = games
    for g in gs:
        c = misere.conjugate(g)
        for a in misere.right_options(g):
            assert misere.is_fundamental_right(g, a) == \
                misere.is_fundamental_left(c, misere.conjugate(a))


def test_domination_mirror(games):
    u, gs = games
    for g in gs:
        assert misere.remove_dominated(misere.conjugate(g), u) == \
            misere.conjugate(misere.remove_dominated(g, u))


def test_reversible_options_mirror(games):
    u, gs = games
    for g in gs:
        c = misere.conjugate(g)
        assert (misere.find_reversible(g, "L", u) is None) == \
            (misere.find_reversible(c, "R", u) is None)


def test_canonical_forms_mirror(games):
    u, gs = games
    for g in gs:
        assert misere.canonical_form(misere.conjugate(g), u) == \
            misere.conjugate(misere.canonical_form(g, u))


PAIR_SLICES = {
    "rank-2 dicot": EnumerationBudget(2, 4, D),
    "rank-2 dead-ending": EnumerationBudget(2, 4, E),
}


@pytest.fixture(scope="module", params=sorted(PAIR_SLICES))
def pair_slice(request):
    budget = PAIR_SLICES[request.param]
    gs = misere.enumerate_games(budget)
    return budget.universe, gs, {g: misere.conjugate(g) for g in gs}


def test_ge_mirrors_under_conjugation(pair_slice):
    u, gs, conj = pair_slice
    for g in gs:
        for h in gs:
            assert misere.ge(g, h, u) == misere.ge(conj[h], conj[g], u)


def test_sum_results_mirror(pair_slice):
    _, gs, conj = pair_slice
    for g in gs:
        for h in gs:
            assert outcomes.right_result(g, h) == \
                flip(outcomes.left_result(conj[g], conj[h]))
            assert outcomes.normal_right_result(g, h) == \
                flip(outcomes.normal_left_result(conj[g], conj[h]))


def test_invertibility_needs_one_comparison(pair_slice):
    # c + conj(c) is its own conjugate, so by the ge mirror above it is
    # at least 0 exactly when 0 is at least it: one test decides c + conj(c) = 0.
    u, gs, _ = pair_slice
    zero = misere.zero()
    for c in {misere.canonical_form(g, u) for g in gs}:
        s = misere.add(c, misere.conjugate(c))
        assert misere.conjugate(s) == s
        assert misere.ge(s, zero, u) == misere.ge(zero, s, u)
