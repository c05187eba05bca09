import pytest
from hypothesis import given

import misere
from misere import DomainError, Outcome, Result, Universe

import naive
from conftest import games, dead_ending_games

E = Universe.DEAD_ENDING


def test_result_ordering():
    assert Result.L > Result.R


def test_outcome_partition():
    assert Outcome.L.left == Result.L and Outcome.L.right == Result.L
    assert Outcome.N.left == Result.L and Outcome.N.right == Result.R
    assert Outcome.P.left == Result.R and Outcome.P.right == Result.L
    assert Outcome.R.left == Result.R and Outcome.R.right == Result.R


def test_outcome_ge_is_componentwise():
    assert misere.outcome_ge(Outcome.L, Outcome.N)
    assert misere.outcome_ge(Outcome.L, Outcome.P)
    assert misere.outcome_ge(Outcome.N, Outcome.R)
    assert misere.outcome_ge(Outcome.P, Outcome.R)
    # the two mixed classes are incomparable
    assert not misere.outcome_ge(Outcome.N, Outcome.P)
    assert not misere.outcome_ge(Outcome.P, Outcome.N)
    for a in Outcome:
        assert misere.outcome_ge(a, a)


def test_misere_outcomes_of_named_games():
    assert misere.outcome(misere.zero()) == Outcome.N
    assert misere.outcome(misere.star()) == Outcome.P
    assert misere.outcome(misere.integer(1)) == Outcome.R
    assert misere.outcome(misere.integer(-1)) == Outcome.L
    assert misere.outcome(misere.integer(3)) == Outcome.R


def test_murder_outcomes():
    assert misere.outcome(misere.murder(0)) == Outcome.N
    for k in range(1, 7):
        assert misere.outcome(misere.murder(k)) == Outcome.L


def test_normal_outcomes_differ_from_misere():
    assert misere.normal_outcome(misere.zero()) == Outcome.P
    assert misere.normal_outcome(misere.star()) == Outcome.N
    assert misere.normal_outcome(misere.integer(1)) == Outcome.L
    assert misere.normal_outcome(misere.integer(-2)) == Outcome.R


@given(games())
def test_results_match_naive(g):
    t = naive.reflect(g)
    assert misere.left_result(g).name == naive.left_result(t)
    assert misere.right_result(g).name == naive.right_result(t)
    assert misere.normal_left_result(g).name == naive.normal_left_result(t)
    assert misere.normal_right_result(g).name == naive.normal_right_result(t)


@given(games())
def test_outcome_of_conjugate_flips(g):
    o = misere.outcome(g)
    oc = misere.outcome(misere.conjugate(g))
    flip = {Outcome.L: Outcome.R, Outcome.R: Outcome.L,
            Outcome.N: Outcome.N, Outcome.P: Outcome.P}
    assert oc == flip[o]


def test_strong_outcomes_of_named_positions():
    assert misere.strong_left_outcome(misere.parse("{*|0}")) == Result.R
    assert misere.left_result(misere.parse("{*|0}")) == Result.L
    assert misere.strong_left_outcome(misere.parse("{-1|0}")) == Result.L
    assert misere.strong_outcome(misere.zero()) == Outcome.N


def test_strong_outcome_of_dead_left_ends_is_l():
    for e in misere.enumerate_dead_left_ends(3):
        if e == misere.zero():
            continue
        assert misere.strong_outcome(e) == Outcome.L


def test_strong_outcome_requires_dead_ending():
    outside = misere.parse("{{|1}|0}")
    assert not misere.is_dead_ending(outside)
    with pytest.raises(DomainError):
        misere.strong_left_outcome(outside)
    with pytest.raises(DomainError):
        misere.strong_right_outcome(outside)
    with pytest.raises(DomainError):
        misere.strong_outcome(outside)


@given(dead_ending_games())
def test_strong_outcome_matches_brute_force(g):
    assert misere.strong_left_outcome(g) == misere.brute_strong_left(g, max_options=2)
    assert misere.strong_right_outcome(g) == misere.brute_strong_right(g, max_options=2)


def _dead_ends_and_conjugates():
    ends = misere.enumerate_dead_ends(3)
    return sorted(set(ends) | {misere.conjugate(e) for e in ends})


# name -> (function making the games, expected count or None)
STRONG_REFERENCE_SETS = {
    "rank2-dead-ending": (
        lambda: misere.enumerate_games(misere.EnumerationBudget(2, 4, E)), 232),
    "rank3-dead-ending-sample": (
        lambda: misere.sample_rank3_games(E, max_options=2, count=100, seed=7), 100),
    "dead-ends-rank3-and-conjugates": (_dead_ends_and_conjugates, None),
}


def test_naive_murders_are_the_package_murders():
    for n in range(5):
        assert naive.reflect(misere.murder(n)) == naive.murder(n)


@pytest.mark.parametrize("name", list(STRONG_REFERENCE_SETS))
def test_strong_outcome_matches_naive_reference(name):
    make, expected = STRONG_REFERENCE_SETS[name]
    games = make()
    if expected is not None:
        assert len(games) == expected
    mismatches = [
        g for g in games
        if (misere.strong_left_outcome(g).name, misere.strong_right_outcome(g).name)
        != (naive.strong_left_result(naive.reflect(g)),
            naive.strong_right_result(naive.reflect(g)))]
    assert mismatches == []


@given(dead_ending_games())
def test_strong_outcome_never_improves_on_plain(g):
    # adversarial company can only hurt each player
    assert misere.left_result(g) >= misere.strong_left_outcome(g)
    assert misere.strong_right_outcome(g) >= misere.right_result(g)


def test_base_table_switches_on_universe():
    from misere import outcomes
    g = misere.parse("{*|0}")
    assert outcomes._BASE[Universe.DICOT](g) == misere.outcome(g)
    assert outcomes._BASE[E](g) == misere.strong_outcome(g)



RESULT_FUNCTIONS = ["left_result", "right_result", "normal_left_result",
                    "normal_right_result"]


@pytest.mark.parametrize("name", RESULT_FUNCTIONS + ["outcome"])
def test_result_functions_are_named_documented_and_picklable(name):
    import pickle

    from misere import outcomes
    f = getattr(outcomes, name)
    assert f.__name__ == f.__qualname__ == name
    assert pickle.loads(pickle.dumps(f)) is f
    # the docstring names the player and the convention
    doc = f.__doc__.lower()
    assert ("right" if "right" in name else "left" if "left" in name
            else "outcome") in doc
    assert ("normal" if name.startswith("normal_") else "misère") in doc
