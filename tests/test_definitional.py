"""The definitional check: g >= h over a finite test set, read off the
outcome of every sum g + x and h + x."""

import pytest

import misere
from misere import DomainError, EnumerationBudget, Universe, ordering
from misere.outcomes import outcome, outcome_ge

D = Universe.DICOT
E = Universe.DEAD_ENDING


def reference(g, h, u, test_set):
    """One x at a time, checking each test game before it is used."""
    tests = list(test_set)
    for x in tests:
        if not u.contains(x):
            raise DomainError("not in %s" % u.value)
    return all(outcome_ge(outcome(g, x), outcome(h, x)) for x in tests)


def test_agrees_with_a_per_game_loop_on_the_dead_ending_slice():
    des = misere.enumerate_games(EnumerationBudget(2, 4, E))
    # Every x is dead-ending, so the loop need not check membership; the
    # outcome of each g + x is read once, then compared x by x.
    row = {g: [outcome(g, x) for x in des] for g in des}
    disagreements = []
    for g in des:
        for h in des:
            expected = True
            for a, b in zip(row[g], row[h]):
                if not outcome_ge(a, b):
                    expected = False
                    break
            if ordering.definitional_ge_check(g, h, E, des) != expected:
                disagreements.append((g, h))
    assert disagreements == []


def test_a_generator_and_a_list_give_the_same_answer():
    des = misere.enumerate_games(EnumerationBudget(2, 2, E))
    for g in des:
        for h in des:
            assert (ordering.definitional_ge_check(g, h, E, iter(des))
                    == ordering.definitional_ge_check(g, h, E, des))


def test_a_mutated_list_is_read_for_its_new_contents():
    zero, star = misere.zero(), misere.star()
    # 0 + x and * + x have outcomes N and P at x = 0 (incomparable), L and
    # N at x = {*|0}, and N and N at x = {0,*|0,*}.
    tests = [zero]
    assert not ordering.definitional_ge_check(zero, star, D, tests)
    tests[:] = [misere.parse("{*|0}"), misere.parse("{0,*|0,*}")]
    assert ordering.definitional_ge_check(zero, star, D, tests)
    tests.append(zero)
    assert not ordering.definitional_ge_check(zero, star, D, tests)


def test_a_non_member_anywhere_in_the_set_raises_on_every_call():
    zero, star, one = misere.zero(), misere.star(), misere.integer(1)
    tests = [zero, one]  # 1 is dead-ending but not a dicot
    # 0 >= * already fails at x = 0, before the non-member is reached.
    assert not reference(zero, star, E, tests)
    assert not ordering.definitional_ge_check(zero, star, E, tests)
    for _ in range(2):
        with pytest.raises(DomainError, match="is not dicot"):
            ordering.definitional_ge_check(zero, star, D, tests)
        with pytest.raises(DomainError, match="is not dicot"):
            ordering.definitional_ge_check(zero, zero, D, iter(tests))


def test_a_refused_set_leaves_no_row():
    tests = (misere.zero(), misere.integer(1))  # 1 is not a dicot
    with pytest.raises(DomainError):
        ordering.definitional_ge_check(misere.zero(), misere.zero(), D, tests)
    assert (D, tests) not in ordering._OUTCOME_VECTORS
    assert ordering.definitional_ge_check(misere.zero(), misere.zero(), E, tests)
    assert (E, tests) in ordering._OUTCOME_VECTORS


def test_games_compared_may_lie_outside_the_universe():
    one, zero = misere.integer(1), misere.zero()
    dicots = misere.enumerate_games(EnumerationBudget(2, 4, D))
    assert (ordering.definitional_ge_check(one, zero, D, dicots)
            == reference(one, zero, D, dicots))


def test_the_empty_set_holds_for_every_pair():
    one, zero = misere.integer(1), misere.zero()
    for u in (D, E):
        assert ordering.definitional_ge_check(zero, one, u, [])
        assert ordering.definitional_ge_check(one, zero, u, ())


def test_definitional_check_follows_wrong_results(monkeypatch):
    zero, one = misere.zero(), misere.integer(1)
    tests = misere.enumerate_games(EnumerationBudget(2, 2, E))
    assert not ordering.definitional_ge_check(zero, one, E, tests)
    monkeypatch.setattr(ordering, "_OUTCOME_VECTORS", {})
    for name in ("left_result", "right_result"):
        monkeypatch.setattr(ordering, name, lambda g, h=zero: misere.Result.L)
    assert ordering.definitional_ge_check(zero, one, E, tests)
