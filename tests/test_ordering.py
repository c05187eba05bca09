import random

import pytest
from hypothesis import given

import misere
from misere import DomainError, Universe

from conftest import dead_ending_games

D = Universe.DICOT
E = Universe.DEAD_ENDING


def test_murder_chain_descends_from_index_one():
    for n in range(1, 5):
        assert misere.ge(misere.murder(n), misere.murder(n + 1), E)
    assert not misere.ge(misere.murder(0), misere.murder(1), E)
    assert not misere.ge(misere.murder(2), misere.murder(1), E)


def test_integers_are_pairwise_incomparable_around_zero():
    z, one, mone, two = (misere.zero(), misere.integer(1),
                         misere.integer(-1), misere.integer(2))
    assert not misere.ge(z, one, E)
    assert not misere.ge(one, z, E)
    assert not misere.ge(mone, z, E)
    assert not misere.ge(z, mone, E)
    assert not misere.ge(two, one, E)
    assert not misere.ge(one, two, E)


def test_ge_requires_membership():
    with pytest.raises(DomainError):
        misere.ge(misere.integer(1), misere.zero(), D)
    with pytest.raises(DomainError):
        misere.ge(misere.zero(), misere.parse("{{|1}|0}"), E)


def test_ge_reflexive_on_slices():
    for u, budget in ((D, misere.EnumerationBudget(2, 4, D)),
                      (E, misere.EnumerationBudget(2, 2, E))):
        for g in misere.enumerate_games(budget):
            assert misere.ge(g, g, u)


def test_equivalent_examples():
    assert misere.equivalent(misere.parse("{*|*}"), misere.zero(), D)
    assert misere.equivalent(misere.parse("{-1|1}"), misere.zero(), E)
    assert not misere.equivalent(misere.star(), misere.zero(), D)
    assert misere.equivalent(misere.parse("1+-1"), misere.zero(), E)


def test_ge_normal_is_the_classical_order():
    assert misere.ge_normal(misere.integer(1), misere.zero())
    assert misere.ge_normal(misere.zero(), misere.integer(-1))
    assert not misere.ge_normal(misere.zero(), misere.integer(1))
    # star and zero are confused in normal play
    assert not misere.ge_normal(misere.star(), misere.zero())
    assert not misere.ge_normal(misere.zero(), misere.star())
    assert misere.ge_normal(misere.star(), misere.star())


def test_misere_ge_embeds_into_normal_ge():
    games = misere.enumerate_games(misere.EnumerationBudget(2, 2, E))
    for g in games:
        for h in games:
            if misere.ge(g, h, E):
                assert misere.ge_normal(g, h)


def test_definitional_check_validates_ge_verdicts():
    dicots = misere.enumerate_games(misere.EnumerationBudget(2, 4, D))
    for g in dicots:
        for h in dicots:
            if misere.ge(g, h, D):
                assert misere.definitional_ge_check(g, h, D, dicots)


def test_definitional_check_is_only_necessary():
    # a finite test set cannot refute a false verdict: no rank <= 2
    # witness separates these two, yet they are incomparable
    g, h = misere.integer(-2), misere.integer(2)
    slice2 = misere.enumerate_games(misere.EnumerationBudget(2, 4, E))
    assert not misere.ge(g, h, E)
    assert misere.definitional_ge_check(g, h, E, slice2)


def test_conjugate_reverses_ge():
    games = misere.enumerate_games(misere.EnumerationBudget(2, 2, E))
    for g in games:
        for h in games:
            assert misere.ge(g, h, E) == \
                misere.ge(misere.conjugate(h), misere.conjugate(g), E)


@given(dead_ending_games(max_leaves=4))
def test_hand_tying_on_arbitrary_games(g):
    if not misere.left_options(g):
        return
    widened = misere.mk_game(
        misere.left_options(g) + (misere.zero(),), misere.right_options(g))
    if misere.is_dead_ending(widened):
        assert misere.ge(widened, g, E)


def test_distinguish_finds_a_witness():
    d = misere.distinguish(misere.murder(0), misere.murder(1), E)
    assert d.verdict == "fails-with-witness"
    assert d.witness == misere.zero()
    assert misere.outcome(misere.add(misere.murder(0), d.witness)) != \
        misere.outcome(misere.add(misere.murder(1), d.witness))


def test_distinguish_confirms_equivalence():
    d = misere.distinguish(misere.parse("{*|*}"), misere.zero(), D)
    assert d.verdict == "holds"
    assert d.witness is None


def test_distinguish_can_be_inconclusive():
    d = misere.distinguish(misere.zero(), misere.parse("{-1|-1,1}"), E,
                           max_rank=1, max_options=2)
    assert d.verdict == "inconclusive"
    assert not misere.equivalent(misere.zero(), misere.parse("{-1|-1,1}"), E)


def test_distinguish_respects_membership():
    with pytest.raises(DomainError):
        misere.distinguish(misere.integer(1), misere.zero(), D)


def test_dead_ending_order_refines_the_dicot_order():
    # D is a subset of E, so a context of D is one of E: g >= h in E
    # implies g >= h in D for dicots g and h.
    rank2 = {misere.canonical_form(g, D)
             for g in misere.enumerate_games(misere.EnumerationBudget(2, 4, D))}
    assert len(rank2) == 9
    pairs = [(g, h) for g in rank2 for h in rank2]
    rank3 = sorted({misere.canonical_form(g, D) for g in
                    misere.enumerate_games(misere.EnumerationBudget(3, 2, D))},
                   key=misere.structural_key)
    assert len(rank3) == 442
    rng = random.Random(1729)
    drawn = [(rng.choice(rank3), rng.choice(rank3)) for _ in range(20_000)]
    assert (sum(misere.ge(*p, E) for p in drawn),
            sum(misere.ge(*p, D) for p in drawn)) == (1_506, 1_759)
    assert [p for p in pairs + drawn
            if misere.ge(*p, E) and not misere.ge(*p, D)] == []
