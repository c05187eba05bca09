import pytest
from hypothesis import given

import misere
from misere import DomainError, Universe

from conftest import dicot_games

D = Universe.DICOT
E = Universe.DEAD_ENDING


def test_remove_dominated_keeps_maximal_left_options():
    g = misere.parse("{{0,*|0},*|0}")
    assert misere.remove_dominated(g, D) == misere.parse("{{0,*|0}|0}")


def test_remove_dominated_collapses_to_named_game():
    # 0 strictly exceeds {*|1} here, and {0|0} is star
    g = misere.parse("{0,{*|1}|0}")
    assert misere.remove_dominated(g, E) == misere.star()


def test_remove_dominated_uses_the_murder_chain():
    g = misere.parse("{M(1),M(2)|0}")
    assert misere.remove_dominated(g, E) == misere.parse("{-1|0}")


def test_remove_dominated_keeps_incomparable_options():
    # integers on the same side are mutually incomparable
    g = misere.parse("{0,1|}")
    assert misere.remove_dominated(g, E) == g
    g = misere.parse("{1,2|0}")
    assert misere.remove_dominated(g, E) == g


@pytest.mark.parametrize("side", ["L", "R"])
def test_remove_dominated_keeps_the_least_of_equivalent_options(side):
    # *+* is equivalent to 0 among dicots; of the two, 0 is structurally
    # least and stays, so both sides are {0} and the game is *.
    both = [misere.zero(), misere.add(misere.star(), misere.star())]
    g = misere.mk_game(both, [misere.zero()]) if side == "L" else \
        misere.mk_game([misere.zero()], both)
    assert misere.equivalent(both[0], both[1], D)
    assert misere.remove_dominated(g, D) == misere.star()


def test_find_reversible_none_cases():
    assert misere.find_reversible(misere.star(), "L", D) is None
    assert misere.find_reversible(misere.parse("{{0|-1}|0}"), "L", E) is None
    with pytest.raises(ValueError):
        misere.find_reversible(misere.star(), "left", D)


@pytest.mark.parametrize("side", ["LR", "", None, ["L"]])
def test_find_reversible_refuses_other_sides(side):
    with pytest.raises(ValueError):
        misere.find_reversible(misere.star(), side, D)


def test_find_reversible_classifies_open_and_end():
    # in {*|*} the left option * reverses through 0, a Left-end
    r = misere.find_reversible(misere.parse("{*|*}"), "L", D)
    assert r is not None
    assert r.option == misere.star()
    assert r.via == misere.zero()
    assert r.end and not r.open


def test_bypass_open_reversible_splices_replacements():
    g = misere.parse("{{-1|-1}|0,{-1|-1}}")
    a = misere.parse("{-1|-1}")
    b = misere.integer(-1)
    # a sits on both sides of g and b on both sides of a; only the
    # Right reading is open, and it must win over the Left-end reading
    got = misere.bypass_open_reversible(g, a, b, E)
    assert got == misere.parse("{{-1|-1}|0}")


def test_bypass_rejects_end_reversal():
    g = misere.parse("{*|*}")
    with pytest.raises(DomainError):
        misere.bypass_open_reversible(g, misere.star(), misere.zero(), D)


def test_bypass_rejects_non_reversible_pairs():
    with pytest.raises(DomainError):
        misere.bypass_open_reversible(
            misere.parse("{0|1}"), misere.zero(), misere.zero(), E)


def test_fundamental_left_option():
    g = misere.parse("{-1,1|0}")
    assert misere.is_fundamental_left(g, misere.integer(-1))
    assert not misere.is_fundamental_left(g, misere.integer(1))
    assert misere.is_fundamental_right(
        misere.conjugate(g), misere.integer(1))


def test_lone_option_is_never_fundamental():
    g = misere.parse("{0|0}")
    assert not misere.is_fundamental_left(g, misere.zero())


def test_fundamental_rejects_non_options_and_non_members():
    with pytest.raises(ValueError):
        misere.is_fundamental_left(misere.star(), misere.integer(1))
    with pytest.raises(DomainError):
        misere.is_fundamental_left(misere.parse("{{|1}|0}"), misere.parse("{|1}"))


def test_minimal_murder_index_values():
    assert misere.minimal_murder_index(misere.parse("{-1|1}")) == 0
    assert misere.minimal_murder_index(misere.integer(-1)) == 1
    for k in range(2, 5):
        assert misere.minimal_murder_index(misere.murder(k)) == k


def test_end_reversible_reduction_in_dicots():
    assert misere.reduce_end_reversible_dicot(misere.parse("{*|*}")) == misere.zero()
    # nothing applies to the canonical switch
    g = misere.parse("{0,*|0,*}")
    assert misere.reduce_end_reversible_dicot(g) == g


def test_end_reversible_reduction_in_dead_ending():
    assert misere.reduce_end_reversible_dead_ending(
        misere.parse("{-1|1}")) == misere.zero()


def test_canonical_identities():
    assert misere.canonical_form(misere.parse("*+*"), D) == misere.zero()
    assert misere.canonical_form(misere.parse("{-1|1}"), E) == misere.zero()
    assert misere.parse("1+1") == misere.integer(2)
    assert misere.canonical_form(misere.parse("1+1"), E) == misere.integer(2)
    assert misere.canonical_form(misere.parse("3+-7"), E) == misere.integer(-4)
    assert misere.canonical_form(misere.parse("1+-1"), E) == misere.zero()


def test_switch_plus_conjugate_is_previous_but_not_zero():
    g = misere.parse("{0,*|0,*}")
    s = misere.add(g, misere.conjugate(g))
    assert misere.outcome(s).name == "P"
    assert not misere.equivalent(s, misere.zero(), D)
    assert misere.canonical_form(g, D) == g


def test_murder_substitution_for_protected_end_options():
    # the star on the right reverses through an end but cannot be
    # dropped, so the least adequate murder conjugate replaces it
    assert misere.canonical_form(misere.parse("{-1|0,*}"), E) == \
        misere.parse("{-1|0,1}")


def test_canonical_form_requires_membership():
    with pytest.raises(DomainError):
        misere.canonical_form(misere.integer(1), D)


@given(dicot_games(max_leaves=5))
def test_canonical_form_laws_on_arbitrary_dicots(g):
    c = misere.canonical_form(g, D)
    assert misere.equivalent(c, g, D)
    assert misere.canonical_form(c, D) == c
    assert misere.rank(c) <= misere.rank(g)
    assert misere.is_dicot(c)
    assert misere.canonical_form(misere.conjugate(g), D) == misere.conjugate(c)


def test_canonical_equivalence_buckets_match_pairwise_equivalence():
    games = misere.enumerate_games(misere.EnumerationBudget(2, 2, E))
    for g in games:
        for h in games:
            same = misere.canonical_form(g, E) == misere.canonical_form(h, E)
            assert same == misere.equivalent(g, h, E)


def test_traced_reduction_reports_steps():
    c, steps = misere.canonical_form_traced(misere.parse("3+-7"), E)
    assert c == misere.integer(-4)
    rules = {s.rule for s in steps}
    assert "end-pair-remove" in rules
    assert "end-remove" in rules
    for s in steps:
        doc = misere.step_to_doc(s)
        assert set(doc) == {"rule", "side", "before", "after"}
        assert doc["side"] in ("L", "R", "LR")


def test_traced_reduction_of_reduced_game_is_empty():
    c, steps = misere.canonical_form_traced(misere.integer(2), E)
    assert c == misere.integer(2)
    assert steps == []


def test_domination_steps_are_traced_per_side():
    g = misere.parse("{M(1),M(2)|0}")
    c, steps = misere.canonical_form_traced(g, E)
    sides = [(s.rule, s.side) for s in steps]
    assert ("domination", "L") in sides


def test_traced_reduction_ignores_the_memo(monkeypatch):
    games = misere.enumerate_games(misere.EnumerationBudget(2, 4, E))
    with monkeypatch.context() as m:
        cold = []
        for g in games:
            m.setattr(misere.canonical, "_CANON", {})
            cold.append(misere.canonical_form_traced(g, E))
    for g in games:
        misere.canonical_form(g, E)
    warm = [misere.canonical_form_traced(g, E) for g in games]
    assert any(steps for _, steps in cold)
    assert warm == cold
