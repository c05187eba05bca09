import threading

import pytest
from hypothesis import given

import misere
from misere import DomainError, Universe, core

import naive
from conftest import games

D = Universe.DICOT
E = Universe.DEAD_ENDING


def test_interning_is_identity_for_equal_structure():
    a = misere.mk_game([misere.zero()], [misere.zero()])
    b = misere.mk_game((misere.zero(),), (misere.zero(),))
    assert a == b
    assert a == misere.star()


def test_interning_ignores_option_order_and_duplicates():
    z, s = misere.zero(), misere.star()
    a = misere.mk_game([z, s], [s])
    b = misere.mk_game([s, z, s], [s, s])
    assert a == b


def test_zero_star_structure():
    z = misere.zero()
    assert misere.left_options(z) == ()
    assert misere.right_options(z) == ()
    assert misere.rank(z) == 0
    s = misere.star()
    assert misere.left_options(s) == (z,)
    assert misere.right_options(s) == (z,)
    assert misere.rank(s) == 1


def test_integers_are_chains_of_single_options():
    three = misere.integer(3)
    assert misere.rank(three) == 3
    assert misere.right_options(three) == ()
    (two,) = misere.left_options(three)
    assert two == misere.integer(2)
    assert misere.integer(0) == misere.zero()
    assert misere.integer(-4) == misere.conjugate(misere.integer(4))


def test_murders_structure():
    # the zeroth murder is the empty game, the next is minus one
    assert misere.murder(0) == misere.zero()
    assert misere.murder(1) == misere.integer(-1)
    m2 = misere.murder(2)
    assert misere.left_options(m2) == ()
    assert set(misere.right_options(m2)) == {misere.zero(), misere.murder(1)}
    assert misere.rank(misere.murder(5)) == 5
    assert misere.is_dead_left_end(misere.murder(3))


def test_murder_rejects_negative_index():
    with pytest.raises(ValueError):
        misere.murder(-1)


def test_conjugate_swaps_sides():
    g = misere.parse("{0,*|1}")
    cg = misere.conjugate(g)
    assert set(misere.right_options(cg)) == {misere.zero(), misere.star()}
    assert misere.left_options(cg) == (misere.integer(-1),)


@given(games())
def test_conjugate_is_an_involution(g):
    assert misere.conjugate(misere.conjugate(g)) == g


@given(games())
def test_conjugate_matches_naive(g):
    assert naive.reflect(misere.conjugate(g)) == naive.conjugate(naive.reflect(g))


@given(games(max_leaves=4), games(max_leaves=4))
def test_add_matches_naive(g, h):
    assert naive.reflect(misere.add(g, h)) == naive.add(naive.reflect(g), naive.reflect(h))


@given(games(max_leaves=4), games(max_leaves=4))
def test_add_commutes(g, h):
    assert misere.add(g, h) == misere.add(h, g)


@given(games(max_leaves=3), games(max_leaves=3), games(max_leaves=3))
def test_add_is_associative(g, h, k):
    assert misere.add(misere.add(g, h), k) == misere.add(g, misere.add(h, k))


@given(games())
def test_zero_is_additive_identity(g):
    assert misere.add(g, misere.zero()) == g


@given(games(max_leaves=4), games(max_leaves=4))
def test_rank_of_sum_adds(g, h):
    assert misere.rank(misere.add(g, h)) == misere.rank(g) + misere.rank(h)


@given(games(max_leaves=4), games(max_leaves=4))
def test_conjugate_distributes_over_sum(g, h):
    assert misere.conjugate(misere.add(g, h)) == \
        misere.add(misere.conjugate(g), misere.conjugate(h))


@given(games())
def test_rank_matches_naive(g):
    assert misere.rank(g) == naive.rank(naive.reflect(g))


@given(games())
def test_membership_flags_match_naive(g):
    t = naive.reflect(g)
    assert misere.is_dicot(g) == naive.is_dicot(t)
    assert misere.is_dead_ending(g) == naive.is_dead_ending(t)
    assert misere.is_left_end(g) == naive.is_left_end(t)
    assert misere.is_right_end(g) == naive.is_right_end(t)
    assert misere.is_dead_left_end(g) == naive.is_dead_left_end(t)
    assert misere.is_dead_right_end(g) == naive.is_dead_right_end(t)
    assert misere.is_impartial(g) == naive.is_impartial(t)


@given(games())
def test_dicots_are_dead_ending(g):
    if misere.is_dicot(g):
        assert misere.is_dead_ending(g)


def test_universe_contains_mirrors_predicates():
    one = misere.integer(1)
    assert E.contains(one)
    assert not D.contains(one)
    assert D.contains(misere.star())
    assert E.contains(misere.star())


def test_membership_errors_render_the_game():
    with pytest.raises(DomainError) as err:
        misere.ge(misere.integer(1), misere.zero(), D)
    assert "{{|}|}" in str(err.value)
    assert "dicot" in str(err.value)


def test_membership_error_text():
    with pytest.raises(DomainError) as err:
        misere.ge(misere.integer(1), misere.zero(), D)
    assert str(err.value) == "game {{|}|} is not dicot"


def test_membership_errors_name_a_long_game_by_its_size():
    g = misere.parse("9+-9")
    with pytest.raises(DomainError) as err:
        misere.ge(g, misere.zero(), D)
    assert str(err.value) == ("a game of rank 18 with 100 distinct "
                              "subpositions is not dicot")


def test_membership_errors_spell_out_games_up_to_the_limit():
    # Sums a + -b whose brace forms fall on both sides of the limit.
    seen = set()
    for a in range(5):
        for b in range(5):
            g = misere.parse("%d+-%d" % (a, b))
            brace = misere.print_game(g, "brace")
            short = len(brace) <= core._DESCRIBE_LIMIT
            seen.add(short)
            expected = ("game " + brace if short else
                        "a game of rank %d with %d distinct subpositions"
                        % (misere.rank(g), len(core.followers(g))))
            assert core._describe(g) == expected
    assert seen == {True, False}


def test_followers_include_game_and_are_transitive():
    g = misere.parse("{0,*|1}")
    fs = misere.followers(g)
    assert g in fs
    assert misere.zero() in fs
    assert misere.star() in fs
    assert misere.integer(1) in fs
    # every option of a follower is a follower
    for f in fs:
        for x in misere.left_options(f) + misere.right_options(f):
            assert x in fs


def test_followers_of_murder_chain():
    fs = misere.followers(misere.murder(3))
    assert set(fs) == {misere.murder(k) for k in range(4)}


def test_structural_key_orders_by_rank_first():
    ks = [misere.structural_key(g)
          for g in (misere.zero(), misere.star(), misere.murder(2))]
    assert ks == sorted(ks)


@pytest.mark.parametrize("budget", [
    misere.EnumerationBudget(2, 2),
    misere.EnumerationBudget(2, 4, Universe.DEAD_ENDING),
], ids=["all", "dead-ending"])
def test_structural_order_matches_naive_key(budget):
    games = misere.enumerate_games(budget)
    naive_keys = {g: naive.structural_key(naive.reflect(g)) for g in games}
    assert len(set(naive_keys.values())) == len(games)
    assert sorted(games, key=misere.structural_key) == \
        sorted(games, key=naive_keys.__getitem__)


def test_interning_is_thread_safe():
    out = []

    def build(lo, hi):
        got = [misere.integer(n) for n in range(lo, hi)]
        out.append(got)

    threads = [threading.Thread(target=build, args=(0, 40)) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(row == out[0] for row in out)


@pytest.mark.parametrize("make, n", [(misere.integer, 0.5), (misere.murder, 2.5)])
def test_non_integral_index_is_refused_before_interning(make, n):
    before = len(core._NODES)
    with pytest.raises(TypeError):
        make(n)
    assert len(core._NODES) == before


def test_universe_membership_matches_predicates():
    # The unfiltered rank-2 slice holds both universes' rank-2 slices and
    # every follower of their games.
    nodes = misere.enumerate_games(misere.EnumerationBudget(2, 4))
    assert len(nodes) == 256
    for g in nodes:
        assert D.contains(g) == misere.is_dicot(g)
        assert E.contains(g) == misere.is_dead_ending(g)


# Ids that are not games: a negative index would read from the end of the
# intern table, a bool is an int, and one past the end indexes nothing.
NOT_GAMES = {"negative": lambda: -1, "bool": lambda: True,
             "past-the-end": lambda: len(core._NODES)}


@pytest.mark.parametrize("call", [
    lambda g: misere.ge(g, misere.zero(), D),
    lambda g: misere.equivalent(misere.zero(), g, E),
    lambda g: misere.definitional_ge_check(misere.zero(), g, D, [misere.zero()]),
    lambda g: misere.canonical_form(g, D),
    lambda g: misere.remove_dominated(g, D),
    lambda g: misere.brute_strong_left(g),
    lambda g: misere.census(games=[misere.zero(), g], universe=D),
], ids=["ge", "equivalent", "definitional_ge_check", "canonical_form",
        "remove_dominated", "brute_strong_left", "census"])
@pytest.mark.parametrize("bad", NOT_GAMES.values(), ids=NOT_GAMES.keys())
def test_membership_checks_refuse_ids_that_are_not_games(call, bad):
    with pytest.raises(ValueError, match="not an interned game id"):
        call(bad())


@pytest.mark.parametrize("bad", NOT_GAMES.values(), ids=NOT_GAMES.keys())
def test_conjugate_refuses_ids_that_are_not_games(bad):
    g = bad()
    size = len(core._CONJ)
    with pytest.raises(ValueError, match="not an interned game id"):
        misere.conjugate(g)
    assert len(core._CONJ) == size
