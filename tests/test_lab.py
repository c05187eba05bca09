import json

import pytest

import misere
from misere import DomainError, EnumerationBudget, ResourceError, Universe

D = Universe.DICOT
E = Universe.DEAD_ENDING


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(max_rank=-1)
    with pytest.raises(ValueError):
        EnumerationBudget(max_options=0)
    with pytest.raises(DomainError):
        EnumerationBudget(max_rank=4)


def test_enumeration_counts_without_universe():
    assert len(misere.enumerate_games(EnumerationBudget(1, 4))) == 4
    assert len(misere.enumerate_games(EnumerationBudget(2, 4))) == 256


def test_enumeration_counts_per_universe():
    assert len(misere.enumerate_games(EnumerationBudget(1, 4, D))) == 2
    assert len(misere.enumerate_games(EnumerationBudget(2, 4, D))) == 10
    assert len(misere.enumerate_games(EnumerationBudget(2, 4, E))) == 232
    assert len(misere.enumerate_games(EnumerationBudget(2, 2, E))) == 107
    assert len(misere.enumerate_games(EnumerationBudget(3, 2, D))) == 3026


def test_enumeration_is_sorted_and_member_only():
    games = misere.enumerate_games(EnumerationBudget(2, 4, E))
    keys = [misere.structural_key(g) for g in games]
    assert keys == sorted(keys)
    assert all(misere.is_dead_ending(g) for g in games)
    assert all(misere.rank(g) <= 2 for g in games)


def test_enumeration_refuses_explosive_levels():
    with pytest.raises(ResourceError):
        misere.enumerate_games(EnumerationBudget(3, 2, E))


def test_dead_end_enumeration():
    lefts = misere.enumerate_dead_left_ends(3)
    rights = misere.enumerate_dead_right_ends(3)
    both = misere.enumerate_dead_ends(3)
    assert len(lefts) == 16
    assert len(rights) == 16
    # zero is the only game on both lists
    assert len(both) == 31
    assert all(misere.is_dead_left_end(e) for e in lefts)
    assert [misere.conjugate(e) in rights for e in lefts] == [True] * 16


def test_dead_left_end_option_cap():
    assert len(misere.enumerate_dead_left_ends(4, max_options=2)) == 67


def test_rank3_sampling_is_deterministic():
    a = misere.sample_rank3_games(E, max_options=2, count=50, seed=misere.DEFAULT_SEED)
    b = misere.sample_rank3_games(E, max_options=2, count=50, seed=misere.DEFAULT_SEED)
    c = misere.sample_rank3_games(E, max_options=2, count=50, seed=7)
    assert a == b
    assert a != c
    assert all(misere.is_dead_ending(g) for g in a)
    assert max(misere.rank(g) for g in a) == 3


def test_brute_strong_outcomes_match_formula_on_slice():
    for g in misere.enumerate_games(EnumerationBudget(2, 2, E)):
        assert misere.brute_strong_left(g) == misere.strong_left_outcome(g)
        assert misere.brute_strong_right(g) == misere.strong_right_outcome(g)


def test_census_of_rank_two_dicots():
    rep = misere.census(EnumerationBudget(2, 4, D), sample_pairs=None)
    assert rep.total == 10
    assert rep.class_count == 9
    assert rep.ok
    assert rep.pairs_checked == 45
    assert len(rep.invertible) == 9
    assert rep.outcome_distribution == {"L": 2, "N": 5, "P": 1, "R": 2}
    assert rep.per_rank == {0: 1, 1: 1, 2: 8}
    # the doc form serializes cleanly
    json.dumps(rep.to_doc())
    assert "census" in rep.render_text()


def test_census_of_rank_two_dead_ending():
    rep = misere.census(EnumerationBudget(2, 4, E), sample_pairs=None)
    assert rep.total == 232
    assert rep.class_count == 196
    assert rep.ok
    assert len(rep.invertible) == 60
    assert rep.outcome_distribution == {"L": 39, "N": 145, "P": 9, "R": 39}


def test_census_accepts_explicit_game_list():
    pool = misere.sample_rank3_games(E, max_options=2, count=40,
                                     seed=misere.DEFAULT_SEED)
    rep = misere.census(games=pool, universe=E, sample_pairs=100)
    assert rep.total == 40
    assert rep.ok
    assert rep.pairs_checked == 100


def test_scan_murder_theorems():
    rep = misere.scan_murder_theorems(max_index=6, max_end_rank=3)
    assert rep.ok
    assert rep.checked == 58
    assert rep.counts == {"max_index": 6, "left_ends": 15}


def test_scan_murder_theorems_refuses_a_negative_index():
    with pytest.raises(ValueError, match="max_index"):
        misere.scan_murder_theorems(max_index=-3)


def test_scan_end_invertibility():
    rep = misere.scan_end_invertibility(max_rank=3)
    assert rep.ok
    assert rep.checked == 31


def test_scan_conjugate_property():
    rep = misere.scan_conjugate_property(D, max_rank=2, max_options=4)
    assert rep.ok
    assert rep.counts["inverse_pairs"] == 7
    assert rep.counts["impartial_inverse_pairs"] == 4
    rep = misere.scan_conjugate_property(E, max_rank=2, max_options=2)
    assert rep.ok


def test_scan_normal_embedding():
    rep = misere.scan_normal_embedding(D, max_rank=2, max_options=4)
    assert rep.ok
    assert rep.checked == 100
    assert rep.counts["ge_true"] == 30


def test_scan_normal_embedding_reports_seed_only_when_sampling():
    assert misere.scan_normal_embedding(D, max_rank=1).seed is None


def test_scan_cancellativity():
    rep = misere.scan_cancellativity(E, samples=60, max_rank=2, max_options=2)
    assert rep.ok
    assert rep.counts["forward"] == 60
    assert rep.counts["invertible_converse"] == 60
    assert rep.seed == misere.DEFAULT_SEED


def test_scan_hand_tying():
    rep = misere.scan_hand_tying(E, samples=60, max_rank=2, max_options=2)
    assert rep.ok
    assert rep.checked == 60
    assert rep.counts["skipped_outside_universe"] >= 0


def test_scan_hand_tying_without_movers():
    rep = misere.scan_hand_tying(D, max_rank=0)
    assert rep.ok
    assert (rep.checked, rep.counts["movers"]) == (0, 0)


@pytest.mark.parametrize("scan,kwargs", [
    (misere.scan_hand_tying, {"samples": -1}),
    (misere.scan_cancellativity, {"samples": -1}),
])
def test_scans_refuse_negative_sample_counts(scan, kwargs):
    with pytest.raises(ValueError):
        scan(D, max_rank=1, **kwargs)


def test_scan_weak_avoidance():
    rep = misere.scan_weak_avoidance(E, max_rank=2, max_options=2)
    assert rep.ok
    assert rep.counts["applicable"] > 0


def test_scan_report_rendering():
    rep = misere.scan_murder_theorems(max_index=3, max_end_rank=2)
    text = rep.render_text()
    assert "murders" in text
    assert "0 violations" in text
    doc = rep.to_doc()
    json.dumps(doc)
    assert doc["violations"] == []
    bad = misere.ScanReport("demo", None, 1, ("boom",))
    assert not bad.ok


def _invertible_by_definition(games, u):
    """The games g whose g + conjugate(g) reduces to 0, one game at a time."""
    return [g for g in games
            if misere.canonical_form(misere.add(g, misere.conjugate(g)), u)
            == misere.zero()]


def _rank3_sample(u):
    return misere.sample_rank3_games(u, max_options=2, count=100,
                                     seed=misere.DEFAULT_SEED)


@pytest.mark.parametrize("u", [D, E])
def test_census_invertibility_matches_definition_on_rank_two(u):
    budget = EnumerationBudget(2, 4, u)
    rep = misere.census(budget, sample_pairs=0)
    assert list(rep.invertible) == _invertible_by_definition(
        misere.enumerate_games(budget), u)


@pytest.mark.parametrize("u", [D, E])
def test_census_invertibility_matches_definition_on_rank_three_sample(u):
    games = _rank3_sample(u)
    rep = misere.census(games=games, universe=u, sample_pairs=0)
    assert len(rep.invertible) > 0
    assert list(rep.invertible) == _invertible_by_definition(games, u)


@pytest.mark.parametrize("u", [D, E])
def test_census_invertibility_is_constant_on_buckets(u):
    games = set(misere.enumerate_games(EnumerationBudget(2, 4, u)) + _rank3_sample(u))
    rep = misere.census(games=games, universe=u, sample_pairs=0)
    buckets: dict = {}
    for g in games:
        buckets.setdefault(misere.canonical_form(g, u), []).append(g)
    assert len(buckets) == rep.class_count
    assert any(len(b) > 1 for b in buckets.values())
    invertible = set(rep.invertible)
    for bucket in buckets.values():
        assert len({g in invertible for g in bucket}) == 1


def test_census_refuses_negative_sample_pairs():
    with pytest.raises(ValueError):
        misere.census(EnumerationBudget(2, 4, D), sample_pairs=-5)
    assert misere.census(EnumerationBudget(2, 4, D), sample_pairs=0).pairs_checked == 0


def test_census_cross_check_catches_a_disagreement(monkeypatch):
    # With every game its own bucket, the one equivalent pair of the
    # slice must be caught by the pairwise comparison.
    monkeypatch.setattr(misere.canonical, "canonical_form", lambda g, u: g)
    rep = misere.census(EnumerationBudget(2, 4, D), sample_pairs=None)
    assert rep.violations == ("0 vs {*|*}: canonical ids differ, equivalence True",)


def test_census_refuses_non_members():
    with pytest.raises(DomainError, match=r"^game \{\{\|\}\|\} is not dicot$"):
        misere.census(games=[misere.parse("1")], universe=D)


def test_dead_end_enumerators_refuse_a_negative_budget():
    with pytest.raises(ValueError, match="max_rank must be a natural number"):
        misere.enumerate_dead_left_ends(-1)
    with pytest.raises(ValueError, match="max_rank must be a natural number"):
        misere.enumerate_dead_right_ends(-1)
    with pytest.raises(ValueError, match="max_options must be a natural number"):
        misere.enumerate_dead_left_ends(2, max_options=-1)
    with pytest.raises(ValueError):
        misere.scan_end_invertibility(max_rank=-1)
    # no option per side still leaves the empty game
    assert misere.enumerate_dead_left_ends(2, max_options=0) == [misere.zero()]


def test_sample_refuses_a_negative_count():
    with pytest.raises(ValueError, match="count must be at least 0"):
        misere.sample_rank3_games(E, count=-1)
    assert misere.sample_rank3_games(E, count=0) == []


def test_census_text_counts_the_violations_it_does_not_list(monkeypatch):
    monkeypatch.setattr(misere.canonical, "canonical_form", lambda g, u: g)
    rep = misere.census(EnumerationBudget(2, 4, E), sample_pairs=None)
    lines = rep.render_text().splitlines()
    assert len(rep.violations) == 54
    assert sum(line.startswith("  VIOLATION: ") for line in lines) == 20
    assert lines[-1] == "  ... 34 more"


@pytest.mark.parametrize("kwargs", [
    {"universe": "dicot"},
    {"universe": D.value},
    {"max_rank": 2.5},
    {"max_rank": True},
    {"max_options": 4.0},
    {"max_options": "4"},
    {"node_cap": None},
    {"node_cap": False},
])
def test_budget_refuses_values_it_cannot_use(kwargs):
    # Refused where the budget is built, not later inside enumerate_games.
    with pytest.raises(TypeError):
        EnumerationBudget(**kwargs)


def test_budget_type_errors_name_the_field():
    with pytest.raises(TypeError, match="universe must be a Universe or None"):
        EnumerationBudget(2, 4, "dicot")
    with pytest.raises(TypeError, match="max_rank must be an int, got 2.5"):
        EnumerationBudget(2.5)


def test_a_negative_node_cap_is_refused():
    # At rank 0 no level is examined, so the cap was never compared.
    with pytest.raises(ValueError, match="node_cap must be a natural number"):
        EnumerationBudget(0, 1, D, node_cap=-5)
    with pytest.raises(ValueError, match="node_cap must be a natural number"):
        misere.enumerate_dead_left_ends(0, node_cap=-5)
    with pytest.raises(ValueError, match="node_cap must be a natural number"):
        misere.enumerate_dead_right_ends(1, node_cap=-1)
    # A cap of 0 is a natural number; the empty game needs no level.
    assert misere.enumerate_games(EnumerationBudget(0, 1, D, node_cap=0)) == [misere.zero()]


def test_conjugate_scan_catches_a_wrong_conjugate(monkeypatch):
    monkeypatch.setattr(misere.core, "conjugate", lambda g: g)
    rep = misere.scan_conjugate_property(D)
    assert (rep.ok, rep.checked, len(rep.violations)) == (False, 20, 6)
    planted = "{0|*} + {*|0} ~ 0 but {*|0} !~ conjugate({0|*})"
    assert planted in rep.violations
    assert "  VIOLATION: " + planted in rep.render_text().splitlines()


def test_end_scan_catches_a_sum_that_does_not_cancel(monkeypatch):
    monkeypatch.setattr(misere.canonical, "canonical_form", lambda g, u: g)
    rep = misere.scan_end_invertibility()
    assert not rep.ok
    assert any(line.startswith("  VIOLATION: ")
               for line in rep.render_text().splitlines())


def test_embedding_scan_catches_a_wrong_normal_comparison(monkeypatch):
    monkeypatch.setattr(misere.ordering, "ge_normal", lambda g, h: False)
    rep = misere.scan_normal_embedding(D)
    assert (rep.ok, rep.checked, len(rep.violations)) == (False, 100, 30)
    planted = "0 >= 0 in dicot but not under normal play"
    assert planted in rep.violations
    assert "  VIOLATION: " + planted in rep.render_text().splitlines()


def test_murder_scan_catches_a_wrong_comparison(monkeypatch):
    monkeypatch.setattr(misere.ordering, "ge", lambda g, h, u: False)
    rep = misere.scan_murder_theorems()
    assert (rep.ok, rep.checked, len(rep.violations)) == (False, 58, 50)
    planted = "murder(1) >= murder(2) fails"
    assert planted in rep.violations
    assert "  VIOLATION: " + planted in rep.render_text().splitlines()


def test_hand_tying_scan_catches_a_wrong_comparison(monkeypatch):
    monkeypatch.setattr(misere.ordering, "ge", lambda g, h, u: False)
    rep = misere.scan_hand_tying(E, samples=60, max_rank=2, max_options=2)
    assert (rep.ok, len(rep.violations)) == (False, 60)
    assert any(line.startswith("  VIOLATION: widening ")
               for line in rep.render_text().splitlines())


# A comparison that reads the outcomes alone and skips the options.  (One
# by id would ignore structure too, but its verdicts, and so the counts
# below, would depend on what the process interned first.)
def _ge_by_outcome(g, h, u):
    return misere.outcome_ge(misere.outcome(g), misere.outcome(h))


def test_cancellativity_scan_catches_both_directions(monkeypatch):
    monkeypatch.setattr(misere.ordering, "ge", _ge_by_outcome)
    rep = misere.scan_cancellativity(E, samples=60, max_rank=2, max_options=2)
    assert (rep.ok, rep.checked, len(rep.violations)) == (False, 120, 33)
    forward = [v for v in rep.violations if v.endswith(" breaks it")]
    converse = [v for v in rep.violations if " fails yet holds after " in v]
    assert (len(forward), len(converse)) == (6, 27)
    lines = rep.render_text().splitlines()
    for planted in ("{1|-1} >= {0|-1} but adding {-1,1|-1,*} breaks it",
                    "{0,-1|*} >= -2 fails yet holds after adding invertible -1"):
        assert "  VIOLATION: " + planted in lines


def test_weak_avoidance_scan_catches_a_wrong_comparison(monkeypatch):
    monkeypatch.setattr(misere.ordering, "ge", _ge_by_outcome)
    rep = misere.scan_weak_avoidance(E, max_rank=2, max_options=2)
    assert (rep.ok, rep.checked, len(rep.violations)) == (False, 8240, 640)
    planted = ("{-1|0} wins via -1 against {*|0} with no move in the "
               "second component")
    assert planted in rep.violations
    assert "  VIOLATION: " + planted in rep.render_text().splitlines()


def test_distinguish_misses_the_witness_when_outcomes_are_wrong(monkeypatch):
    one, zero = misere.integer(1), misere.zero()
    clean = misere.distinguish(one, zero, E)
    assert (clean.verdict, clean.witness) == (misere.Distinguisher.FAILS, zero)
    monkeypatch.setattr(misere.outcomes, "outcome",
                        lambda g, h=zero: misere.Outcome.N)
    planted = misere.distinguish(one, zero, E)
    assert (planted.verdict, planted.witness) == (
        misere.Distinguisher.INCONCLUSIVE, None)
