"""The package's records: construction, defaults, validation, repr,
equality, hashing and immutability."""

import copy
import pickle

import pytest

import misere
from misere import (Distinguisher, DomainError,
                    EnumerationBudget, ReductionStep, ReversibleOption,
                    ScanReport, Universe)
from misere.lab import DEFAULT_NODE_CAP


def test_fields_are_positional_or_keyword():
    step = ReductionStep("domination", "L", 3, 0)
    assert step == ReductionStep(rule="domination", side="L", before=3, after=0)
    assert step == ReductionStep("domination", "L", after=0, before=3)
    assert (step.rule, step.side, step.before, step.after) == ("domination", "L", 3, 0)
    rev = ReversibleOption(option=1, via=2, open=False)
    assert (rev.option, rev.via, rev.open, rev.end) == (1, 2, False, True)
    verdict = Distinguisher(Distinguisher.HOLDS, None, (2, 4))
    assert (verdict.verdict, verdict.witness, verdict.budget) == ("holds", None, (2, 4))


def test_wrong_arguments_are_type_errors():
    with pytest.raises(TypeError):
        ReductionStep("domination", "L", 3)
    with pytest.raises(TypeError):
        ReductionStep("domination", "L", 3, 0, 1)
    with pytest.raises(TypeError):
        ReductionStep("domination", "L", 3, 0, rule="x")
    with pytest.raises(TypeError):
        EnumerationBudget(rank=2)


def test_defaults():
    budget = EnumerationBudget()
    assert (budget.max_rank, budget.max_options, budget.universe,
            budget.node_cap) == (2, 4, None, DEFAULT_NODE_CAP)
    assert EnumerationBudget(3, universe=Universe.DICOT).max_options == 4
    a = ScanReport("demo", None, 1, ())
    b = ScanReport("demo", None, 1, ())
    assert a.counts == {} and a.seed is None
    assert a.counts is not b.counts
    assert ScanReport("demo", "dicot", 2, (), {"games": 2}, 7).seed == 7


@pytest.mark.parametrize("kwargs,error,message", [
    ({"max_rank": -1}, ValueError, "max_rank must be a natural number"),
    ({"max_rank": 4}, DomainError,
     "enumeration beyond rank 3 is refused; the form count explodes "
     "doubly exponentially"),
    ({"max_options": 0}, ValueError, "max_options must be at least 1"),
])
def test_budget_validation_messages(kwargs, error, message):
    with pytest.raises(error) as err:
        EnumerationBudget(**kwargs)
    assert str(err.value) == message


def test_repr():
    assert repr(ReductionStep("domination", "R", 5, 1)) == \
        "ReductionStep(rule='domination', side='R', before=5, after=1)"
    assert repr(ReversibleOption(1, 2, True)) == \
        "ReversibleOption(option=1, via=2, open=True)"
    assert repr(Distinguisher("inconclusive", None, (1, 2))) == \
        "Distinguisher(verdict='inconclusive', witness=None, budget=(1, 2))"
    assert repr(EnumerationBudget(1, 2, Universe.DICOT)) == (
        "EnumerationBudget(max_rank=1, max_options=2, "
        "universe=<Universe.DICOT: 'dicot'>, node_cap=%d)" % DEFAULT_NODE_CAP)
    assert repr(ScanReport("demo", None, 1, ("boom",))) == (
        "ScanReport(name='demo', universe=None, checked=1, "
        "violations=('boom',), counts={}, seed=None)")
    report = misere.census(EnumerationBudget(1, 4, Universe.DICOT))
    assert repr(report) == (
        "CensusReport(universe='dicot', total=2, per_rank={0: 1, 1: 1}, "
        "class_count=2, representatives=(0, 1), "
        "outcome_distribution={'N': 1, 'P': 1}, invertible=(0, 1), "
        "violations=(), seed=1729, pairs_checked=1)")


def test_equality_is_per_class_and_per_field():
    step = ReductionStep("domination", "L", 3, 0)
    assert step == ReductionStep("domination", "L", 3, 0)
    assert step != ReductionStep("domination", "R", 3, 0)
    assert step != ("domination", "L", 3, 0)
    assert ReversibleOption(1, 2, True) != Distinguisher(1, 2, True)
    assert EnumerationBudget() == EnumerationBudget(2, 4, None)


def test_hash_is_the_hash_of_the_fields():
    step = ReductionStep("domination", "L", 3, 0)
    assert hash(step) == hash(("domination", "L", 3, 0))
    assert hash(EnumerationBudget()) == hash(EnumerationBudget())
    assert len({EnumerationBudget(), EnumerationBudget(2, 4)}) == 1
    with pytest.raises(TypeError):
        hash(ScanReport("demo", None, 1, ()))


def test_fields_cannot_be_assigned_or_deleted():
    step = ReductionStep("domination", "L", 3, 0)
    budget = EnumerationBudget()
    report = ScanReport("demo", None, 1, ())
    for record, name in ((step, "rule"), (budget, "max_rank"), (report, "seed")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        step.note = "new attribute"
    assert step.rule == "domination" and budget.max_rank == 2


def test_copies_and_pickles_are_equal():
    for record in (ReductionStep("domination", "L", 3, 0),
                   EnumerationBudget(1, 2, Universe.DEAD_ENDING),
                   ScanReport("demo", None, 1, (), {"games": 1})):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
