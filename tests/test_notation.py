import subprocess
import sys

import pytest
from hypothesis import given

import misere
from misere import (EnumerationBudget, InterchangeError, ParseError,
                    ResourceError, Universe)

from conftest import games


def test_parse_atoms():
    assert misere.parse("0") == misere.zero()
    assert misere.parse("*") == misere.star()
    assert misere.parse("5") == misere.integer(5)
    assert misere.parse("-3") == misere.integer(-3)
    assert misere.parse("M(0)") == misere.zero()
    assert misere.parse("M(1)") == misere.integer(-1)
    assert misere.parse("M(4)") == misere.murder(4)


def test_parse_braces_and_nesting():
    g = misere.parse("{0,*|{*|0}}")
    assert set(misere.left_options(g)) == {misere.zero(), misere.star()}
    (r,) = misere.right_options(g)
    assert r == misere.parse("{*|0}")
    assert misere.parse("{|}") == misere.zero()
    assert misere.parse("{|0}") == misere.integer(-1)


def test_parse_is_whitespace_insensitive():
    assert misere.parse(" { 0 , * | M( 2 ) } ") == misere.parse("{0,*|M(2)}")


def test_parse_sums_and_conjugates():
    assert misere.parse("1+1") == misere.integer(2)
    assert misere.parse("3+-7") == misere.add(misere.integer(3), misere.integer(-7))
    assert misere.parse("~{0|*}") == misere.conjugate(misere.parse("{0|*}"))
    assert misere.parse("~1") == misere.integer(-1)
    assert misere.parse("~0+~0") == misere.zero()


def test_conjugation_nests():
    assert misere.parse("~~1") == misere.integer(1)
    assert misere.parse("~~{0|*}") == misere.parse("{0|*}")
    assert misere.parse("~~~1") == misere.integer(-1)


def test_named_printing_prefers_integers_then_star_then_murders():
    assert misere.print_game(misere.zero()) == "0"
    assert misere.print_game(misere.star()) == "*"
    assert misere.print_game(misere.integer(-1)) == "-1"
    assert misere.print_game(misere.murder(1)) == "-1"
    assert misere.print_game(misere.murder(2)) == "M(2)"
    assert misere.print_game(misere.parse("{*|0}")) == "{*|0}"


def test_brace_printing_is_fully_expanded():
    assert misere.print_game(misere.integer(-1), style="brace") == "{|{|}}"
    assert misere.print_game(misere.star(), style="brace") == "{{|}|{|}}"


def test_print_rejects_unknown_style():
    with pytest.raises(ValueError):
        misere.print_game(misere.zero(), style="latex")


def test_integer_and_murder_recognizers():
    assert misere.integer_value(misere.integer(-2)) == -2
    assert misere.integer_value(misere.star()) is None
    assert misere.murder_value(misere.murder(3)) == 3
    assert misere.murder_value(misere.integer(2)) is None


def test_integer_value_walks_chains_of_any_depth():
    for n in [*range(-60, 61), 20_000]:
        assert misere.integer_value(misere.integer(n)) == n
    # A chain over *, a chain that turns, a murder and a switch.
    for text in ("{{*|}|}", "{{|0}|}", "M(2)", "{1|-1}"):
        assert misere.integer_value(misere.parse(text)) is None


@pytest.mark.parametrize("fn", [misere.print_game, misere.integer_value,
                                misere.murder_value, misere.to_interchange])
@pytest.mark.parametrize("bad", [lambda: -1, lambda: True,
                                 lambda: len(misere.core._NODES)],
                         ids=["negative", "bool", "past-the-end"])
def test_entry_points_refuse_ids_that_are_not_games(fn, bad):
    # Called at test time: the intern table grows as tests run.
    with pytest.raises(ValueError, match="not an interned game id"):
        fn(bad())


def test_murder_value_agrees_with_building_the_murder():
    def built(g):
        n = misere.rank(g)
        return n if misere.murder(n) == g else None

    zero, murders = misere.zero(), [misere.murder(n) for n in range(51)]
    # Near misses: a murder with an extra Left option or Right option.
    near = [misere.mk_game(left, misere.right_options(m) + right)
            for m in murders[1:]
            for left, right in (((zero,), ()), ((), (misere.integer(-2),)))]
    slice_ = misere.enumerate_games(EnumerationBudget(2, 4, Universe.DEAD_ENDING))
    for g in slice_ + murders + near:
        assert misere.murder_value(g) == built(g)


def test_printing_interns_nothing():
    # A fresh interpreter, so that no earlier test has interned M(41).
    script = """
from misere import core, notation
g = core.mk_game((core.integer(40),), (core.star(),))
before = len(core._NODES)
print(notation.print_game(g, "named"), len(core._NODES) - before)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["{40|*}", "0"]


@given(games())
def test_round_trip_both_styles(g):
    assert misere.parse(misere.print_game(g, style="named")) == g
    assert misere.parse(misere.print_game(g, style="brace")) == g


@given(games())
def test_interchange_round_trip(g):
    doc = misere.to_interchange(g)
    assert set(doc) == {"L", "R"}
    assert misere.from_interchange(doc) == g


def test_atom_round_trips():
    names = ["0", "*"] + [str(n) for n in range(-5, 6) if n] + \
        ["M(%d)" % n for n in range(6)]
    for name in names:
        g = misere.parse(name)
        assert misere.parse(misere.print_game(g, style="named")) == g
        assert misere.parse(misere.print_game(g, style="brace")) == g


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("{0|", 3),
    ("x", 0),
    ("M(", 2),
    ("M(-1)", 2),
    ("1 1", 2),
    ("{0|0}}", 5),
    ("~", 1),
    ("0+", 2),
    ("M(1.5)", 3),
])
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        misere.parse(text)
    assert err.value.offset == offset
    assert "byte %d" % offset in str(err.value)


def test_parse_budget_guards():
    with pytest.raises(ResourceError):
        misere.parse("M(2000000)")
    with pytest.raises(ResourceError):
        misere.parse("-1500000")
    # magnitude pre-check relative to an explicit budget
    with pytest.raises(ResourceError):
        misere.parse("M(40)", max_nodes=5)
    # the growth guard counts freshly interned nodes, so trip it with a
    # nesting no other test constructs
    with pytest.raises(ResourceError):
        misere.parse("{{{{{{{0|*}|*}|*}|*}|*}|*}|*}", max_nodes=3)


def test_interchange_rejects_malformed_documents():
    with pytest.raises(InterchangeError):
        misere.from_interchange({"L": []})
    with pytest.raises(InterchangeError):
        misere.from_interchange({"L": [], "R": [], "X": []})
    with pytest.raises(InterchangeError):
        misere.from_interchange({"L": [], "R": "0"})
    with pytest.raises(InterchangeError):
        misere.from_interchange({"L": [{"L": []}], "R": []})
    with pytest.raises(InterchangeError):
        misere.from_interchange([])


@pytest.mark.parametrize("text,offset", [
    ("²", 0),
    ("１", 0),
    ("-٣", 0),
    ("M(٣)", 2),
    ("1+²", 2),
])
def test_only_ascii_digits_are_digits(text, offset):
    # str.isdigit accepts these; int() refuses '²' and reads '１' as 1.
    with pytest.raises(ParseError) as err:
        misere.parse(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text,offset", [
    ("\u00a0?", 2),
    ("1 +\u3000?", 6),
    ("{0|\u2003", 6),
])
def test_parse_error_offsets_count_utf8_bytes(text, offset):
    # Unicode whitespace is skipped but takes more than one byte.
    with pytest.raises(ParseError) as err:
        misere.parse(text)
    assert err.value.offset == offset
    assert "byte %d" % offset in str(err.value)
