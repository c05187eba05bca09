import pytest
from hypothesis import given

import misere
from misere import InterchangeError, ParseError, ResourceError

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
