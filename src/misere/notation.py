"""Text and document forms of games.

The grammar, whitespace-insensitive throughout:

    expr := term ('+' term)*
    term := '~' term | game
    game := '{' opts '|' opts '}' | atom
    opts := (empty) | expr (',' expr)*
    atom := '0' | '*' | signed-integer | 'M(' natural ')'

'~' is conjugation and binds tighter than '+'.  Elaboration is guarded
by a node budget so pathological inputs (huge integers, towers of sums)
fail fast instead of filling the intern table.

Printing comes in two styles: "brace" spells out the whole tree, while
"named" greedily substitutes the largest recognizable subtrees (integers
first, then star, then murders of index two and up).  Both round-trip
through parse to the same interned game.
"""

from __future__ import annotations

from typing import Optional

from . import core
from .core import GameId, ResourceError

DEFAULT_NODE_BUDGET = 10 ** 6

# The grammar's digits.  str.isdigit also accepts other scripts' digits
# and superscripts, which int() then refuses or reads as another number.
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s at byte %d" % (message, offset))
        self.offset = offset


class InterchangeError(ValueError):
    """A document does not have the {"L": [...], "R": [...]} shape."""


class _Parser:
    def __init__(self, text: str, max_nodes: int):
        self.text = text
        self.pos = 0
        self.max_nodes = max_nodes
        self.baseline = len(core._NODES)

    def error(self, message: str):
        # The offset counts UTF-8 bytes, not characters: skipped Unicode
        # whitespace takes more than one byte.
        raise ParseError(message, len(self.text[:self.pos].encode("utf-8")))

    def check_budget(self):
        if len(core._NODES) - self.baseline > self.max_nodes:
            raise ResourceError("elaboration exceeded %d nodes" % self.max_nodes)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse(self) -> GameId:
        g = self.expr()
        if self.peek():
            self.error("trailing input")
        return g

    def expr(self) -> GameId:
        g = self.term()
        while self.peek() == "+":
            self.pos += 1
            g = core.add(g, self.term())
            self.check_budget()
        return g

    def term(self) -> GameId:
        if self.peek() == "~":
            self.pos += 1
            g = core.conjugate(self.term())
            self.check_budget()
            return g
        return self.game()

    def game(self) -> GameId:
        ch = self.peek()
        if ch == "{":
            self.pos += 1
            left = self.opts()
            self.take("|")
            right = self.opts()
            self.take("}")
            g = core.mk_game(left, right)
            self.check_budget()
            return g
        return self.atom()

    def opts(self) -> list:
        if self.peek() in ("|", "}"):
            return []
        out = [self.expr()]
        while self.peek() == ",":
            self.pos += 1
            out.append(self.expr())
        return out

    def atom(self) -> GameId:
        ch = self.peek()
        if ch == "*":
            self.pos += 1
            return core.star()
        if ch == "M":
            self.pos += 1
            self.take("(")
            n = self.natural()
            self.take(")")
            if n > self.max_nodes:
                raise ResourceError("murder index %d exceeds the node budget" % n)
            g = core.murder(n)
            self.check_budget()
            return g
        if ch == "-" or ch in _DIGITS:
            start = self.pos
            sign = 1
            if ch == "-":
                self.pos += 1
                sign = -1
                if self.pos >= len(self.text) or self.text[self.pos] not in _DIGITS:
                    self.pos = start
                    self.error("expected digits after '-'")
            n = sign * self.natural()
            if abs(n) > self.max_nodes:
                raise ResourceError("integer %d exceeds the node budget" % n)
            g = core.integer(n)
            self.check_budget()
            return g
        self.error("expected a game")

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])


def parse(text: str, max_nodes: int = DEFAULT_NODE_BUDGET) -> GameId:
    """Elaborate a notation string to an interned game."""
    return _Parser(text, max_nodes).parse()


def integer_value(g: GameId) -> Optional[int]:
    """The n with g identical to integer(n), if there is one.

    Walks the chain n = {n-1|} (or -n = {|-(n-1)}) down to 0: each step
    goes through a lone option with nothing on the other side, always on
    the side the first step took, which the sign of n records.
    """
    core._validate_ids((g,))
    zero = core.zero()
    n = 0
    while g != zero:
        left = core.left_options(g)
        right = core.right_options(g)
        if n >= 0 and not right and len(left) == 1:
            g, n = left[0], n + 1
        elif n <= 0 and not left and len(right) == 1:
            g, n = right[0], n - 1
        else:
            return None
    return n


def murder_value(g: GameId) -> Optional[int]:
    """The n with g identical to murder(n), if there is one.

    Walks the chain M(n) = {|0, M(n-1)} down to 0 and builds no game,
    so printing interns nothing.
    """
    core._validate_ids((g,))
    zero = core.zero()
    n = 0
    while g != zero:
        right = core.right_options(g)
        # 0 sorts first in every option set; M(1) = {|0} has no second option.
        if core.left_options(g) or right[0] != zero or len(right) > 2:
            return None
        g = right[-1]
        n += 1
    return n


def _atom_name(g: GameId) -> Optional[str]:
    v = integer_value(g)
    if v is not None:
        return str(v)
    if g == core.star():
        return "*"
    m = murder_value(g)
    if m is not None and m >= 2:
        return "M(%d)" % m
    return None


_BRACE: dict = {}
_NAMED: dict = {}


def _render(g: GameId, named: bool) -> str:
    memo = _NAMED if named else _BRACE
    s = memo.get(g)
    if s is None:
        if named:
            s = _atom_name(g)
        if s is None:
            left = ",".join(_render(x, named) for x in core.left_options(g))
            right = ",".join(_render(x, named) for x in core.right_options(g))
            s = "{%s|%s}" % (left, right)
        memo[g] = s
    return s


def print_game(g: GameId, style: str = "named") -> str:
    """Render a game; parse(print_game(g, style)) gives back g."""
    core._validate_ids((g,))
    if style == "named":
        return _render(g, True)
    if style == "brace":
        return _render(g, False)
    raise ValueError("unknown style %r" % style)


def to_interchange(g: GameId) -> dict:
    """Nested {"L": [...], "R": [...]} document for the full tree."""
    core._validate_ids((g,))
    return _interchange(g)


def _interchange(g: GameId) -> dict:
    return {
        "L": [_interchange(x) for x in core.left_options(g)],
        "R": [_interchange(x) for x in core.right_options(g)],
    }


def from_interchange(doc) -> GameId:
    """Intern the game described by an interchange document."""
    if not isinstance(doc, dict) or set(doc.keys()) != {"L", "R"}:
        raise InterchangeError(
            "expected an object with exactly the keys 'L' and 'R'")
    sides = []
    for k in ("L", "R"):
        v = doc[k]
        if not isinstance(v, list):
            raise InterchangeError("key %r must hold a list" % k)
        sides.append([from_interchange(x) for x in v])
    return core.mk_game(sides[0], sides[1])
