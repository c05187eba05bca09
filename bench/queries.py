"""Seeded mix of ``misere`` invocations whose answers follow from closed forms.

Every query carries its expected answer, worked out here without the
package: integer and murder arithmetic, the misère outcomes of integers
and murders, the strong outcome of dead Left-ends, the census anchors and
the brace, named and interchange forms of integers, murders and
mixed-sign sums of integers.
"""

import json
import random
from collections import namedtuple

# Each kind of query appears PER_KIND times in the mix, with seeded inputs.
KINDS = 14
PER_KIND = 3

# Deep chains, with rank in DEEP_RANKS, are in scope for the package
# (ROADMAP aim 3) but all fail at seed, and a timed workload must not fail
# operations, so they are not in the mix: run.py tries one per run, before
# timing, and reports what it did.
DEEP_RANKS = (500, 2000)

# A sum a + (-b) prints in brace form whose size grows like C(a+b, a), so
# mixed-sign sums are kept at MIXED_SUM_MAX or less per side: at 6 the
# structured document is about 76 kB; at 13 per side the process needs
# more than 1.5 GB, and `sum 150 -100` is killed.
MIXED_SUM_MAX = 6

# argv: the arguments after the program name.  expect: ("lines", [...])
# for the whole of stdout, ("first", line) for its first line, or
# ("tree", doc) for the "tree" of a structured document.
Query = namedtuple("Query", "argv expect")

CENSUS_LINE = "census [dicot]: 10 games, 9 classes"
ENDS_LINE = "scan ends [dead-ending]: 31 checks, 0 violations"
STRONG_L = "L (left L, right L)"
ZERO_DOC = '{"L": [], "R": []}'


def brace_integer(n):
    k = abs(n)
    return ("{" * k + "{|}" + "|}" * k) if n > 0 else ("{|" * k + "{|}" + "}" * k)


def interchange_integer(n):
    """The interchange document of integer(n), as printed with sorted keys.

    Built as a string because deep chains nest deeper than json allows.
    """
    k = abs(n)
    if n > 0:
        return '{"L": [' * k + ZERO_DOC + '], "R": []}' * k
    return '{"L": [], "R": [' * k + ZERO_DOC + ']}' * k


def murder_doc(n):
    """Interchange document of the n-th murder {|0, M(n-1)}."""
    doc = {"L": [], "R": []}
    for _ in range(n):
        zero = {"L": [], "R": []}
        doc = {"L": [], "R": [zero] if doc == zero else [zero, doc]}
    return doc


def brace_doc(doc):
    return "{%s|%s}" % (",".join(brace_doc(x) for x in doc["L"]),
                        ",".join(brace_doc(x) for x in doc["R"]))


def mixed_sum_doc(a, b):
    """Interchange tree of a + (-b): Left moves in a, Right moves in -b."""
    rows = {}
    for i in range(a + 1):
        for j in range(b + 1):
            rows[i, j] = {"L": [rows[i - 1, j]] if i else [],
                          "R": [rows[i, j - 1]] if j else []}
    return rows[a, b]


def _sign(n):
    return (n > 0) - (n < 0)


def _dead_left_end(rng, rank):
    """A dead Left-end of the given rank in brace form, with named atoms."""
    if rank == 0:
        return rng.choice(("0", "{|}"))
    if rank == 1:
        return rng.choice(("-1", "M(1)", "{|0}"))
    opts = [_dead_left_end(rng, rank - 1)]
    opts += [_dead_left_end(rng, rng.randrange(rank)) for _ in range(rng.randint(0, 2))]
    return "{|%s}" % ",".join(opts)


def _parse_small(rng):
    if rng.random() < 0.5:
        n = rng.randint(-9, 9)
        return Query(["parse", str(n)], ("lines", [
            str(n), brace_integer(n), interchange_integer(n)]))
    n = rng.randint(2, 6)
    doc = murder_doc(n)
    return Query(["parse", "M(%d)" % n], ("lines", [
        "M(%d)" % n, brace_doc(doc), json.dumps(doc, sort_keys=True)]))


def _shallow(rng, kind):
    if kind == 0:
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        return Query(["reduce", "--universe", "dead-ending", "%d+-%d" % (a, b)],
                     ("lines", [str(a - b)]))
    if kind == 1:
        n = rng.randint(0, 8)
        return Query(["outcome", "M(%d)" % n], ("lines", ["L" if n else "N"]))
    if kind == 2:
        n = rng.randint(-9, 9)
        return Query(["outcome", str(n)], ("lines", ["NRL"[_sign(n)]]))
    if kind == 3:
        n = rng.randint(-9, 9)
        return Query(["outcome", "--normal", str(n)], ("lines", ["PLR"[_sign(n)]]))
    if kind == 4:
        n = rng.randint(0, 6)
        return Query(["compare", "--universe", "dead-ending",
                      "M(%d)" % n, "M(%d)" % (n + 1)],
                     ("lines", [">=" if n else "incomparable"]))
    if kind == 5:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        return Query(["compare", "--universe", "normal", str(a), str(b)],
                     ("lines", [("=", ">=", "<=")[_sign(a - b)]]))
    if kind == 6:
        s = rng.choice((1, -1))
        a, b = s * rng.randint(0, 9), s * rng.randint(0, 9)
        return Query(["sum", str(a), str(b)], ("lines", [str(a + b)]))
    if kind == 7:
        a, b = rng.randint(1, MIXED_SUM_MAX), rng.randint(1, MIXED_SUM_MAX)
        return Query(["sum", "--format", "structured", str(a), str(-b)],
                     ("tree", mixed_sum_doc(a, b)))
    if kind == 8:
        n = rng.randint(-9, 9)
        return Query(["conj", str(n)], ("lines", [str(-n)]))
    if kind == 9:
        return Query(["strong-outcome", _dead_left_end(rng, rng.randint(1, 3))],
                     ("lines", [STRONG_L]))
    if kind == 10:
        return Query(["enumerate", "--universe", "dicot", "--census"],
                     ("first", CENSUS_LINE))
    if kind == 11:
        return Query(["verify", "ends"], ("first", ENDS_LINE))
    if kind == 12:
        a, b = rng.sample((rng.randint(1, 9), 0, -rng.randint(1, 9)), 2)
        return Query(["distinguish", "--universe", "dead-ending", str(a), str(b)],
                     ("lines", ["fails-with-witness: 0"]))
    return _parse_small(rng)


def deep_chain(seed):
    """One deep chain; every one of them fails at seed."""
    rng = random.Random(seed)
    n = rng.randint(*DEEP_RANKS) * rng.choice((1, -1))
    kind = rng.randrange(3)
    if kind == 0:
        return Query(["parse", str(n)], ("lines", [
            str(n), brace_integer(n), interchange_integer(n)]))
    if kind == 1:
        return Query(["reduce", "--universe", "dead-ending", str(n)],
                     ("lines", [str(n)]))
    return Query(["conj", str(n)], ("lines", [str(-n)]))


def mix(seed):
    """The queries of one client, each kind PER_KIND times in a seeded
    order; the same seed repeats it."""
    rng = random.Random(seed)
    kinds = list(range(KINDS)) * PER_KIND
    rng.shuffle(kinds)
    return [_shallow(rng, kind) for kind in kinds]


def answer_ok(query, stdout):
    """Does the text a successful invocation printed answer the query?"""
    kind, want = query.expect
    if kind == "lines":
        return stdout.splitlines() == want
    if kind == "first":
        lines = stdout.splitlines()
        return bool(lines) and lines[0] == want
    try:
        return json.loads(stdout)["tree"] == want
    except (ValueError, KeyError, TypeError):
        return False
