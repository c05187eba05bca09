"""The answer corpus behind ``test_answers.py``: what the program says, pinned.

``QUERIES`` are command lines whose stdout, stderr and exit code are kept
as text in ``answers.json``; the larger sets (census reports, traced
canonical forms, a sampled scan) are kept as one SHA-256 digest each,
with the number of games or reports it covers.  The digests catch a
change of answer, not an error: the independent anchors stay in the
other tests.

Regenerate the corpus only when an answer is meant to change, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/answers.py
"""

import contextlib
import hashlib
import io
import json
import os

import misere
from misere import EnumerationBudget, Universe, cli

D = Universe.DICOT
E = Universe.DEAD_ENDING

# The 42 queries of the benchmark's cli mix at seed 1729, copied here so
# the corpus does not depend on the benchmark.
QUERIES = [
    ["sum", "--format", "structured", "5", "-3"],
    ["conj", "9"],
    ["conj", "5"],
    ["distinguish", "--universe", "dead-ending", "0", "-7"],
    ["enumerate", "--universe", "dicot", "--census"],
    ["parse", "-1"],
    ["compare", "--universe", "normal", "3", "-6"],
    ["sum", "--format", "structured", "2", "-2"],
    ["outcome", "M(7)"],
    ["outcome", "0"],
    ["conj", "8"],
    ["strong-outcome", "{|-1,-1,M(1)}"],
    ["reduce", "--universe", "dead-ending", "8+-7"],
    ["verify", "ends"],
    ["outcome", "5"],
    ["sum", "--format", "structured", "2", "-3"],
    ["outcome", "--normal", "-6"],
    ["parse", "7"],
    ["sum", "0", "-4"],
    ["distinguish", "--universe", "dead-ending", "6", "-7"],
    ["sum", "-7", "-2"],
    ["reduce", "--universe", "dead-ending", "7+-8"],
    ["compare", "--universe", "normal", "-1", "7"],
    ["reduce", "--universe", "dead-ending", "7+-8"],
    ["outcome", "M(8)"],
    ["outcome", "--normal", "-6"],
    ["enumerate", "--universe", "dicot", "--census"],
    ["compare", "--universe", "dead-ending", "M(2)", "M(3)"],
    ["verify", "ends"],
    ["strong-outcome", "{|{|0}}"],
    ["sum", "7", "4"],
    ["compare", "--universe", "normal", "9", "-9"],
    ["strong-outcome", "{|{|M(1),0},{|M(1),0},{|}}"],
    ["compare", "--universe", "dead-ending", "M(3)", "M(4)"],
    ["verify", "ends"],
    ["outcome", "--normal", "0"],
    ["enumerate", "--universe", "dicot", "--census"],
    ["outcome", "M(8)"],
    ["compare", "--universe", "dead-ending", "M(2)", "M(3)"],
    ["distinguish", "--universe", "dead-ending", "0", "-5"],
    ["outcome", "-9"],
    ["parse", "M(3)"],
]

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


def run_query(argv):
    """[exit code, stdout, stderr] of one command line, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return [code, out.getvalue(), err.getvalue()]


def _digest(docs):
    """{"count": how many documents, "sha256": digest of them as JSON}."""
    text = json.dumps(docs, sort_keys=True)
    return {"count": len(docs),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _census_docs(seed):
    """to_doc() of the four census reports of acceptance criterion 09."""
    pool = misere.sample_rank3_games(E, max_options=2, count=300, seed=seed)
    return [rep.to_doc() for rep in (
        misere.census(EnumerationBudget(2, 4, D), sample_pairs=None, seed=seed),
        misere.census(EnumerationBudget(2, 4, E), sample_pairs=None, seed=seed),
        misere.census(EnumerationBudget(3, 2, D), sample_pairs=2000, seed=seed),
        misere.census(games=pool, universe=E, sample_pairs=2000, seed=seed))]


def _traced_docs(u):
    """Every traced canonical form of the rank-2 slice of u, in interchange
    form with its steps."""
    docs = []
    for g in misere.enumerate_games(EnumerationBudget(2, 4, u)):
        canon, steps = misere.canonical_form_traced(g, u)
        docs.append([misere.to_interchange(g), misere.to_interchange(canon),
                     [misere.step_to_doc(s) for s in steps]])
    return docs


def digests():
    """Name -> {"count", "sha256"} of each large answer set."""
    return {
        "census criterion 09, seed 1729": _digest(_census_docs(1729)),
        "census criterion 09, seed 4242": _digest(_census_docs(4242)),
        "canonical_form_traced, rank-2 dicot": _digest(_traced_docs(D)),
        "canonical_form_traced, rank-2 dead-ending": _digest(_traced_docs(E)),
        "scan_cancellativity(E, samples=60, max_rank=2, max_options=2)": _digest(
            [misere.scan_cancellativity(E, samples=60, max_rank=2,
                                        max_options=2).to_doc()]),
    }


def corpus():
    return {"queries": [[argv, *run_query(argv)] for argv in QUERIES],
            "digests": digests()}


if __name__ == "__main__":
    for name in ("MISERE_MAX_RANK", "MISERE_MAX_OPTIONS"):
        os.environ.pop(name, None)
    with open(CORPUS, "w") as f:
        json.dump(corpus(), f, indent=1, sort_keys=True)
        f.write("\n")
