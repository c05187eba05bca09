"""misere.stats(): entry counts of the memo tables, read without loading."""

import json
import subprocess
import sys

import misere


def _fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stats_loads_no_submodule():
    out = _fresh("import sys, misere; print(misere.stats()); "
                 "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'misere'))")
    assert out.splitlines() == ["{}", "misere"]


def test_stats_names_every_table_of_every_submodule():
    for module in misere._TABLES:
        getattr(misere, module)
    counts = misere.stats()
    assert list(counts) == ["%s.%s" % (module, name)
                            for module, names in misere._TABLES.items()
                            for name in names]
    assert all(isinstance(n, int) and n >= 0 for n in counts.values())


def test_stats_after_the_criterion_09_census_counts_pairs():
    # Acceptance criterion 09 in a fresh interpreter, since every table is
    # process-global.  Each pair in a row memo counts once: the comparison
    # memos hold 40,585 pairs in 3,617 rows.
    out = _fresh("""if True:
        import json, misere
        from misere import EnumerationBudget as B, Universe
        D, E = Universe.DICOT, Universe.DEAD_ENDING
        misere.census(B(2, 4, D), sample_pairs=None)
        misere.census(B(2, 4, E), sample_pairs=None)
        misere.census(B(3, 2, D), sample_pairs=2000, seed=1729)
        pool = misere.sample_rank3_games(E, max_options=2, count=300, seed=1729)
        misere.census(games=pool, universe=E, sample_pairs=2000, seed=1729)
        print(json.dumps(misere.stats()))
        print(len(misere.ordering._GE_DICOT) + len(misere.ordering._GE_DEAD_ENDING))
        """)
    line, rows = out.splitlines()
    counts = json.loads(line)
    assert counts["core._NODES"] == 10_677
    assert counts["ordering._GE_DICOT"] + counts["ordering._GE_DEAD_ENDING"] == 40_585
    assert counts["canonical._CANON"] == 3_695
    assert counts["core._SUMS"] == 6_243
    assert int(rows) == 3_617


def test_stats_counts_the_outcome_vectors_of_one_test_set():
    # The criterion-05 dicot loop: 10 games, each against the 10 dicots,
    # share one test set and store one outcome vector per game, in one row.
    out = _fresh("""if True:
        import json, misere
        from misere import EnumerationBudget as B, Universe
        D = Universe.DICOT
        dicots = misere.enumerate_games(B(2, 4, D))
        print(json.dumps(misere.stats()))
        for g in dicots:
            for h in dicots:
                misere.ge(g, h, D) == misere.definitional_ge_check(g, h, D, dicots)
        print(json.dumps(misere.stats()))
        """)
    before, after = map(json.loads, out.splitlines())
    assert before["ordering._TEST_SETS"] == before["ordering._OUTCOME_VECTORS"] == 0
    assert after["ordering._TEST_SETS"] == 1
    assert after["ordering._OUTCOME_VECTORS"] == 10
