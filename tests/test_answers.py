"""No answer changed: the program's answers against the corpus in answers.json.

See answers.py for what the corpus holds and how to regenerate it.
"""

import json

import pytest

import answers

with open(answers.CORPUS) as f:
    CORPUS = json.load(f)


@pytest.fixture(autouse=True)
def _default_budgets(monkeypatch):
    for name in ("MISERE_MAX_RANK", "MISERE_MAX_OPTIONS"):
        monkeypatch.delenv(name, raising=False)


def test_corpus_holds_every_query():
    assert [q[0] for q in CORPUS["queries"]] == answers.QUERIES


@pytest.mark.parametrize("argv, code, out, err", CORPUS["queries"],
                         ids=[" ".join(q[0]) for q in CORPUS["queries"]])
def test_query_answer_unchanged(argv, code, out, err):
    assert answers.run_query(argv) == [code, out, err]


def test_digests_unchanged():
    assert answers.digests() == CORPUS["digests"]
