"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The corpus reproduction checks only run when the public corpora
have been downloaded (see the environment variables below).
"""
import functools
import os
import random
import time
from pathlib import Path

import pytest

from uccakit.evaluation import STRATA, render_scores, score_passage
from uccakit.formats import parse_xml, serialize_xml
from uccakit.graph import NodeId
from uccakit.stats import corpus_stats
from uccakit.validation import normalize

from .helpers import counts_triple, oracle_scores, random_pair, random_passage, rebuild
from .samples import implicit_sample, remote_sample

#: Directory of normalized English-Wiki passage XML files (all splits).
WIKI_ENV = "UCCAKIT_WIKI_DIR"
#: Directory of the German test split passage XML files.
GERMAN_TEST_ENV = "UCCAKIT_DE_TEST_DIR"


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"SKIP  {name}")
                raise
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return wrapper

    return decorate


def nonempty_strata(scores):
    for table in (scores.labeled, scores.unlabeled):
        for stratum in STRATA:
            if table[stratum].gold or table[stratum].predicted:
                yield table[stratum]


@criterion("identity scoring: F1 = 1.0 exactly in every non-empty stratum")
def test_identity_scoring():
    rng = random.Random(20190601)
    passages = [remote_sample(), implicit_sample()]
    passages += [random_passage(rng, f"r{i}") for i in range(200)]
    start = time.perf_counter()
    for p in passages:
        scores = score_passage(p, p)
        for counts in nonempty_strata(scores):
            assert counts.f1 == 1.0
        for counts in scores.by_category.values():
            assert counts.f1 == 1.0
    assert time.perf_counter() - start < 1.0


@criterion("oracle equivalence on 1000 random passage pairs")
def test_oracle_equivalence():
    rng = random.Random(42)
    start = time.perf_counter()
    for _ in range(1000):
        output, gold = random_pair(rng)
        scores = score_passage(output, gold)
        reference = oracle_scores(output, gold)
        for key, table in (("labeled", scores.labeled), ("unlabeled", scores.unlabeled)):
            for stratum in STRATA:
                assert counts_triple(table[stratum]) == reference[key][stratum], (
                    key,
                    stratum,
                )
        assert {
            code: counts_triple(c) for code, c in scores.by_category.items()
        } == reference["by_category"]
    assert time.perf_counter() - start < 30.0


@criterion("shared-Participant fixture analytics: exact structural counts")
def test_fixture_analytics():
    p = remote_sample()
    assert len(p.terminals) == 7
    assert len(p.non_terminals) == 4
    assert len(p.edges) == 11
    assert sum(not e.remote for e in p.edges) == 10
    assert sum(e.remote for e in p.edges) == 1
    assert p.is_reentrant(p.terminal_id(4))  # "John"
    assert not any(p.is_discontinuous(u.id) for u in p.non_terminals)


@criterion("remote deletion: primary F1 1.0, remote F1 0.0, all F1 = 20/21")
def test_remote_deletion_scores():
    gold = remote_sample()
    output = rebuild(gold, lambda e: None if e.remote else e)
    scores = score_passage(output, gold)
    assert scores.labeled["primary"].f1 == 1.0
    assert scores.labeled["remote"].f1 == 0.0
    by_hand = 2 * (10 / 10) * (10 / 11) / ((10 / 10) + (10 / 11))
    assert abs(scores.labeled["all"].f1 - by_hand) < 1e-9


@criterion("normalization: T->D, Q->E, idempotent on 500 random passages")
def test_normalization():
    rng = random.Random(7)
    for _ in range(500):
        p = random_passage(rng, legacy_labels=True)
        once = normalize(p)
        assert not any(e.category.code in ("T", "Q") for e in once.edges)
        for before, after in zip(p.edges, once.edges):
            if before.category.code == "T":
                assert after.category.code == "D"
            elif before.category.code == "Q":
                assert after.category.code == "E"
        assert normalize(once) == once


@criterion("round-trip: parse/serialize isomorphism and determinism")
def test_round_trip():
    rng = random.Random(99)
    passages = [remote_sample(), implicit_sample()]
    passages += [random_passage(rng, f"rt{i}") for i in range(500)]
    for p in passages:
        blob = serialize_xml(p)
        again = parse_xml(blob)
        assert again == p
        assert serialize_xml(again) == blob
        assert serialize_xml(p) == blob


@criterion("score report layout renders from EvalScores (snapshot)")
def test_report_layout_snapshot():
    gold = remote_sample()
    output = rebuild(gold, lambda e: None if e.remote else e)
    table = render_scores(score_passage(output, gold).to_dict())
    expected = """\
stratum                      P       R      F1   matched/predicted/gold
labeled/all              1.000   0.909   0.952   10/10/11
labeled/primary          1.000   1.000   1.000   10/10/10
labeled/remote           0.000   0.000   0.000   0/0/1
unlabeled/all            1.000   0.909   0.952   10/10/11
unlabeled/primary        1.000   1.000   1.000   10/10/10
unlabeled/remote         0.000   0.000   0.000   0/0/1

category                     P       R      F1   matched/predicted/gold
Process                  1.000   1.000   1.000   2/2/2
Participant              1.000   0.667   0.800   2/2/3
Center                   1.000   1.000   1.000   1/1/1
Relator                  1.000   1.000   1.000   1/1/1
Parallel Scene           1.000   1.000   1.000   2/2/2
Linker                   1.000   1.000   1.000   1/1/1
Punctuation              1.000   1.000   1.000   1/1/1"""
    assert table == expected


def _corpus(env_var):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"set {env_var} to a directory of passage XML files")
    files = sorted(Path(path).glob("*.xml"))
    if not files:
        pytest.skip(f"{env_var}={path} contains no XML files")
    return (normalize(parse_xml(f.read_bytes())) for f in files)


@criterion("English-Wiki structure: remote/discontinuous/reentrant shares")
def test_wiki_structure_reproduction():
    report = corpus_stats(_corpus(WIKI_ENV))
    assert abs(report.pct_remote - 2.60) <= 0.05
    assert abs(report.pct_discontinuous - 1.71) <= 0.05
    assert abs(report.pct_reentrant - 1.84) <= 0.05


@criterion("German test split: exact sentence count")
def test_german_test_split_count():
    report = corpus_stats(_corpus(GERMAN_TEST_ENV))
    assert report.passages == 652
