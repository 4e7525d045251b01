import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit.errors import TokenMismatch
from uccakit.evaluation import (
    Counts,
    EdgeSignature,
    STRATA,
    edge_signatures,
    match_count,
    render_scores,
    score_corpus,
    score_passage,
)
from uccakit.graph import NodeKind, build_passage
from uccakit.validation import normalize

from .helpers import (
    counts_triple,
    oracle_scores,
    random_pair,
    random_passage,
    rebuild,
    reference_yields,
    relabel,
)

pairs = st.integers(0, 2**32 - 1).map(lambda seed: random_pair(random.Random(seed)))


def legacy_pair(rng):
    first = random_passage(rng, "pair", legacy_labels=True)
    return first, random_passage(rng, "pair", tokens=list(first.tokens), legacy_labels=True)


legacy_pairs = st.integers(0, 2**32 - 1).map(lambda seed: legacy_pair(random.Random(seed)))


def assert_matches_oracle(output, gold, include_punct):
    scores = score_passage(output, gold, include_punct)
    reference = oracle_scores(output, gold, include_punct)
    for key, strata in (("labeled", scores.labeled), ("unlabeled", scores.unlabeled)):
        for stratum in STRATA:
            assert counts_triple(strata[stratum]) == reference[key][stratum]
    assert {c: counts_triple(n) for c, n in scores.by_category.items()} == reference["by_category"]


def drop_remote(passage):
    return rebuild(passage, lambda e: None if e.remote else e)


def relabel_moved(passage):
    # the second Scene's main relation gets the wrong label
    def edit(e):
        if e.child == passage.terminal_id(5):
            return relabel(e, "S")
        return e

    return rebuild(passage, edit)


class TestEdgeSignatures:
    def test_sample_labeled(self, remote_passage):
        sigs = edge_signatures(remote_passage, labeled=True)
        assert len(sigs) == 11
        assert EdgeSignature((6, 7), "A", False) in sigs
        assert EdgeSignature((7,), "C", False) in sigs
        assert EdgeSignature((4,), "A", True) in sigs

    def test_unlabeled_drops_category(self, remote_passage):
        sigs = edge_signatures(remote_passage, labeled=False)
        assert all(s.category is None for s in sigs)
        assert len(sigs) == 11

    def test_implicit_child_excluded(self, implicit_passage):
        assert len(implicit_passage.edges) == 25
        assert len(edge_signatures(implicit_passage)) == 24

    def test_no_edges(self):
        p = build_passage("p", ["x"])
        p.add_edge(p.root, p.terminal_id(1), "A")
        p.freeze()
        only = edge_signatures(p)
        assert only == [EdgeSignature((1,), "A", False)]

    def test_exclude_punct(self, remote_passage):
        sigs = edge_signatures(remote_passage, include_punct=False)
        assert len(sigs) == 10
        assert not any(s.category == "U" for s in sigs)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.booleans(), st.booleans())
    def test_against_tuple_yields(self, seed, max_tokens, labeled, include_punct):
        p = random_passage(random.Random(seed), max_tokens=max_tokens,
                           max_units=1 + max_tokens // 3, legacy_labels=True)
        yields = reference_yields(p)
        assert edge_signatures(p, labeled, include_punct) == [
            EdgeSignature(yields[e.child], e.category.code if labeled else None, e.remote)
            for e in p.edges
            if yields[e.child] and (include_punct or e.category.code != "U")
        ]


class TestMatchCount:
    def test_identity(self, remote_passage):
        sigs = edge_signatures(remote_passage)
        assert match_count(sigs, sigs) == 11

    def test_multiset_semantics(self):
        sig = EdgeSignature((1,), "E", False)
        assert match_count([sig], [sig, sig]) == 1
        assert match_count([sig, sig], [sig]) == 1

    def test_remote_deletion(self, remote_passage):
        gold = edge_signatures(remote_passage)
        out = edge_signatures(drop_remote(remote_passage))
        primary = [s for s in gold if not s.remote]
        assert match_count(out, primary) == 10
        assert match_count([s for s in out if s.remote], [s for s in gold if s.remote]) == 0


class TestScorePassage:
    def test_identity_is_perfect(self, remote_passage):
        scores = score_passage(remote_passage, remote_passage)
        for stratum in STRATA:
            assert scores.labeled[stratum].f1 == 1.0
            assert scores.unlabeled[stratum].f1 == 1.0
        for counts in scores.by_category.values():
            assert counts.f1 == 1.0

    def test_relabeled_main_relation(self, remote_passage):
        scores = score_passage(relabel_moved(remote_passage), remote_passage)
        primary = scores.labeled["primary"]
        assert primary.precision == pytest.approx(0.9)
        assert primary.recall == pytest.approx(0.9)
        assert primary.f1 == pytest.approx(0.9)
        assert scores.unlabeled["primary"].f1 == 1.0
        assert scores.by_category["P"].recall == pytest.approx(0.5)
        assert scores.by_category["P"].precision == 1.0
        assert counts_triple(scores.by_category["S"]) == (0, 1, 0)
        assert scores.by_category["S"].f1 == 0.0

    def test_deleted_remote(self, remote_passage):
        scores = score_passage(drop_remote(remote_passage), remote_passage)
        assert scores.labeled["primary"].f1 == 1.0
        remote = scores.labeled["remote"]
        assert counts_triple(remote) == (0, 0, 1)
        assert remote.precision == 0.0
        assert remote.recall == 0.0
        assert remote.f1 == 0.0
        expected_all = 2 * 1.0 * (10 / 11) / (1.0 + 10 / 11)
        assert scores.labeled["all"].f1 == pytest.approx(expected_all, abs=1e-12)

    def test_token_mismatch(self, remote_passage):
        other = random_passage(random.Random(0), tokens=["just", "one"])
        with pytest.raises(TokenMismatch):
            score_passage(other, remote_passage)

    def test_token_text_mismatch(self, remote_passage):
        tokens = list(remote_passage.tokens)
        tokens[0] = "Before"
        other = random_passage(random.Random(1), tokens=tokens)
        with pytest.raises(TokenMismatch):
            score_passage(other, remote_passage)

    def test_empty_stratum_on_both_sides_is_perfect(self, implicit_passage):
        scores = score_passage(implicit_passage, implicit_passage)
        assert counts_triple(scores.labeled["remote"]) == (0, 0, 0)
        assert scores.labeled["remote"].f1 == 1.0


class TestScoreCorpus:
    def test_single_pair_matches_score_passage(self, remote_passage):
        single = score_corpus([(remote_passage, remote_passage)])
        direct = score_passage(remote_passage, remote_passage)
        assert single.to_dict() == direct.to_dict()

    def test_two_identical_pairs_keep_f1(self, remote_passage):
        out = drop_remote(remote_passage)
        once = score_corpus([(out, remote_passage)])
        twice = score_corpus([(out, remote_passage)] * 2)
        for stratum in STRATA:
            assert twice.labeled[stratum].f1 == pytest.approx(once.labeled[stratum].f1)
        assert twice.labeled["all"].matched == 2 * once.labeled["all"].matched

    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_matches_oracle(self, pair):
        output, gold = pair
        scores = score_passage(output, gold)
        reference = oracle_scores(output, gold)
        for key, strata in (("labeled", scores.labeled), ("unlabeled", scores.unlabeled)):
            for stratum in STRATA:
                assert counts_triple(strata[stratum]) == reference[key][stratum]
        assert {
            c: counts_triple(n) for c, n in scores.by_category.items()
        } == reference["by_category"]


    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_matches_oracle_without_punct(self, pair):
        assert_matches_oracle(*pair, include_punct=False)

    @settings(max_examples=150, deadline=None)
    @given(legacy_pairs, st.booleans())
    def test_matches_oracle_after_normalize(self, pair, include_punct):
        output, gold = (normalize(p) for p in pair)
        assert_matches_oracle(output, gold, include_punct)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def test_symmetry(self, pair):
        a, b = pair
        forward, backward = score_passage(a, b), score_passage(b, a)
        for stratum in STRATA:
            assert forward.labeled[stratum].precision == backward.labeled[stratum].recall
            assert forward.unlabeled[stratum].precision == backward.unlabeled[stratum].recall

    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def test_count_structure(self, pair):
        output, gold = pair
        s = score_passage(output, gold)
        for strata in (s.labeled, s.unlabeled):
            for stratum in STRATA:
                c = strata[stratum]
                assert c.matched <= min(c.predicted, c.gold)
            for field in ("matched", "predicted", "gold"):
                assert getattr(strata["all"], field) == getattr(
                    strata["primary"], field
                ) + getattr(strata["remote"], field)
        for stratum in STRATA:
            assert s.labeled[stratum].matched <= s.unlabeled[stratum].matched
        assert sum(c.matched for c in s.by_category.values()) == s.labeled["all"].matched

    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def test_deleting_an_edge_never_helps(self, pair):
        output, gold = pair
        base = score_passage(output, gold).labeled["all"].matched
        for edge in output.edges:
            if not edge.remote:
                continue  # dropping a primary edge would break the tree
            smaller = rebuild(output, lambda e: None if e == edge else e)
            assert score_passage(smaller, gold).labeled["all"].matched <= base


class TestCountsConvention:
    def test_zero_denominator_against_nonempty(self):
        assert Counts(0, 0, 3).precision == 0.0
        assert Counts(0, 3, 0).recall == 0.0

    def test_empty_both_sides(self):
        c = Counts(0, 0, 0)
        assert (c.precision, c.recall, c.f1) == (1.0, 1.0, 1.0)

    def test_f1_zero_when_pr_zero(self):
        assert Counts(0, 2, 3).f1 == 0.0


class TestRendering:
    def test_table_and_json_agree(self, remote_passage):
        scores = score_passage(drop_remote(remote_passage), remote_passage)
        payload = scores.to_dict()
        table = render_scores(payload)
        assert f"{payload['labeled']['all']['f1']:.3f}" in table
        assert "10/10/11" in table

    def test_snapshot_layout(self, remote_passage):
        scores = score_passage(drop_remote(remote_passage), remote_passage)
        expected = "\n".join(
            [
                "stratum                      P       R      F1   matched/predicted/gold",
                "labeled/all              1.000   0.909   0.952   10/10/11",
                "labeled/primary          1.000   1.000   1.000   10/10/10",
                "labeled/remote           0.000   0.000   0.000   0/0/1",
                "unlabeled/all            1.000   0.909   0.952   10/10/11",
                "unlabeled/primary        1.000   1.000   1.000   10/10/10",
                "unlabeled/remote         0.000   0.000   0.000   0/0/1",
            ]
        )
        payload = scores.to_dict()
        del payload["by_category"]
        assert render_scores(payload) == expected
