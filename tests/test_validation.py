import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit.categories import LEGACY_REPLACEMENT
from uccakit.errors import GraphError
from uccakit.graph import NodeKind, build_passage
from uccakit.validation import RULES, RuleSet, normalize, validate

from .helpers import CODES, PUNCT, flipped_types, random_passage, rebuild, relabel
from .samples import implicit_sample, remote_sample

legacy_passages = st.integers(0, 2**32 - 1).map(
    lambda seed: random_passage(random.Random(seed), legacy_labels=True)
)


def passage_with_labels(*codes):
    p = build_passage("p", ["a"] * (len(codes) or 1))
    for k, code in enumerate(codes, start=1):
        p.add_edge(p.root, p.terminal_id(k), code)
    return p.freeze()


def assert_tables_agree(p):
    """Every edge of a sealed passage is listed once under its parent, the
    tables hold no other edge, and the reentrant nodes are the children of
    its remote edges."""
    for edge in p.edges:
        assert p.outgoing(edge.parent).count(edge) == 1
    assert sum(len(p.outgoing(n.id)) for n in p.nodes) == len(p.edges)
    assert {n.id for n in p.nodes if p.is_reentrant(n.id)} == {edge.child for edge in p.edges if edge.remote}
    assert p.edges is p.edges and type(p.outgoing(p.root)) is tuple


class TestNormalize:
    def test_time_becomes_adverbial(self):
        p = normalize(passage_with_labels("T"))
        assert [e.category.code for e in p.edges] == ["D"]

    def test_quantifier_becomes_elaborator_on_remote(self):
        raw = build_passage("p", ["a", "b"])
        u = raw.add_node(NodeKind.NON_TERMINAL)
        raw.add_edge(raw.root, u, "H")
        raw.add_edge(raw.root, raw.terminal_id(1), "A")
        raw.add_edge(u, raw.terminal_id(2), "C")
        raw.add_edge(u, raw.terminal_id(1), "Q", remote=True)
        p = normalize(raw.freeze())
        remote = next(e for e in p.edges if e.remote)
        assert remote.category.code == "E"

    # The remote D edge listed after the remote T edge is not relabeled, yet
    # equals the relabeled one and must be dropped all the same.
    @pytest.mark.parametrize("codes", [("T", "D"), ("D", "T")], ids=["T-first", "D-first"])
    def test_remote_time_and_adverbial_to_one_unit_keep_one_edge(self, codes):
        raw = build_passage("p", ["a", "b"])
        u = raw.add_node(NodeKind.NON_TERMINAL)
        raw.add_edge(raw.root, u, "H")
        raw.add_edge(u, raw.terminal_id(1), "P")
        raw.add_edge(raw.root, raw.terminal_id(2), "A")
        for code in codes:
            raw.add_edge(raw.root, u, code, remote=True)
        p = normalize(raw.freeze())
        remotes = [(e.parent, e.child, e.category.code) for e in p.edges if e.remote]
        assert remotes == [(raw.root, u, "D")]
        assert len(p.edges) == 4
        assert [(e.category.code, e.remote) for e in p.edges if e.child == u] == [("H", False), ("D", True)]
        assert p.is_reentrant(u)
        assert_tables_agree(p)

    def test_fixed_point_returns_same_structure(self, remote_passage):
        assert normalize(remote_passage) == remote_passage

    @settings(max_examples=200)
    @given(legacy_passages)
    def test_idempotent(self, p):
        once = normalize(p)
        assert normalize(once) == once

    @settings(max_examples=200)
    @given(legacy_passages)
    def test_preserves_everything_but_legacy_codes(self, p):
        q = normalize(p)
        assert {n.id for n in q.nodes} == {n.id for n in p.nodes}
        replacement = {"T": "D", "Q": "E"}
        expected, seen = [], set()
        for e in p.edges:
            key = (e.parent, e.child, replacement.get(e.category.code, e.category.code), e.remote)
            if key not in seen:  # relabeling may collapse exact duplicates
                seen.add(key)
                expected.append(key)
        assert [
            (e.parent, e.child, e.category.code, e.remote) for e in q.edges
        ] == expected
        for node in p.nodes:
            assert q.yield_of(node.id) == p.yield_of(node.id)


    @settings(max_examples=200)
    @given(legacy_passages)
    def test_sealed_tables_agree(self, p):
        assert_tables_agree(normalize(p))

    @settings(max_examples=200)
    @given(legacy_passages)
    def test_relabeling_equals_rebuilding(self, p):
        labels = [e.category.code for e in p.edges]
        seen = set()

        def edit(e):
            code = LEGACY_REPLACEMENT.get(e.category.code, e.category.code)
            key = (e.parent, e.child, code, e.remote)
            if key in seen:
                return None
            seen.add(key)
            return relabel(e, code)

        rebuilt = rebuild(p, edit)
        q = normalize(p)
        assert q.sealed and q == rebuilt
        for node in p.nodes:
            assert q.yield_of(node.id) == rebuilt.yield_of(node.id)
        assert [e.category.code for e in p.edges] == labels

    def test_unsealed_input_refused(self):
        raw = build_passage("p", ["a", "b"])
        raw.add_edge(raw.root, raw.terminal_id(1), "T")
        raw.add_edge(raw.root, raw.terminal_id(2), "C")
        with pytest.raises(GraphError, match=r"^passage must be sealed first; call freeze\(\)$"):
            normalize(raw)
        assert not raw.sealed
        assert [e.category.code for e in raw.edges] == ["T", "C"]


class TestRuleSet:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleSet(frozenset({"V99"}))

    def test_subset_allowed(self):
        rules = RuleSet(frozenset({"V1", "V2"}))
        assert "V1" in rules
        assert "V3" not in rules


def breaks_v0_to_v3():
    """A legacy label (V0), a Scene with two main relations (V1) and no
    Participant (V2), and punctuation attached as Q (V3)."""
    p = build_passage("p", ["x", ",", "y", "z"])
    scene = p.add_node(NodeKind.NON_TERMINAL)
    p.add_edge(p.root, scene, "H")
    p.add_edge(p.root, p.terminal_id(2), "Q")
    p.add_edge(scene, p.terminal_id(1), "P")
    p.add_edge(scene, p.terminal_id(3), "S")
    p.add_edge(scene, p.terminal_id(4), "T")
    return p.freeze()


RULE_SUBSETS = [
    frozenset(subset) for n in range(len(RULES) + 1) for subset in itertools.combinations(RULES, n)
]


def assert_subsets_filter_full_report(p):
    everything = validate(p).violations
    for subset in RULE_SUBSETS:
        expected = [v for v in everything if v.rule in subset]
        assert validate(p, RuleSet(subset)).violations == expected


class TestRuleSubsets:
    """Any rule set reports exactly the full report's violations of its
    rules, in the same order."""

    @settings(max_examples=100)
    @given(legacy_passages)
    def test_random_passages(self, p):
        assert_subsets_filter_full_report(p)

    @pytest.mark.parametrize("make", [remote_sample, implicit_sample, breaks_v0_to_v3],
                             ids=["remote", "implicit", "V0-V3"])
    def test_fixed_passages(self, make):
        assert_subsets_filter_full_report(make())

    def test_hand_written_passage_breaks_v0_to_v3(self):
        assert {v.rule for v in validate(breaks_v0_to_v3()).violations} == {"V0", "V1", "V2", "V3"}


def relabeled_copy(p, rng):
    """A copy of `p` with about a third of its edges, primary and remote,
    relabeled onto U or off it; a relabeling that would repeat an edge is skipped."""
    taken = set(p.edges)

    def edit(edge):
        if rng.random() < 0.3:
            new = relabel(edge, rng.choice(CODES) if edge.category.code == "U" else "U")
            if new not in taken:
                taken.add(new)
                return new
        return edge

    return rebuild(p, edit)


class TestPunctuationRule:
    """V3 judges every edge, primary or remote: it flags exactly the edges
    whose child is a terminal typed Punctuation xor whose label is U, in edge
    order.  A terminal's type is its text's unless the passage gives one."""

    @staticmethod
    def expected(p, punctuation):
        flagged = []
        for parent, child, category, _ in p.edges:
            node = p.node(child)
            punct = node.is_terminal and node.position in punctuation
            if punct != (category.code == "U"):
                message = (f"punctuation token attached as {category.code}, expected U" if punct
                           else "U edge points at a non-punctuation node")
                flagged.append(("V3", f"{parent}->{child}", message))
        return flagged

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        p = random_passage(rng, max_remotes=4)
        by_text = {position for position, token in enumerate(p.tokens, start=1) if token in PUNCT}
        flipped = flipped_types(p, rng)
        for q, punctuation in ((p, by_text), (relabeled_copy(p, rng), by_text),
                               (rebuild(p, punctuation=flipped), flipped)):
            assert [tuple(v) for v in validate(q, RuleSet({"V3"})).violations] == self.expected(q, punctuation)


class TestValidate:
    def test_samples_are_clean(self, remote_passage, implicit_passage):
        assert validate(remote_passage).ok
        assert validate(implicit_passage).ok

    def test_implicit_alone_satisfies_participant_rule(self, implicit_passage):
        # leave only the implicit unit as Participant: V2 must stay quiet
        def keep_implicit_only(e):
            child = implicit_passage.node(e.child)
            if e.category.code == "A" and child.kind is not NodeKind.IMPLICIT:
                return relabel(e, "D")
            return e

        assert validate(rebuild(implicit_passage, keep_implicit_only)).ok

    def test_remote_satisfies_participant_rule(self, remote_passage):
        report = validate(remote_passage)
        assert report.ok  # first Scene's only Participant is remote

    def test_two_main_relations(self, remote_passage):
        # relabel the "John" edge of the second Scene to a State
        def edit(e):
            if e.child == remote_passage.terminal_id(4) and not e.remote:
                return relabel(e, "S")
            return e

        mutated = rebuild(remote_passage, edit)
        report = validate(mutated)
        assert any(v.rule == "V1" for v in report.violations)

    def test_legacy_label_fires_v0(self):
        report = validate(passage_with_labels("T"))
        assert [v.rule for v in report.violations] == ["V0"]

    def test_punctuation_not_under_u(self):
        p = build_passage("p", [","])
        p.add_edge(p.root, p.terminal_id(1), "F")
        report = validate(p.freeze())
        assert [v.rule for v in report.violations] == ["V3"]

    def test_u_pointing_at_word(self):
        p = build_passage("p", ["hello"])
        p.add_edge(p.root, p.terminal_id(1), "U")
        report = validate(p.freeze())
        assert [v.rule for v in report.violations] == ["V3"]

    def test_disabled_rules_stay_silent(self):
        report = validate(passage_with_labels("T"), RuleSet(frozenset({"V3"})))
        assert report.ok

    def test_json_lines(self):
        report = validate(passage_with_labels("T"))
        import json

        lines = [json.loads(line) for line in report.to_json_lines().splitlines()]
        assert lines and lines[0]["rule"] == "V0"
        assert set(lines[0]) == {"passage", "rule", "ref", "message"}

    def test_violation_order_and_refs(self):
        # Edge rule V0 in edge order, then V1/V2 per unit, then V3.
        p = build_passage("p", ["x", ",", "y", "z"])
        scene = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, scene, "H")
        p.add_edge(p.root, p.terminal_id(2), "Q")
        p.add_edge(scene, p.terminal_id(1), "P")
        p.add_edge(scene, p.terminal_id(3), "S")
        p.add_edge(scene, p.terminal_id(4), "T")
        report = validate(p.freeze())
        assert [(v.rule, v.ref) for v in report.violations] == [
            ("V0", "1.1->0.2"),
            ("V0", "1.2->0.4"),
            ("V1", "1.2"),
            ("V2", "1.2"),
            ("V3", "1.1->0.2"),
        ]

    def test_removing_participants_fires_v2(self, remote_passage):
        stripped = rebuild(
            remote_passage,
            lambda e: relabel(e, "D") if e.category.code == "A" else e,
        )
        flagged = {v.ref for v in validate(stripped).violations if v.rule == "V2"}
        scenes = {
            str(u.id)
            for u in stripped.non_terminals
            if any(e.category.code in "PS" for e in stripped.outgoing(u.id))
        }
        assert flagged == scenes
