import copy
import pickle
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uccakit import graph
from uccakit.categories import ALL_CODES, LEGACY_REPLACEMENT, Category
from uccakit.errors import (
    DuplicateEdge,
    DuplicatePrimaryParent,
    GraphError,
    SealedPassage,
    StructuralViolation,
    TerminalAsParent,
    UnknownCategory,
    UnknownNode,
    shown,
)
from uccakit.evaluation import edge_signatures, score_passage
from uccakit.formats import export_bilexical, export_text, parse_xml, serialize_xml
from uccakit.graph import Edge, NodeId, NodeKind, Passage, build_passage, normalize
from uccakit.stats import corpus_stats
from uccakit.validation import validate

from .helpers import (
    deep_center_chain,
    flipped_types,
    random_passage,
    rebuild,
    reference_assemble,
    reference_parse_xml,
    reference_yields,
)
from .samples import implicit_sample, remote_sample

#: Each query that reads what freeze computes, and each module function that needs a sealed passage.
SEALED_ONLY = {
    "yield_keys": Passage.yield_keys,
    "yield_of": lambda p: p.yield_of(p.root),
    "bottom_up": Passage.bottom_up,
    "is_discontinuous": lambda p: p.is_discontinuous(p.root),
    "normalize": normalize,
    "validate": validate,
    "score_passage": lambda p: score_passage(p, p),
    "edge_signatures": edge_signatures,
    "corpus_stats": lambda p: corpus_stats([p]),
    "serialize_xml": serialize_xml,
    "export_text": export_text,
    "export_bilexical": export_bilexical,
}

passages = st.integers(0, 2**32 - 1).map(
    lambda seed: random_passage(random.Random(seed))
)


class TestNodeId:
    def test_bad_id_rejected(self):
        with pytest.raises(GraphError):
            NodeId(1, 0)
        with pytest.raises(GraphError):
            NodeId.parse("1.x")

    # int() reads each of these, so the first five once parsed as 1.2 or 10.1,
    # and the leading zeros as the id they spell out; str() writes none of them.
    @pytest.mark.parametrize("text", [" 1.2 ", "+1.2", "\u0661.\u0662", "1_0.1", "1.2\n",
                                      "1.02", "01.1", "00.1", "1.00", "-1.1", "1.0", "1.2.3", "1", ""])
    def test_parse_accepts_ascii_digits_only(self, text):
        with pytest.raises(GraphError, match="^malformed node id: "):
            NodeId.parse(text)

    @given(st.builds(NodeId, st.integers(0, 10**30), st.integers(1, 10**30)))
    def test_parse_inverts_str(self, nid):
        assert NodeId.parse(str(nid)) == nid

    @given(st.text(st.sampled_from("0123456789.+-_ \n\u0661"), max_size=8) | st.text(max_size=8))
    @example("1.02")
    @example("0.1")
    def test_parse_accepts_only_str_of_its_id(self, text):
        try:
            nid = NodeId.parse(text)
        except GraphError:
            return
        assert str(nid) == text

    def test_fields_and_text(self):
        nid = NodeId(1, 12)
        assert (nid.layer, nid.index) == (1, 12)
        assert str(nid) == "1.12"
        assert repr(nid) == "NodeId(layer=1, index=12)"
        assert NodeId.parse("1.12") == nid
        assert nid == (1, 12)
        assert hash(nid) == hash(NodeId(1, 12))

    def test_pickle_and_copy(self):
        nid = NodeId(0, 3)
        for clone in (pickle.loads(pickle.dumps(nid)), copy.copy(nid), copy.deepcopy(nid)):
            assert type(clone) is NodeId
            assert clone == nid and hash(clone) == hash(nid)
            assert repr(clone) == "NodeId(layer=0, index=3)"

    def test_sorted_by_layer_then_index(self):
        ids = [NodeId(1, 2), NodeId(0, 10), NodeId(1, 10), NodeId(0, 2)]
        assert [str(n) for n in sorted(ids)] == ["0.2", "0.10", "1.2", "1.10"]


class TestBuildPassage:
    def test_fresh_passage(self):
        p = build_passage(
            "p1", ["After", "graduation", ",", "John", "moved", "to", "Paris"]
        )
        assert len(p.terminals) == 7
        assert len(p.non_terminals) == 1
        assert not p.edges
        assert [t.position for t in p.terminals] == list(range(1, 8))

    def test_single_token(self):
        p = build_passage("p0", ["x"])
        assert len(p.terminals) == 1
        assert p.root == NodeId(1, 1)

    def test_empty_tokens_rejected(self):
        with pytest.raises(GraphError):
            build_passage("p-empty", [])

    # A position is an int, not a bool: True once named terminal 1, and 1.0 raised a bare TypeError.
    @pytest.mark.parametrize("position", [0, -1, 3, True, 1.0, "1"])
    def test_terminal_id_out_of_range(self, position):
        p = build_passage("p", ["x", "y"])
        with pytest.raises(UnknownNode) as raised:
            p.terminal_id(position)
        assert str(raised.value) == f"no terminal at position {position!r}"

    def test_terminal_id(self):
        p = build_passage("p", ["x", "y"])
        assert [p.terminal_id(k) for k in (1, 2)] == [t.id for t in p.terminals]
        assert type(p.terminal_id(1)) is NodeId

    def test_root_outside_layer_one_rejected(self):
        with pytest.raises(GraphError, match=r"^units must live in layer 1: 0\.1$"):
            Passage("p", ["a"], root_id=NodeId(0, 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: NodeId(1, 2.0), "bad node id: 1.2.0"),
        (lambda: NodeId(1, True), "bad node id: 1.True"),
        (lambda: NodeId("1", 2), "bad node id: '1'.2"),
        (lambda: Passage.assemble("p", ["a"], NodeId(1, 1), [((1, 2), NodeKind.NON_TERMINAL)], []),
         "not a NodeId: (1, 2)"),
        (lambda: Passage("p", ["a"], root_id=(1, 1)), "not a NodeId: (1, 1)"),
        (lambda: build_passage("p", ["a"]).add_edge(NodeId(1, 1), (0, 1), "A"), "not a NodeId: (0, 1)"),
    ], ids=["float-index", "bool-index", "str-layer", "tuple-unit", "tuple-root", "tuple-child"])
    def test_id_that_cannot_be_written_back_refused(self, build, message):
        """Each of these ids would print as no "layer.index" that parse_xml
        reads; a tuple compares equal to the NodeId with its fields."""
        with pytest.raises(GraphError) as raised:
            build()
        assert str(raised.value) == message

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"],
                             ids=["nul", "soh", "vt", "ff", "us", "high-surrogate", "low-surrogate", "fffe", "ffff"])
    def test_character_xml_cannot_carry_refused(self, char):
        """parse_xml could not read back a document that held it."""
        with pytest.raises(GraphError, match=rf"^token 3 holds {re.escape(repr(char))}, which XML cannot carry$"):
            Passage("p", ["a", "b\tc", f"d{char}e", char])
        with pytest.raises(GraphError, match=rf"^passage id holds {re.escape(repr(char))}, which XML cannot carry$"):
            Passage(f"p{char}", ["a"])

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", " ", "\x7f", "\x85", "\u2028", "\ud7ff", "\ue000",
                                      "\ufffd", "\U00010000", "\U0010ffff"])
    def test_every_xml_character_accepted(self, char):
        assert Passage(char, [char]).tokens == (char,)

    def test_repr_names_state_and_sizes(self):
        p = build_passage("p", ["x", "y"])
        p.add_edge(p.root, p.terminal_id(1), "A")
        assert repr(p) == "<Passage 'p' building: 2 tokens, 3 nodes, 1 edges>"
        p.add_edge(p.root, p.terminal_id(2), "P")
        assert repr(p.freeze()) == "<Passage 'p' sealed: 2 tokens, 3 nodes, 2 edges>"

    def test_not_equal_to_other_types(self):
        p = build_passage("p", ["x"])
        assert (p == 1) is False


class TestPunctuationTable:
    """A passage keeps the ids of its terminals typed Punctuation, from the
    positions given, or else from is_punctuation of each token."""

    def test_guessed_without_positions(self):
        p = build_passage("p", ["5", "%", ",", "x"])
        assert type(p.punctuation) is frozenset
        assert p.punctuation == {NodeId(0, 2), NodeId(0, 3)}

    def test_given_positions_not_guessed(self, monkeypatch):
        document = serialize_xml(remote_sample())

        def refuse(text):
            raise AssertionError(f"is_punctuation({text!r}) ran")

        monkeypatch.setattr(graph, "is_punctuation", refuse)
        assert Passage("p", ["5", "%", ",", "x"], punctuation=[4, 1, 4]).punctuation == {NodeId(0, 1), NodeId(0, 4)}
        assert parse_xml(document).punctuation == {NodeId(0, 3)}

    @pytest.mark.parametrize("position", [0, -1, 3, True, 1.0, "1"])
    def test_position_out_of_range_refused(self, position):
        with pytest.raises(UnknownNode) as raised:
            Passage("p", ["x", "y"], punctuation=[position])
        assert str(raised.value) == f"no terminal at position {position!r}"


class TestAddNode:
    def test_sequential_allocation(self):
        p = build_passage("p", ["x"])
        assert p.add_node(NodeKind.NON_TERMINAL) == NodeId(1, 2)

    def test_implicit_has_no_text(self):
        p = build_passage("p", ["x"])
        nid = p.add_node(NodeKind.IMPLICIT)
        assert p.node(nid).kind is NodeKind.IMPLICIT
        assert p.node(nid).text is None

    def test_consecutive_ids_distinct(self):
        p = build_passage("p", ["x"])
        assert p.add_node(NodeKind.NON_TERMINAL) != p.add_node(NodeKind.NON_TERMINAL)

    def test_allocation_follows_highest_explicit_id(self):
        p = build_passage("p", ["x"])
        p.add_node(NodeKind.NON_TERMINAL, node_id=NodeId(1, 7))
        assert str(p.add_node(NodeKind.NON_TERMINAL)) == "1.8"

    # A kind's value was once stored as the kind, and the implicit flag lost.
    @pytest.mark.parametrize("kind", ["implicit", "non-terminal", None, 1])
    def test_kind_must_be_a_unit_kind(self, kind):
        p = build_passage("p", ["x"])
        with pytest.raises(GraphError, match=r"^not a unit's NodeKind: "):
            p.add_node(kind)
        with pytest.raises(GraphError, match=r"^not a unit's NodeKind: "):
            Passage.assemble("q", ["x"], NodeId(1, 1), [(NodeId(1, 2), kind)], [])
        assert len(p.nodes) == 2  # nothing registered


class TestUnitLayer:
    """Every door refuses a unit outside layer 1 with one message: the root
    or not, read from XML or added through the API, and whether or not its
    id names a token."""

    @staticmethod
    def read(unit: str) -> Passage:
        return parse_xml(
            '<root passageID="p"><layer layerID="0"><node ID="0.1" type="Word"><attributes text="a"/>'
            '</node></layer><layer layerID="1"><node ID="1.1" type="FN"><edge toID="0.1" type="H"/>'
            f'<edge toID="{unit}" type="A"/></node><node ID="{unit}" type="FN"/></layer></root>'.encode())

    @pytest.mark.parametrize("index", [1, 9], ids=["names-a-token", "names-none"])
    @pytest.mark.parametrize("door", [
        lambda nid: TestUnitLayer.read(str(nid)),
        lambda nid: Passage("p", ["a", "b"], root_id=nid),
        lambda nid: build_passage("p", ["a", "b"]).add_node(NodeKind.NON_TERMINAL, nid),
        lambda nid: Passage.assemble("p", ["a"], NodeId(1, 1), [(nid, NodeKind.IMPLICIT)], []),
    ], ids=["parse_xml", "root_id", "add_node", "assemble"])
    def test_layer_zero_id_refused(self, door, index):
        nid = NodeId(0, index)
        with pytest.raises(GraphError) as raised:
            door(nid)
        assert type(raised.value) is GraphError
        assert str(raised.value) == f"units must live in layer 1: {nid}"


class TestLabelContract:
    """An edge label is a Category: a str equal to its code, made only of a code in ALL_CODES."""

    @settings(max_examples=300)
    @given(st.one_of(st.sampled_from(list(ALL_CODES)), st.text()))
    def test_category_iff_registered_code(self, text):
        if text not in ALL_CODES:
            with pytest.raises(UnknownCategory) as raised:
                Category(text)
            assert str(raised.value) == f"unknown category code: {shown(text)!r}"
            return
        label = Category(text)
        assert type(label) is Category and label is Category.from_code(text)
        assert label == text and hash(label) == hash(text)
        assert label.code is label and label.longname == ALL_CODES[text]
        assert str(label) == text and type(str(label)) is str

    def test_every_code_makes_its_category(self):
        for code, longname in ALL_CODES.items():
            assert Category(code) == code and Category(code).longname == longname

    @pytest.mark.parametrize("code", list(ALL_CODES))
    def test_normalized_is_the_replacement_and_read_only(self, code):
        label, expected = Category(code), LEGACY_REPLACEMENT.get(code, code)
        assert type(label.normalized) is Category and label.normalized == expected
        assert label.normalized is Category(expected)  # the registry's
        assert label.normalized.normalized is label.normalized  # idempotent
        with pytest.raises(AttributeError):
            label.normalized = label
        assert label.normalized == expected

    @pytest.mark.parametrize("code", list(ALL_CODES))
    def test_normalize_export_and_v0_agree_on_a_label(self, code):
        """A passage whose one non-head edge is labelled `code` normalizes to, and
        exports, LEGACY_REPLACEMENT's value for it; V0 trips iff that differs from `code`."""
        expected = LEGACY_REPLACEMENT.get(code, code)
        p = build_passage("p", ["x", "y"])
        p.add_edge(p.root, p.terminal_id(1), "C")  # ranks first, so token 1 heads the root
        p.add_edge(p.root, p.terminal_id(2), code)
        p.freeze()
        assert [e.category for e in normalize(p).edges] == ["C", expected]
        assert [row.deprel for row in export_bilexical(p)] == ["root", expected]
        v0 = [v.message for v in validate(p).violations if v.rule == "V0"]
        assert v0 == ([f"legacy label {code}; run normalize first"] if expected != code else [])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_edge_label_is_a_category(self, seed):
        p = random_passage(random.Random(seed), max_remotes=3, legacy_labels=True)
        for q in (p, parse_xml(serialize_xml(p)), normalize(p), pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert all(type(edge.category) is Category for edge in q.edges)
            assert all(edge.category is Category(edge.category) for edge in q.edges)  # the registry's


class TestAddEdge:
    def test_primary_edge(self):
        p = build_passage("p", ["After", "x"])
        p.add_edge(p.root, p.terminal_id(1), "L")
        assert len(p.edges) == 1

    def test_remote_permits_reentrancy(self):
        p = build_passage("p", ["John", "x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(p.root, p.terminal_id(1), "A")
        p.add_edge(u, p.terminal_id(1), "A", remote=True)
        assert sum(e.remote for e in p.edges) == 1

    def test_second_primary_parent_rejected(self):
        p = build_passage("p", ["John", "x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, p.terminal_id(1), "A")
        with pytest.raises(DuplicatePrimaryParent):
            p.add_edge(u, p.terminal_id(1), "A")

    def test_unknown_node(self):
        p = build_passage("p", ["x"])
        with pytest.raises(UnknownNode):
            p.add_edge(p.root, NodeId(1, 99), "A")

    def test_terminal_as_parent(self):
        p = build_passage("p", ["x", "y"])
        with pytest.raises(TerminalAsParent):
            p.add_edge(p.terminal_id(1), p.terminal_id(2), "A")

    def test_implicit_as_parent(self):
        p = build_passage("p", ["x"])
        imp = p.add_node(NodeKind.IMPLICIT)
        with pytest.raises(TerminalAsParent):
            p.add_edge(imp, p.terminal_id(1), "A")

    def test_cycle_rejected(self):
        p = build_passage("p", ["x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        v = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(u, v, "A")
        p.add_edge(u, p.terminal_id(1), "P")
        p.add_edge(v, u, "A", remote=True)
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert (exc.value.rule, exc.value.node_id) == ("acyclicity", u)

    def test_cycle_through_remote_edge_rejected(self):
        # Two remote edges close the cycle a -> b -> a between siblings that
        # each have their own primary parent and children.
        p = build_passage("p", ["x", "y"])
        a = p.add_node(NodeKind.NON_TERMINAL)
        b = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, a, "H")
        p.add_edge(p.root, b, "H")
        p.add_edge(a, p.terminal_id(1), "P")
        p.add_edge(b, p.terminal_id(2), "P")
        p.add_edge(a, b, "A", remote=True)
        p.add_edge(b, a, "A", remote=True)
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert (exc.value.rule, exc.value.node_id) == ("acyclicity", a)

    def test_remote_self_loop_rejected(self):
        p = build_passage("p", ["x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(u, p.terminal_id(1), "P")
        p.add_edge(u, u, "A", remote=True)
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert (exc.value.rule, exc.value.node_id) == ("acyclicity", u)

    def test_exact_duplicate_rejected(self):
        p = build_passage("p", ["x", "y"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        with pytest.raises(DuplicateEdge):
            p.add_edge(p.root, u, "H")

    def test_same_pair_two_categories_allowed(self):
        p = build_passage("p", ["x", "y"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(p.root, u, "A", remote=True)
        assert len(p.edges) == 2

    def test_remote_to_punctuation_accepted(self):
        # What the label says of the child is V3's to judge, not the linker's.
        p = build_passage("p", [",", "y"])
        p.add_edge(p.root, p.terminal_id(1), "U")
        p.add_edge(p.root, p.terminal_id(2), "C")
        p.add_edge(p.root, p.terminal_id(1), "A", remote=True)
        p.freeze()
        assert p.edges[-1] == Edge(p.root, p.terminal_id(1), Category.from_code("A"), True)
        assert p.is_reentrant(p.terminal_id(1))

    @pytest.mark.parametrize("flag", [2, None, "yes", 0.0, 1, 0])
    def test_remote_flag_must_be_true_or_false(self, flag):
        # A 2 once sealed, counted as 2 remote edges and broke score_passage;
        # None, "yes" and 0.0 broke score_passage or corpus_stats.
        root, a, b = NodeId(1, 1), NodeId(0, 1), NodeId(0, 2)
        message = f"remote flag must be True or False: {flag!r}"
        for child in (a, b):  # with a primary parent, and without one
            p = build_passage("p", ["x", "y"])
            p.add_edge(root, a, "A")
            with pytest.raises(GraphError) as by_add_edge:
                p.add_edge(root, child, "C", remote=flag)
            with pytest.raises(GraphError) as by_assemble:
                Passage.assemble("p", ["x", "y"], root, [], [Edge(root, a, Category("A")),
                                                             Edge(root, child, Category("C"), flag)])
            for raised in (by_add_edge, by_assemble):
                assert type(raised.value) is GraphError and str(raised.value) == message
            assert len(p.edges) == 1 and not p.is_reentrant(child)
            p.add_edge(root, b, "C")  # the default is a primary edge
            p.add_edge(root, child, "D", remote=True)
            assert p.freeze().is_reentrant(child)
            assert [edge.remote for edge in p.edges] == [False, False, True]

    def test_assemble_refuses_what_is_not_an_edge(self):
        # A 4-tuple once sealed and then broke edge.remote, a list broke
        # p == p, and a 3-tuple or a 5-tuple raised a bare ValueError.
        root, word = NodeId(1, 1), NodeId(0, 1)
        fields = (root, word, Category("A"), False)
        for edge, kind in [(fields, "tuple"), (list(fields), "list"), (fields[:3], "tuple"),
                           ((*fields, False), "tuple"), (EdgeSubclass(*fields), "EdgeSubclass")]:
            with pytest.raises(GraphError) as raised:
                Passage.assemble("p", ["a"], root, [], [edge])
            assert type(raised.value) is GraphError
            assert str(raised.value) == f"not an Edge but a {kind}: {shown(edge)!r}"
        p = Passage.assemble("p", ["a"], root, [], [Edge(*fields)])
        assert p.edges[0].remote is False and p == p

    def test_add_edge_refuses_unregistered_category_as_assemble_does(self):
        # add_edge makes a Category of its label, which refuses an unknown code;
        # assemble refuses an Edge holding anything but a Category.
        root, word = NodeId(1, 1), NodeId(0, 1)
        for code in ("Z", "c", "Center", "", ["A"]):
            p = build_passage("p", ["a"])
            with pytest.raises(UnknownCategory) as by_add_edge:
                p.add_edge(root, word, code)
            with pytest.raises(UnknownCategory) as by_assemble:
                Passage.assemble("p", ["a"], root, [], [Edge(root, word, code)])
            assert str(by_add_edge.value) == f"unknown category code: {code!r}"
            assert str(by_assemble.value) == f"unregistered category: {code!r}"
            assert p.edges == ()
        for label in (Category("C"), "C"):  # a Category or its code
            p = build_passage("p", ["a"])
            p.add_edge(root, word, label)
            assert p.freeze() == Passage.assemble("p", ["a"], root, [], [Edge(root, word, Category.from_code("C"))])
            assert p.edges[0].category is Category("C")

    def test_assemble_refuses_unregistered_category(self):
        # assemble takes an Edge holding any label, which serialize_xml would
        # write and parse_xml might refuse; only a Category is known to be in
        # the inventory.  So no sealed passage can break rule V4.
        root, word = NodeId(1, 1), NodeId(0, 1)
        for category in ("Z", "A", ("A", "Participant"), None):
            with pytest.raises(UnknownCategory) as exc:
                Passage.assemble("p", ["a"], root, [], [Edge(root, word, category)])
            assert str(exc.value) == f"unregistered category: {category!r}"
        p = Passage.assemble("p", ["a"], root, [], [Edge(root, word, Category("A"))])
        assert parse_xml(serialize_xml(p)) == p


class TestFreeze:
    def test_complete_sample(self, remote_passage):
        assert remote_passage.sealed
        assert len(remote_passage.non_terminals) == 4
        assert len(remote_passage.edges) == 11
        assert sum(e.remote for e in remote_passage.edges) == 1

    def test_unattached_terminal(self):
        p = build_passage("p", ["x", "y"])
        p.add_edge(p.root, p.terminal_id(1), "A")
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert exc.value.rule == "terminal-coverage"

    def test_unattached_unit(self):
        p = build_passage("p", ["x"])
        p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, p.terminal_id(1), "A")
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert exc.value.rule == "reachability"

    def test_acyclicity_backstop(self):
        # The cycle of test_cycle_rejected, written straight into the edge
        # lists: freeze alone must catch it.
        p = build_passage("p", ["x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        v = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(u, v, "A")
        p.add_edge(u, p.terminal_id(1), "A")
        rogue = Edge(v, u, p.edges[0].category, True)
        p._edges.append(rogue)
        p._out[v].append(rogue)
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert exc.value.rule == "acyclicity"

    def test_require_sealed(self, remote_passage):
        remote_passage.require_sealed()
        with pytest.raises(GraphError):
            build_passage("p", ["x"]).require_sealed()

    def test_sealed_is_immutable(self, remote_passage):
        with pytest.raises(SealedPassage):
            remote_passage.add_node(NodeKind.NON_TERMINAL)
        with pytest.raises(SealedPassage):
            remote_passage.add_edge(
                remote_passage.root, remote_passage.terminal_id(1), "A"
            )

    @pytest.mark.parametrize("passage_id, shown_id", [
        ("p7", "p7"), ("p" * 3000, "pppppppppppp... (3000 characters)"),
    ], ids=["short", "long"])
    def test_sealed_message_shortens_long_id(self, passage_id, shown_id):
        p = build_passage(passage_id, ["x"])
        p.add_edge(p.root, p.terminal_id(1), "A")
        with pytest.raises(SealedPassage, match=f"^passage {re.escape(shown_id)} is sealed$"):
            p.freeze().add_node(NodeKind.NON_TERMINAL)


#: Layer-1 units of a one-token document, each holding the id {u}, and the
#: message that parse_xml refuses them with.
LONG_ID_CASES = {
    "implicit-parent": (
        '<node ID="1.1" type="FN"><edge toID="0.1" type="H"/><edge toID="{u}" type="A"/></node>'
        '<node ID="{u}" type="FN"><attributes implicit="True"/><edge toID="0.1" type="A"/></node>',
        "1.", "implicit node {u} cannot have children"),
    "duplicate-edge": (
        '<node ID="1.1" type="FN"><edge toID="{u}" type="H"/></node>'
        '<node ID="{u}" type="FN"><edge toID="0.1" type="A"/><edge toID="0.1" type="A"/></node>',
        "1.", "duplicate edge {u} -A-> 0.1"),
    "second-primary-parent": (
        '<node ID="1.1" type="FN"><edge toID="{u}" type="H"/><edge toID="{u}" type="A"/></node>'
        '<node ID="{u}" type="FN"><edge toID="0.1" type="A"/></node>',
        "1.", "{u} already has a primary parent"),
    "unit-in-layer-0": (
        '<node ID="1.1" type="FN"><edge toID="0.1" type="H"/><edge toID="{u}" type="A"/></node>'
        '<node ID="{u}" type="FN"/>',
        "0.", "units must live in layer 1: {u}"),
    "duplicate-unit": (
        '<node ID="1.1" type="FN"><edge toID="0.1" type="H"/><edge toID="{u}" type="A"/></node>'
        '<node ID="{u}" type="FN"/><node ID="{u}" type="FN"/>',
        "1.", "node id already taken: {u}"),
    "root-in-layer-0": (
        '<node ID="{u}" type="FN"><edge toID="0.1" type="H"/></node>',
        "0.", "units must live in layer 1: {u}"),
    "reachability": (
        '<node ID="1.1" type="FN"><edge toID="0.1" type="H"/>'
        '<edge toID="{u}" type="A"><attributes remote="True"/></edge></node>'
        '<node ID="{u}" type="FN"/>',
        "1.", "reachability: node {u}"),
    "acyclicity": (
        '<node ID="1.1" type="FN"><edge toID="{u}" type="H"/></node>'
        '<node ID="{u}" type="FN"><edge toID="0.1" type="A"/><edge toID="1.2" type="A"/></node>'
        '<node ID="1.2" type="FN"><edge toID="{u}" type="A"><attributes remote="True"/></edge></node>',
        "1.", "acyclicity: node {u}"),
}


class TestLongIdShortened:
    """graph.py's messages shorten a node id as the reader's own messages do
    (errors.shown), and repeat a short one whole."""

    @pytest.mark.parametrize("units, layer, message", LONG_ID_CASES.values(), ids=list(LONG_ID_CASES))
    @pytest.mark.parametrize("digits", [1, 4000], ids=["short", "long"])
    def test_message(self, units, layer, message, digits):
        node_id = layer + "7" * digits
        document = ('<root passageID="long"><layer layerID="0"><node ID="0.1" type="Word">'
                    '<attributes text="hi"/></node></layer><layer layerID="1">'
                    f'{units.format(u=node_id)}</layer></root>').encode()
        with pytest.raises(GraphError) as raised:
            parse_xml(document)
        assert str(raised.value) == message.format(u=shown(node_id))
        if digits > 1:
            assert len(str(raised.value)) < 100
            assert f"{node_id[:12]}... ({len(node_id)} characters)" in str(raised.value)
        if isinstance(raised.value, StructuralViolation):
            assert str(raised.value.node_id) == node_id
        with pytest.raises(type(raised.value), match=f"^{re.escape(str(raised.value))}$"):
            reference_parse_xml(document)


class TestSealedTables:
    """Sealing keeps the tables construction built; the accessors hand out
    tuples, the passage's own terminals and bottom-up order and snapshots
    of the rest."""

    def test_sealed_accessors_do_not_copy(self, remote_passage):
        p = remote_passage
        assert p.terminals is p.terminals
        assert p.bottom_up() is p.bottom_up()
        for table in (p.terminals, p.nodes, p.non_terminals, p.edges, p.outgoing(p.root), p.bottom_up()):
            assert type(table) is tuple

    def test_freeze_again_changes_nothing(self, remote_passage):
        p = remote_passage
        order, masks = p.bottom_up(), p._yields
        assert p.freeze() is p
        assert p.bottom_up() is order and p._yields is masks  # yield_keys() makes a new view per call

    def test_yield_keys_refuses_writes(self):
        """yield_keys() is a read-only view: a write through it, which would
        change the yields of the passage and of every normalize copy sharing
        them, raises TypeError instead."""
        rng = random.Random(0)
        read = parse_xml(serialize_xml(random_passage(rng, max_tokens=12, max_units=8, max_remotes=3,
                                                      legacy_labels=True)))
        relabeled = normalize(read)
        assert relabeled is not read  # the draw holds a legacy label
        for p in (read, relabeled):
            masks = p.yield_keys()
            for nid in masks:
                with pytest.raises(TypeError):
                    masks[nid] = 0
        for p in (relabeled, normalize(read)):
            assert score_passage(p, p).labeled["all"].gold == 13

    @pytest.mark.parametrize("copier", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_sealed_passage_copies(self, copier):
        rng = random.Random(0)
        drawn = random_passage(rng, max_tokens=12, max_units=8, max_remotes=3, legacy_labels=True)
        read = parse_xml(serialize_xml(rebuild(drawn, punctuation=flipped_types(drawn, rng))))
        relabeled = normalize(read)
        assert relabeled is not read  # the draw holds a legacy label
        assert relabeled.punctuation == read.punctuation != drawn.punctuation
        for original in (read, relabeled):
            clone = copier(original)
            assert clone is not original and clone == original and clone.sealed
            assert clone.bottom_up() == original.bottom_up()
            assert clone.yield_keys() == original.yield_keys()
            assert score_passage(clone, original).labeled["all"].f1 == 1.0
            with pytest.raises(SealedPassage):
                clone.add_edge(clone.root, clone.terminal_id(1), "A", remote=True)

    def test_snapshots_while_building(self):
        p = build_passage("p", ["x", "y"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        x = p.terminal_id(1)
        before = p.edges, p.nodes, p.outgoing(u)
        assert all(type(table) is tuple for table in (*before, p.non_terminals))
        p.add_node(NodeKind.IMPLICIT)
        p.add_edge(u, x, "A")
        p.add_edge(u, p.terminal_id(2), "C")
        assert before == ((Edge(p.root, u, p.edges[0].category),), p.nodes[:4], ())
        assert (len(p.edges), len(p.nodes), len(p.outgoing(u))) == (3, 5, 2)

    @pytest.mark.parametrize("query", SEALED_ONLY.values(), ids=SEALED_ONLY)
    def test_sealed_only_refused_while_building(self, query):
        # The passage is complete, so only the missing freeze() stops query.
        p = build_passage("p", ["x", "y"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        for parent, child, code in [(p.root, u, "H"), (u, p.terminal_id(1), "A"), (u, p.terminal_id(2), "C")]:
            p.add_edge(parent, child, code)
        with pytest.raises(GraphError) as raised:
            query(p)
        assert str(raised.value) == "passage must be sealed first; call freeze()"
        assert not p.sealed
        # What add_node and add_edge maintain answers at any time.
        assert (len(p.edges), len(p.nodes), len(p.terminals), len(p.outgoing(u))) == (3, 4, 2, 2)
        assert p.node(u).id == u and [n.id for n in p.non_terminals] == [p.root, u]
        p.freeze()
        query(p)

    def test_failed_freeze_leaves_tables_open(self):
        p = build_passage("p", ["x"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(u, p.terminal_id(1), "A")
        with pytest.raises(StructuralViolation) as exc:
            p.freeze()
        assert exc.value.rule == "reachability"
        p.add_edge(p.root, u, "H")  # the missing edge
        p.freeze()
        assert p.sealed and len(p.edges) == 2

    @pytest.mark.parametrize("complete", [True, False], ids=["sealed", "refused"])
    def test_freeze_changes_no_build_table(self, complete):
        rng = random.Random(0)
        drawn = random_passage(rng, max_tokens=12, max_units=8, max_remotes=3)
        p = build_passage(drawn.passage_id, drawn.tokens)
        for node in drawn.nodes:
            if not node.is_terminal and node.id != p.root:
                p.add_node(node.kind, node.id)
        for edge in drawn.edges[0 if complete else 1:]:  # the first is primary: without it, a child is unreached
            p.add_edge(*edge)
        tables = lambda: (p.edges, p.nodes, p.terminals, {n.id: p.outgoing(n.id) for n in p.nodes})
        before = tables()
        if complete:
            assert p.freeze() is p and p.sealed
        else:
            with pytest.raises(StructuralViolation):
                p.freeze()
            assert not p.sealed
        assert tables() == before


class TestYieldMasks:
    """The yield keys, which graph keeps as masks, decoded, against the
    tuple-building pass they replaced."""

    @staticmethod
    def check(p: Passage) -> None:
        reference = reference_yields(p)
        masks = p.yield_keys()
        assert masks.keys() == reference.keys()
        for nid, positions in reference.items():
            assert p.yield_of(nid) == positions
            assert masks[nid] == sum(1 << k for k in positions)
            contiguous = not positions or positions[-1] - positions[0] + 1 == len(positions)
            assert p.is_discontinuous(nid) is not contiguous

    # Up to 200 tokens, so masks span several of the interpreter's 30-bit digits.
    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_random(self, seed, max_tokens):
        rng = random.Random(seed)
        self.check(random_passage(rng, max_tokens=max_tokens, max_units=1 + max_tokens // 3,
                                  legacy_labels=True))

    @pytest.mark.parametrize("make", [remote_sample, implicit_sample, deep_center_chain])
    def test_fixed(self, make):
        self.check(make())

    def test_unsealed_refused(self):
        with pytest.raises(GraphError):
            build_passage("p", ["x"]).yield_keys()


class TestYield:
    def test_to_paris_unit(self, remote_passage):
        assert remote_passage.yield_of(NodeId(1, 4)) == (6, 7)

    def test_remote_child_excluded(self, remote_passage):
        # the first Scene reaches "John" only remotely: not in its yield
        assert remote_passage.yield_of(NodeId(1, 2)) == (2,)

    def test_terminal_yields_itself(self, remote_passage):
        for k in range(1, 8):
            assert remote_passage.yield_of(remote_passage.terminal_id(k)) == (k,)

    def test_implicit_yields_nothing(self, implicit_passage):
        implicit = next(
            n for n in implicit_passage.nodes if n.kind is NodeKind.IMPLICIT
        )
        assert implicit_passage.yield_of(implicit.id) == ()

    def test_unknown_node(self, remote_passage):
        with pytest.raises(UnknownNode):
            remote_passage.yield_of(NodeId(1, 99))

    def test_deep_chain(self):
        # Deeper than the interpreter's recursion limit.
        p = build_passage("chain", ["a", "b"])
        unit = p.root
        for _ in range(1500):
            child = p.add_node(NodeKind.NON_TERMINAL)
            p.add_edge(unit, child, "E")
            unit = child
        p.add_edge(unit, p.terminal_id(1), "C")
        p.add_edge(p.root, p.terminal_id(2), "C")
        p.freeze()
        assert p.yield_of(p.root) == (1, 2)
        assert score_passage(p, p).labeled["all"].f1 == 1.0
        assert corpus_stats([p]).non_terminals == 1501

    @given(passages)
    def test_root_yield_is_full_range(self, p):
        assert p.yield_of(p.root) == tuple(range(1, len(p.terminals) + 1))

    @given(passages)
    def test_descendant_yields_nest(self, p):
        for edge in p.edges:
            if not edge.remote:
                child = set(p.yield_of(edge.child))
                assert child <= set(p.yield_of(edge.parent))

    @given(passages)
    def test_sibling_yields_partition(self, p):
        covered: list[int] = []
        for edge in p.outgoing(p.root):
            if not edge.remote:
                covered.extend(p.yield_of(edge.child))
        assert sorted(covered) == list(range(1, len(p.terminals) + 1))

    @given(passages)
    def test_primary_edges_form_tree(self, p):
        reachable = {p.root}
        frontier = [p.root]
        primary = 0
        while frontier:
            nid = frontier.pop()
            for edge in p.outgoing(nid):
                if not edge.remote:
                    primary += 1
                    reachable.add(edge.child)
                    frontier.append(edge.child)
        assert primary == len(reachable) - 1
        assert reachable == {n.id for n in p.nodes}


    @given(passages)
    def test_bottom_up_puts_children_first(self, p):
        order = p.bottom_up()
        assert sorted(order) == sorted(n.id for n in p.nodes)
        rank = {nid: k for k, nid in enumerate(order)}
        for edge in p.edges:
            if not edge.remote:
                assert rank[edge.child] < rank[edge.parent]


class TestDiscontinuity:
    def test_gap_in_yield(self):
        p = build_passage("p", ["a", "b", "c"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(p.root, u, "H")
        p.add_edge(u, p.terminal_id(1), "A")
        p.add_edge(u, p.terminal_id(3), "A")
        p.add_edge(p.root, p.terminal_id(2), "L")
        p.freeze()
        assert p.yield_of(u) == (1, 3)
        assert p.is_discontinuous(u)
        assert not p.is_discontinuous(p.root)

    def test_contiguous_scene(self, remote_passage):
        assert not remote_passage.is_discontinuous(NodeId(1, 3))

    def test_implicit_is_continuous(self, implicit_passage):
        implicit = next(
            n for n in implicit_passage.nodes if n.kind is NodeKind.IMPLICIT
        )
        assert not implicit_passage.is_discontinuous(implicit.id)


class TestReentrancy:
    def test_shared_participant(self, remote_passage):
        assert remote_passage.is_reentrant(remote_passage.terminal_id(4))

    def test_plain_terminal(self, remote_passage):
        assert not remote_passage.is_reentrant(remote_passage.terminal_id(7))

    def test_root_never_reentrant(self, remote_passage):
        assert not remote_passage.is_reentrant(remote_passage.root)

    def test_answers_while_building(self):
        p = build_passage("p", ["x", "y"])
        u = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(u, p.terminal_id(1), "A", remote=True)  # before either has a primary parent
        assert p.is_reentrant(p.terminal_id(1)) and not p.is_reentrant(u)
        with pytest.raises(UnknownNode):
            p.is_reentrant(NodeId(1, 9))
        assert not p.sealed

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @example(86, True, True)  # seeds whose relabeling drops a remote edge, as about
    @example(127, True, True)  # one draw in 65 with remotes and legacy labels does
    def test_matches_indegree(self, seed, remotes, legacy_labels):
        """A node is reentrant iff a remote edge in `edges` points at it, on a
        passage being built from a random part of a draw's edges in random
        order, on the sealed draw and on its normalize copy; once sealed, iff
        two or more edges point at it."""
        rng = random.Random(seed)
        p = random_passage(rng, max_units=4, max_remotes=6 if remotes else 0, legacy_labels=legacy_labels)
        building = Passage(p.passage_id, p.tokens, root_id=p.root)
        for node in p.nodes:
            if not node.is_terminal and node.id != p.root:
                building.add_node(node.kind, node.id)
        edges = rng.sample(p.edges, len(p.edges))
        for edge in edges[:rng.randint(0, len(edges))]:
            building.add_edge(*edge)
        for passage in (building, p, normalize(p)):
            remote_children = {edge.child for edge in passage.edges if edge.remote}
            for node in passage.nodes:
                assert passage.is_reentrant(node.id) == (node.id in remote_children)
            if passage.sealed:
                indegree = Counter(edge.child for edge in passage.edges)
                assert remote_children == {nid for nid, parents in indegree.items() if parents >= 2}
                assert corpus_stats([passage]).reentrant == len(remote_children)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @example(86, True, True)  # seeds whose relabeling drops a remote edge, as about
    @example(127, True, True)  # one draw in 65 with remotes and legacy labels does
    def test_derived_reads_match_reference_lists(self, seed, remotes, legacy_labels):
        # is_reentrant reads the set _link fills, and the reentrancy count the
        # edge tuple; the reference assembly keeps a list of incoming edges per
        # node.  The normalized copy shares its source's set.
        p = random_passage(random.Random(seed), max_units=4, max_remotes=6 if remotes else 0,
                           legacy_labels=legacy_labels)
        passages = [p]
        for passage in passages:
            lists = {}
            units = [(n.id, n.kind) for n in passage.nodes if not n.is_terminal and n.id != passage.root]
            reference_assemble(passage.passage_id, passage.tokens, passage.root, units,
                               passage.edges, lists)
            assert list(lists) == [n.id for n in passage.nodes]
            for nid, incoming in lists.items():
                assert passage.is_reentrant(nid) == (len(incoming) >= 2)
            reentrant = sum(len(incoming) >= 2 for incoming in lists.values())
            assert corpus_stats([passage]).reentrant == reentrant
            # A passage without T/Q normalizes to itself.
            if passage is p and (normalized := normalize(p)) is not p:
                passages.append(normalized)


@settings(max_examples=200)
@given(passages)
def test_construction_safety(p):
    """Random edge insertion plus freeze never yields a broken passage."""
    assert p.sealed
    primary_parents = Counter(e.child for e in p.edges if not e.remote)
    for node in p.nodes:
        assert primary_parents[node.id] == (0 if node.id == p.root else 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shuffled_unit_order_round_trips(seed):
    """Units listed children-first or in any other order load the same."""
    rng = random.Random(seed)
    p = random_passage(rng, max_tokens=30, max_units=20, max_remotes=4)
    document = ET.fromstring(serialize_xml(p))
    layer1 = next(l for l in document.findall("layer") if l.get("layerID") == "1")
    units = layer1.findall("node")
    rng.shuffle(units)
    layer1[:] = units
    again = parse_xml(ET.tostring(document))
    assert again == p
    assert serialize_xml(again) == serialize_xml(p)


# -- bulk assembly against the per-node, per-edge assembly it replaced ------


class EdgeSubclass(Edge):
    __slots__ = ()


def inject_defect(rng: random.Random, p: Passage, units: list, edges: list) -> None:
    """Put one defect at a random place in a passage's unit or edge list."""
    ids = [nid for nid, _ in units] + [p.root]
    parents = [nid for nid, kind in units if kind is NodeKind.NON_TERMINAL] + [p.root]
    children = [n.id for n in p.nodes if n.id != p.root]
    category = p.edges[0].category
    records = [e for e in edges if type(e) is Edge]  # not those an earlier defect made no Edge
    primary = [e for e in records if not e.remote]
    defect = rng.choice([
        "duplicate", "second-primary", "implicit-parent", "terminal-parent",
        "unknown-parent", "unknown-child", "self-loop", "cycle", "unreachable", "root-parent",
        "terminal-unit", "kind-value", "taken-id", "wrong-layer", "remote-only", "unknown-code",
        "plain-code", "remote-flag", "not-an-edge",
    ])
    if defect == "duplicate" and edges:
        added = rng.choice(edges)
    elif defect == "second-primary" and primary:
        added = Edge(rng.choice(parents), rng.choice(primary).child, category, False)
    elif defect == "implicit-parent":
        unit = NodeId(1, 900)
        units.insert(rng.randint(0, len(units)), (unit, NodeKind.IMPLICIT))
        added = Edge(unit, rng.choice(children), category, rng.random() < 0.5)
    elif defect == "terminal-parent":
        added = Edge(p.terminals[0].id, rng.choice(children), category, False)
    elif defect == "unknown-parent":
        added = Edge(NodeId(1, 999), rng.choice(children), category, False)
    elif defect == "unknown-child":
        added = Edge(rng.choice(parents), NodeId(rng.randint(0, 1), 999), category, True)
    elif defect == "self-loop":
        unit = rng.choice(parents)
        added = Edge(unit, unit, category, rng.random() < 0.5)
    elif defect == "cycle" and primary:
        edge = rng.choice(primary)
        added = Edge(edge.child, edge.parent, category, True)
    elif defect == "root-parent":
        added = Edge(rng.choice(parents), p.root, category, rng.random() < 0.5)
    elif defect == "remote-only" and primary:  # a child left with remote parents only
        edge = rng.choice(primary)
        edges[edges.index(edge)] = edge._replace(remote=True)
        return
    elif defect == "remote-flag" and records:  # a flag that is no bool, some equal to one
        edge = rng.choice(records)
        edges[edges.index(edge)] = edge._replace(remote=rng.choice([2, None, "yes", 0.0, 1, 0]))
        return
    elif defect == "not-an-edge" and records:  # a sequence of its fields, or more or fewer, or a subclass
        edge = rng.choice(records)
        make = rng.choice([tuple, list, lambda e: e[:3], lambda e: (*e, False), EdgeSubclass._make])
        edges[edges.index(edge)] = make(edge)
        return
    elif defect in ("unknown-code", "plain-code") and records:  # a label that is no Category
        edge = rng.choice(records)
        code = "Z" if defect == "unknown-code" else str(edge.category)
        edges[edges.index(edge)] = edge._replace(category=code)
        return
    elif defect == "unreachable":
        units.insert(rng.randint(0, len(units)), (NodeId(1, 901), NodeKind.NON_TERMINAL))
        return
    elif defect in ("terminal-unit", "kind-value", "taken-id", "wrong-layer"):
        unit = {"terminal-unit": (NodeId(1, 902), NodeKind.TERMINAL),
                "kind-value": (NodeId(1, 903), rng.choice([kind.value for kind in NodeKind])),
                "taken-id": (rng.choice(ids + children), NodeKind.NON_TERMINAL),
                "wrong-layer": (NodeId(2, 1), NodeKind.NON_TERMINAL)}[defect]
        units.insert(rng.randint(0, len(units)), unit)
        return
    else:
        return  # the passage has nothing to build this defect from
    edges.insert(rng.randint(0, len(edges)), added)


def assembled(assemble, p: Passage, units: list, edges: list, punctuation=None):
    """The passage assembled, as its id, root, nodes, edges in order,
    bottom-up order, yield keys and punctuation; or the error, as its type,
    message, rule and node."""
    try:
        q = assemble(p.passage_id, p.tokens, p.root, units, edges, punctuation=punctuation)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "rule", None), getattr(exc, "node_id", None)
    return q.passage_id, q.root, q.nodes, q.edges, q.bottom_up(), q.yield_keys(), q.punctuation


class TestAssembleMatchesReference:
    """Passage.assemble's bulk loops build what the per-node, per-edge
    assembly built, and refuse what it refused, in the same words."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2))
    def test_random_passages_with_defects(self, seed, legacy_labels, defects):
        rng = random.Random(seed)
        p = random_passage(rng, max_tokens=12, max_units=8, max_remotes=3,
                           legacy_labels=legacy_labels)
        units = [(n.id, n.kind) for n in p.nodes if not n.is_terminal and n.id != p.root]
        edges = list(p.edges)
        if rng.random() < 0.5:
            rng.shuffle(units)
            rng.shuffle(edges)
        for _ in range(defects):
            inject_defect(rng, p, units, edges)
        punctuation = flipped_types(p, rng)
        ours = assembled(Passage.assemble, p, units, edges, punctuation)
        assert ours == assembled(reference_assemble, p, units, edges, punctuation)
        if not defects:  # a listing order of the passage itself loads as it
            assert ours[:2] == (p.passage_id, p.root) and ours[3] == tuple(edges)
            assert sorted(ours[2]) == sorted(p.nodes)

    def test_every_defect_is_refused(self):
        # Each defect alone, on a passage that has what it needs: refused
        # by both, in the same words.
        refused = set()
        for seed in range(400):
            rng = random.Random(seed)
            p = random_passage(rng, tokens=["a", ",", "b", "c"], max_units=5, max_remotes=0)
            units = [(n.id, n.kind) for n in p.nodes if not n.is_terminal and n.id != p.root]
            edges = list(p.edges)
            inject_defect(rng, p, units, edges)
            ours = assembled(Passage.assemble, p, units, edges)
            assert ours == assembled(reference_assemble, p, units, edges)
            if isinstance(ours[0], type):
                refused.add(ours[0].__name__ if ours[2] is None else ours[2])
        assert refused >= {
            "GraphError", "DuplicateEdge", "DuplicatePrimaryParent", "TerminalAsParent",
            "UnknownNode", "UnknownCategory", "root-parent", "reachability", "acyclicity",
        }
