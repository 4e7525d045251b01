import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit.errors import (
    DanglingReference,
    GraphError,
    StructuralViolation,
    UnknownCategory,
    XmlFormatError,
    XmlSyntax,
)
from uccakit.formats import (
    BilexicalRow,
    export_bilexical,
    export_text,
    parse_xml,
    render_bilexical,
    serialize_xml,
)
from uccakit.graph import NodeKind, Passage, build_passage
from uccakit.validation import normalize

from .helpers import CYCLIC_DOCUMENTS, deep_center_chain, random_passage

passages = st.integers(0, 2**32 - 1).map(
    lambda seed: random_passage(random.Random(seed))
)

MINIMAL = b"""<?xml version='1.0' encoding='utf-8'?>
<root passageID="mini">
  <layer layerID="0">
    <node ID="0.1" type="Word"><attributes text="hi"/></node>
  </layer>
  <layer layerID="1">
    <node ID="1.1" type="FN"><edge toID="0.1" type="H"/></node>
  </layer>
</root>
"""


class TestParseXml:
    def test_golden_remote(self, data_dir, remote_passage):
        parsed = parse_xml((data_dir / "sample_remote.xml").read_bytes())
        assert parsed == remote_passage
        assert sum(e.remote for e in parsed.edges) == 1

    def test_golden_implicit(self, data_dir, implicit_passage):
        parsed = parse_xml((data_dir / "sample_implicit.xml").read_bytes())
        assert parsed == implicit_passage
        assert any(n.kind is NodeKind.IMPLICIT for n in parsed.nodes)

    def test_minimal_document(self):
        p = parse_xml(MINIMAL)
        assert p.tokens == ("hi",)
        assert len(p.edges) == 1

    def test_dangling_reference(self):
        doc = MINIMAL.replace(b'toID="0.1"', b'toID="1.99"')
        with pytest.raises(DanglingReference):
            parse_xml(doc)

    def test_malformed_xml(self):
        with pytest.raises(XmlSyntax):
            parse_xml(b"<root passageID='x'><layer>")

    def test_unknown_category(self):
        doc = MINIMAL.replace(b'type="H"', b'type="Z"')
        with pytest.raises(UnknownCategory):
            parse_xml(doc)

    def test_structural_violation_surfaces(self):
        # terminal left unattached
        doc = MINIMAL.replace(b'<edge toID="0.1" type="H"/>', b"")
        with pytest.raises(StructuralViolation):
            parse_xml(doc)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.replace(b'passageID="mini"', b""),
            lambda d: d.replace(b'layerID="1"', b'layerID="7"'),
            lambda d: d.replace(b'ID="0.1"', b'ID="0.5"'),
            lambda d: d.replace(b'<attributes text="hi"/>', b"<attributes/>"),
            lambda d: d.replace(b'toID="0.1" type="H"', b'toID="0.1"'),
        ],
    )
    def test_schema_mutations_rejected(self, mutation):
        with pytest.raises(XmlFormatError):
            parse_xml(mutation(MINIMAL))

    def test_legacy_labels_accepted(self):
        doc = MINIMAL.replace(b'type="H"', b'type="T"')
        p = parse_xml(doc)
        assert p.edges[0].category.code == "T"

    @pytest.mark.parametrize("closing_edge", sorted(CYCLIC_DOCUMENTS))
    def test_cycle_rejected(self, closing_edge):
        with pytest.raises(GraphError):
            parse_xml(CYCLIC_DOCUMENTS[closing_edge])

    def test_loading_runs_no_cycle_search(self, monkeypatch):
        # A loaded document is checked for cycles once, at freeze.  Listing
        # the chain 1.1 -> 1.2 -> 1.3 -> 1.4 as 1.4, 1.2, 1.3, 1.1 gives the
        # edge 1.3 -> 1.4 a parent with a parent and a child with a child.
        p = build_passage("chain", ["x", "y"])
        unit = p.root
        for _ in range(3):
            child = p.add_node(NodeKind.NON_TERMINAL)
            p.add_edge(unit, child, "C")
            unit = child
        p.add_edge(unit, p.terminal_id(1), "C")
        p.add_edge(p.root, p.terminal_id(2), "F")
        p.freeze()
        document = ET.fromstring(serialize_xml(p))
        layer1 = next(l for l in document.findall("layer") if l.get("layerID") == "1")
        units = {node.get("ID"): node for node in layer1.findall("node")}
        layer1[:] = [units[nid] for nid in ("1.4", "1.2", "1.3", "1.1")]

        def no_search(*args):
            raise AssertionError("cycle search while loading")

        monkeypatch.setattr(Passage, "_reaches", no_search)
        assert parse_xml(ET.tostring(document)) == p


class TestSerializeXml:
    def test_round_trip_remote(self, remote_passage):
        assert parse_xml(serialize_xml(remote_passage)) == remote_passage

    def test_round_trip_keeps_implicit_flag(self, implicit_passage):
        again = parse_xml(serialize_xml(implicit_passage))
        implicit = [n for n in again.nodes if n.kind is NodeKind.IMPLICIT]
        assert len(implicit) == 1

    def test_deterministic(self, remote_passage):
        assert serialize_xml(remote_passage) == serialize_xml(remote_passage)

    def test_utf8_lf_no_bom(self, remote_passage):
        blob = serialize_xml(remote_passage)
        assert not blob.startswith(b"\xef\xbb\xbf")
        assert b"\r" not in blob

    @settings(max_examples=100, deadline=None)
    @given(passages)
    def test_round_trip_random(self, p):
        again = parse_xml(serialize_xml(p))
        assert again == p
        assert serialize_xml(again) == serialize_xml(p)


class TestExportText:
    def test_remote_sample(self, remote_passage):
        assert export_text(remote_passage) == "After graduation , John moved to Paris"

    def test_single_token(self):
        p = build_passage("p", ["word"])
        p.add_edge(p.root, p.terminal_id(1), "H")
        assert export_text(p.freeze()) == "word"

    @given(passages)
    def test_token_count_preserved(self, p):
        assert export_text(p).split(" ") == list(p.tokens)


class TestExportBilexical:
    def test_remote_sample_rows(self, remote_passage):
        rows = export_bilexical(remote_passage)
        assert rows == [
            BilexicalRow(1, "After", 2, "L"),
            BilexicalRow(2, "graduation", 0, "root"),
            BilexicalRow(3, ",", 2, "U"),
            BilexicalRow(4, "John", 5, "A"),
            BilexicalRow(5, "moved", 2, "H"),
            BilexicalRow(6, "to", 7, "R"),
            BilexicalRow(7, "Paris", 5, "A"),
        ]

    def test_center_heads_its_unit(self, remote_passage):
        rows = {r.form: r for r in export_bilexical(remote_passage)}
        assert (rows["to"].head, rows["to"].deprel) == (7, "R")
        assert (rows["Paris"].head, rows["Paris"].deprel) == (5, "A")

    def test_single_token(self):
        p = build_passage("p", ["word"])
        p.add_edge(p.root, p.terminal_id(1), "H")
        assert export_bilexical(p.freeze()) == [BilexicalRow(1, "word", 0, "root")]

    def test_implicit_produces_no_row(self, implicit_passage):
        rows = export_bilexical(implicit_passage)
        assert len(rows) == len(implicit_passage.terminals) == 20
        # the Scene's relation heads the sentence once the implicit is dropped
        assert rows[7] == BilexicalRow(8, "apply", 0, "root")

    @settings(max_examples=150, deadline=None)
    @given(passages)
    def test_single_tree_over_tokens(self, p):
        rows = export_bilexical(p)
        assert [r.position for r in rows] == list(range(1, len(p.tokens) + 1))
        roots = [r for r in rows if r.head == 0]
        assert len(roots) == 1
        heads = {r.position: r.head for r in rows}
        for row in rows:
            assert row.head != row.position
            seen, cursor = set(), row.position
            while cursor != 0:
                assert cursor not in seen
                seen.add(cursor)
                cursor = heads[cursor]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_legacy_labels_export_as_normalized(self, seed):
        p = random_passage(random.Random(seed), legacy_labels=True)
        assert export_bilexical(p) == export_bilexical(normalize(p))

    def test_deep_chain_under_function_token(self):
        # The first token's head is resolved at the bottom of the chain.
        assert export_bilexical(deep_center_chain()) == [
            BilexicalRow(1, "is", 2, "F"),
            BilexicalRow(2, "it", 0, "root"),
        ]

    def test_rendering(self, remote_passage):
        text = render_bilexical(export_bilexical(remote_passage))
        lines = text.splitlines()
        assert lines[0] == "1\tAfter\t2\tL"
        assert text.endswith("\n")
