import gc
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit.errors import (
    DanglingReference,
    UccaError,
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

from .helpers import (
    CYCLIC_DOCUMENTS,
    CODES,
    deep_center_chain,
    random_passage,
    reaches,
    reference_export_bilexical,
    reference_parse_xml,
    reference_serialize_xml,
)
from .samples import implicit_sample, remote_sample

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

#: Two more layers with one 4000-digit layerID, and a unit with a 4000-character ID.
LONG_LAYERS = b'<layer layerID="%s"/><layer layerID="%s"/><layer layerID="1">' % ((b"1" * 4000,) * 2)
LONG_UNIT = b'<node ID="1.%s" type="FN"/>' % (b"1" * 3998)


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

    def test_implicit_root_rejected(self):
        # The root was read as a plain unit, and serialize_xml dropped the flag.
        doc = MINIMAL.replace(
            b'<node ID="1.1" type="FN">',
            b'<node ID="1.1" type="FN"><attributes implicit="True"/>',
        )
        with pytest.raises(XmlFormatError, match=r"^root unit 1\.1 is marked implicit$"):
            parse_xml(doc)

    def test_repeated_layer_rejected(self):
        # The second layer 0 replaced the first, whose tokens were lost.
        doc = MINIMAL.replace(
            b'  <layer layerID="1">',
            b'  <layer layerID="0">\n'
            b'    <node ID="0.1" type="Word"><attributes text="lost"/></node>\n'
            b'  </layer>\n'
            b'  <layer layerID="1">',
        )
        with pytest.raises(XmlFormatError, match=r"^repeated layerID '0'$"):
            parse_xml(doc)

    def test_legacy_labels_accepted(self):
        doc = MINIMAL.replace(b'type="H"', b'type="T"')
        p = parse_xml(doc)
        assert p.edges[0].category.code == "T"

    @pytest.mark.parametrize("closing_edge", sorted(CYCLIC_DOCUMENTS))
    def test_cycle_rejected(self, closing_edge):
        # freeze names the first unit, in node-table order, that its walk left out.
        with pytest.raises(StructuralViolation, match=r"^acyclicity: node 1\.2$"):
            parse_xml(CYCLIC_DOCUMENTS[closing_edge])

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_added_remote_edge_is_a_cycle_iff_child_reaches_parent(self, seed):
        # Loading runs no cycle search, so freeze alone must catch the cycle.
        rng = random.Random(seed)
        p = random_passage(rng)
        units = [n for n in p.nodes if not n.is_terminal]
        parent = rng.choice([n.id for n in units if n.kind is NodeKind.NON_TERMINAL])
        child = rng.choice([n.id for n in units if n.id != p.root] or [None])
        code = rng.choice(CODES)
        if child is None or any(
            e.remote and e.child == child and e.category.code == code
            for e in p.outgoing(parent)
        ):
            return  # no unit to point at, or an exact duplicate
        document = ET.fromstring(serialize_xml(p))
        layer1 = next(l for l in document.findall("layer") if l.get("layerID") == "1")
        node = next(n for n in layer1.findall("node") if n.get("ID") == str(parent))
        edge = ET.SubElement(node, "edge", toID=str(child), type=code)
        ET.SubElement(edge, "attributes", remote="True")
        if reaches(p, child, parent):
            with pytest.raises(StructuralViolation) as info:
                parse_xml(ET.tostring(document))
            assert info.value.rule == "acyclicity"
            return
        loaded = parse_xml(ET.tostring(document))
        order = loaded.bottom_up()
        assert sorted(order) == sorted(n.id for n in loaded.nodes)
        rank = {nid: k for k, nid in enumerate(order)}
        assert all(rank[e.child] < rank[e.parent] for e in loaded.edges if not e.remote)

    def test_units_listed_before_their_parents_load(self):
        # Listing the chain 1.1 -> 1.2 -> 1.3 -> 1.4 as 1.4, 1.2, 1.3, 1.1
        # links the edge 1.3 -> 1.4 after its parent has a parent and its
        # child has a child; freeze alone orders the nodes.
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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_reference_export(self, seed, legacy_labels):
        # Larger than the default sizes, so that units with empty yields
        # and deeper nests appear.
        p = random_passage(random.Random(seed), max_tokens=12, max_units=9, max_remotes=3,
                           legacy_labels=legacy_labels)
        assert export_bilexical(p) == reference_export_bilexical(p)

    @pytest.mark.parametrize("make", [remote_sample, implicit_sample, deep_center_chain])
    def test_matches_reference_export_on_fixed_passages(self, make):
        p = make()
        assert export_bilexical(p) == reference_export_bilexical(p)

    def test_rendering(self, remote_passage):
        text = render_bilexical(export_bilexical(remote_passage))
        lines = text.splitlines()
        assert lines[0] == "1\tAfter\t2\tL"
        assert text.endswith("\n")


class TestNonCanonicalIds:
    """A node id is read only in the spelling str(NodeId) writes: a toID in
    another names no node, and a unit ID in another is refused."""

    def test_unit_referenced_with_leading_zero(self):
        # 1.2 is written as 1.02 in its toID; it was once resolved to 1.2.
        doc = MINIMAL.replace(
            b'<node ID="1.1" type="FN"><edge toID="0.1" type="H"/></node>',
            b'<node ID="1.1" type="FN"><edge toID="1.02" type="H"/></node>\n'
            b'    <node ID="1.2" type="FN"><edge toID="0.1" type="C"/></node>',
        )
        with pytest.raises(DanglingReference, match=r"^edge toID=1\.02 is not a declared node$"):
            parse_xml(doc)
        assert [str(e.child) for e in parse_xml(doc.replace(b'toID="1.02"', b'toID="1.2"')).edges] == ["1.2", "0.1"]

    # int() reads the first four of each, so they once resolved silently, and the
    # leading zeros as the id they spell out; a malformed toID such as "x" once
    # escaped as a bare GraphError.
    @pytest.mark.parametrize("written", [" 1.1 ", "+1.1", "\u0661.\u0661", "0_1.1",
                                         "1.02", "01.1", "x", "1.1.1", ""])
    def test_loose_unit_id_rejected(self, written):
        document = MINIMAL.replace(b'ID="1.1"', f'ID="{written}"'.encode())
        for read in (parse_xml, reference_parse_xml):
            with pytest.raises(XmlFormatError, match=f"^bad unit ID: {re.escape(repr(written))}$"):
                read(document)

    @pytest.mark.parametrize("written", [" 0.1 ", "+0.1", "\u0660.\u0661", "0_0.1",
                                         "0.01", "00.1", "x", "0.1.", ""])
    def test_loose_to_id_rejected(self, written):
        document = MINIMAL.replace(b'toID="0.1"', f'toID="{written}"'.encode())
        for read in (parse_xml, reference_parse_xml):
            with pytest.raises(DanglingReference, match=f"^edge toID={re.escape(written)} is not a declared node$"):
                read(document)

    # Past int()'s limit of 4300 digits, these raised a bare ValueError.
    @pytest.mark.parametrize(
        "old, new",
        [
            (b'ID="1.1"', b'ID="1.' + b"1" * 5000 + b'"'),
            (b'toID="0.1"', b'toID="0.' + b"1" * 5000 + b'"'),
            (b'toID="0.1"', b'toID="' + b"0" * 5000 + b'.1"'),
        ],
        ids=["unit-id", "to-id", "layer-part"],
    )
    def test_overlong_id_rejected(self, old, new):
        with pytest.raises(UccaError, match=r"^(bad unit ID: |edge toID=.* is not a declared node$)"):
            parse_xml(MINIMAL.replace(old, new))

    # Each message repeated its value whole: 4000 digits gave 4000 characters.
    @pytest.mark.parametrize(
        "old, new, start",
        [
            (b'ID="1.1"', b'ID="1.' + b"1" * 5000 + b'"', "bad unit ID: '1.1111111111... (5002"),
            (b'ID="0.1"', b'ID="0.' + b"1" * 4000 + b'"', "terminal 1 has ID '0.1111111111... (4002"),
            (b'<layer layerID="1">', LONG_LAYERS, "repeated layerID '1111111111"),
            (b'type="H"', b'type="' + b"1" * 4000 + b'"', "unknown category code: '1111111111"),
            (b'toID="0.1"', b'toID="1.' + b"1" * 3998 + b'"', "edge toID=1.1111111111... (4000"),
            (b'<edge toID="0.1" type="H"/></node>',
             b'<edge toID="0.1" type="H"/><edge toID="1.' + b"1" * 3998 + b'" type="A"/></node>' + LONG_UNIT * 2,
             "node id already taken: 1.1111111111"),
            (b"</layer>\n</root>", LONG_UNIT.replace(b"/>", b"><edge/></node>") + b"</layer></root>",
             "edge under 1.1111111111"),
            (b'ID="1.1" type="FN">', b'ID="1.' + b"1" * 3998 + b'" type="FN"><attributes implicit="True"/>',
             "root unit 1.1111111111"),
            (b'toID="0.1"', b'toID="' + b"1" * 4000 + b'.0"', "edge toID=111111111111... (4002"),
        ],
        ids=["unit-id", "terminal-id", "layer-id", "category", "to-id", "duplicate-unit",
             "edge-under", "implicit-root", "bad-node-id"],
    )
    def test_long_value_shortened(self, old, new, start):
        document = MINIMAL.replace(old, new)
        with pytest.raises(UccaError) as raised:
            parse_xml(document)
        message = str(raised.value)
        assert message.startswith(start) and len(message) < 100
        with pytest.raises(type(raised.value), match=f"^{re.escape(message)}$"):
            reference_parse_xml(document)

    def test_short_value_repeated_whole(self):
        with pytest.raises(XmlFormatError, match=r"^bad unit ID: '1\.x'$"):
            parse_xml(MINIMAL.replace(b'ID="1.1"', b'ID="1.x"'))
        with pytest.raises(UnknownCategory, match=r"^unknown category code: 'Zz'$"):
            parse_xml(MINIMAL.replace(b'type="H"', b'type="Zz"'))


#: Text for tokens and passage ids: every character attribute escaping
#: touches, non-ASCII text, DEL and a lone surrogate.
AWKWARD_TEXT = st.text(
    st.sampled_from(list("&<>\"'\t\n\r") + ["a", "é", "漢", "😀", "\x7f", "\ud800", ","]),
    min_size=1,
    max_size=4,
)


@st.composite
def awkward_passages(draw):
    tokens = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_passage(rng, draw(AWKWARD_TEXT), tokens=tokens, max_remotes=3)


def every_feature_passage() -> Passage:
    """Escaped text, an implicit unit, a childless unit and a remote edge."""
    tokens = ["a&b", "<i>", 'say "hi"', "tab\there", "line\nbreak\r", "漢字", "\ud800x"]
    p = build_passage("id &<>\"'\t\n\r é \x7f \ud800", tokens)
    scene = p.add_node(NodeKind.NON_TERMINAL)
    p.add_edge(p.root, scene, "H")
    p.add_edge(p.root, p.add_node(NodeKind.NON_TERMINAL), "D")  # childless
    p.add_edge(scene, p.add_node(NodeKind.IMPLICIT), "A")
    for position in range(1, len(tokens) + 1):
        p.add_edge(scene, p.terminal_id(position), "C")
    p.add_edge(p.root, p.terminal_id(6), "A", remote=True)
    return p.freeze()


class TestSerializeXmlBytes:
    @pytest.mark.parametrize("name", ["sample_remote.xml", "sample_implicit.xml"])
    def test_golden_files_round_trip_to_the_byte(self, data_dir, name):
        document = (data_dir / name).read_bytes()
        assert serialize_xml(parse_xml(document)) == document

    def test_every_feature_matches_reference(self):
        p = every_feature_passage()
        document = serialize_xml(p)
        assert document == reference_serialize_xml(p)
        assert b'<node ID="1.3" type="FN" />' in document
        assert b'<attributes implicit="True" />' in document
        assert b'<attributes remote="True" />' in document
        assert b"&#55296;" in document  # a lone surrogate as a character reference
        assert document.endswith(b"</root>\n")

    @settings(max_examples=200, deadline=None)
    @given(awkward_passages())
    def test_matches_reference_writer(self, p):
        assert serialize_xml(p) == reference_serialize_xml(p)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_writer_on_normalized(self, seed):
        p = normalize(random_passage(random.Random(seed), legacy_labels=True))
        assert serialize_xml(p) == reference_serialize_xml(p)


#: Replacement values for ID, toID and type attributes in the fuzz test.
MUTANT_VALUES = [
    "", "0", "1", "0.0", "1.0", "0.1", "1.1", "1.2", "1.02", "01.1", "2.1", "1.99",
    "0.99", "-1.1", "1.-1", "1.1.1", "1_0.1", "\u0661.\u0661", "x", "T", "Z", "H", "FN",
]
_MUTABLE_VALUE = re.compile(rb'\b(?:ID|toID|type)="([^"]*)"')


def mutate(document: bytes, data) -> bytes:
    """One random edit: a byte flip, a deleted or duplicated line, or a new
    ID, toID or type value."""
    kind = data.draw(st.sampled_from(["flip", "delete", "duplicate", "value"]))
    if kind == "flip":
        i = data.draw(st.integers(0, len(document) - 1))
        return document[:i] + bytes([data.draw(st.integers(0, 255))]) + document[i + 1 :]
    if kind == "value":
        match = data.draw(st.sampled_from(list(_MUTABLE_VALUE.finditer(document))))
        value = data.draw(st.sampled_from(MUTANT_VALUES)).encode()
        return document[: match.start(1)] + value + document[match.end(1) :]
    lines = document.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i : i + 1] = [] if kind == "delete" else [lines[i], lines[i]]
    return b"\n".join(lines)


class TestParserFuzz:
    # Unknown or unusable encodings made expat's caller raise LookupError
    # or ValueError rather than a parse error.
    @pytest.mark.parametrize("encoding", [b"utf-9", b"rot13", b"utf-7", b"idna"])
    def test_bad_encoding_is_a_syntax_error(self, encoding):
        with pytest.raises(XmlSyntax):
            parse_xml(MINIMAL.replace(b"utf-8", encoding))

    @settings(max_examples=300, deadline=None)
    @given(passages, st.data())
    def test_mutants_load_or_raise_ucca_errors(self, p, data):
        mutant = mutate(serialize_xml(p), data)
        try:
            again = parse_xml(mutant)
        except UccaError:
            return
        assert again.sealed


# -- the reader against the ElementTree reader it replaced -----------------


def outcome(read, document):
    """The passage read, as its id, root, nodes, edges in order, bottom-up
    order and yield masks; or the error, as its type and message."""
    try:
        p = read(document)
    except Exception as exc:
        return type(exc), str(exc)
    return p.passage_id, p.root, p.nodes, p.edges, p.bottom_up(), p.yield_masks()


#: Markup inserted after a random ">": unknown and nested elements, elements
#: that the reader reads in one place found in another, a comment, a
#: processing instruction, text, and entity and character references.
INSERTED = [
    "<unknown/>", '<x><node ID="1.9" type="FN"/></x>', '<layer layerID="2"/>',
    '<layer layerID="1"><node ID="1.7" type="FN"/></layer>', '<n:layer xmlns:n="urn:n" layerID="0"/>',
    '<attributes remote="True" implicit="True" text="t"/>', '<edge toID="0.1" type="A"/>',
    "<!-- a comment -->", "<?pi data?>", "text", "&e;", "&ext;", "&nest;", "&amp;", "&#38;",
]

#: DOCTYPEs with internal, external and nested entities, an external DTD
#: subset, a parameter entity and a defaulted attribute.
DOCTYPES = [
    '<!DOCTYPE root [<!ENTITY e "<x/>">]>',
    '<!DOCTYPE root [<!ENTITY e "v"><!ENTITY ext SYSTEM "ext.xml"><!ENTITY nest "a&ext;b">]>',
    '<!DOCTYPE root SYSTEM "root.dtd" [<!ENTITY e "<attributes remote=\'True\'/>">]>',
    '<!DOCTYPE root [<!ENTITY % pe SYSTEM "pe.dtd"> %pe;]>',
    '<!DOCTYPE root [<!ATTLIST edge type CDATA "H">]>',
]


def with_doctype(document: bytes, doctype: str) -> bytes:
    """The DOCTYPE inserted after the XML declaration."""
    declaration, _, rest = document.partition(b"\n")
    return declaration + b"\n" + doctype.encode() + b"\n" + rest


#: A document whose DOCTYPE has an external part, so that expat does not
#: itself refuse an undeclared entity.
UNDECLARED_ENTITY = with_doctype(MINIMAL, '<!DOCTYPE root SYSTEM "root.dtd">').replace(
    b'<attributes text="hi"/>', b'<attributes text="hi"/>&undeclared;')
EXTERNAL_ENTITY = with_doctype(MINIMAL, '<!DOCTYPE root [<!ENTITY e SYSTEM "e.xml">]>').replace(
    b"</root>", b"&e;</root>")
INTERNAL_ENTITY = with_doctype(MINIMAL, '<!DOCTYPE root [<!ENTITY hi "hi">]>').replace(
    b'"hi"/>', b'"&hi;"/>')
#: An entity in a token and a defaulted edge type: read, they would change the passage.
ENTITY_AND_DEFAULT = with_doctype(
    MINIMAL, '<!DOCTYPE root [<!ENTITY w "John"><!ATTLIST edge type CDATA "A">]>').replace(
    b'"hi"/>', b'"&w;"/>')

#: How both readers refuse a document with a DOCTYPE named root.
DOCTYPE_REFUSED = (XmlFormatError, "DOCTYPE 'root' not allowed in passage XML")


class TestReaderMatchesReference:
    """parse_xml reads what the ElementTree reader read, and refuses what it
    refused, with the same error type and message."""

    @settings(max_examples=400, deadline=None)
    @given(passages, st.data())
    def test_documents(self, p, data):
        document = serialize_xml(p)
        for _ in range(data.draw(st.integers(0, 3))):
            ends = [m.end() for m in re.finditer(rb">", document)]
            at = data.draw(st.sampled_from(ends))
            document = document[:at] + data.draw(st.sampled_from(INSERTED)).encode() + document[at:]
        if data.draw(st.booleans()):
            document = with_doctype(document, data.draw(st.sampled_from(DOCTYPES)))
        if data.draw(st.booleans()):
            document = mutate(document, data)
        if data.draw(st.integers(0, 4)) == 0:  # as text; bad bytes become lone surrogates
            document = document.decode("utf-8", "surrogateescape")
        assert outcome(parse_xml, document) == outcome(reference_parse_xml, document)

    @pytest.mark.parametrize(
        "document",
        [
            MINIMAL.decode(),
            b"\xef\xbb\xbf" + MINIMAL,
            MINIMAL.decode().replace("utf-8", "utf-16").encode("utf-16"),
        ],
        ids=["str", "bom", "utf-16"],
    )
    def test_read(self, document):
        assert outcome(parse_xml, document) == outcome(reference_parse_xml, document)
        assert parse_xml(document) == parse_xml(MINIMAL)

    @pytest.mark.parametrize(
        "document, error, message",
        [
            (MINIMAL.replace(b"<root ", b'<root xmlns="urn:x" '), XmlFormatError,
             "expected a <root passageID=...> document element"),
            (UNDECLARED_ENTITY, *DOCTYPE_REFUSED),
            (EXTERNAL_ENTITY, *DOCTYPE_REFUSED),
            (MINIMAL.replace(b"</root>", b"&e;</root>"), XmlSyntax,
             "malformed XML: undefined entity: line 9, column 0"),
            (INTERNAL_ENTITY, *DOCTYPE_REFUSED),
            (ENTITY_AND_DEFAULT, *DOCTYPE_REFUSED),
            *((with_doctype(MINIMAL, doctype), *DOCTYPE_REFUSED) for doctype in DOCTYPES),
            (with_doctype(MINIMAL, "<!DOCTYPE html>"), XmlFormatError,
             "DOCTYPE 'html' not allowed in passage XML"),
            (with_doctype(MINIMAL, f"<!DOCTYPE {'d' * 40}>"), XmlFormatError,
             "DOCTYPE 'dddddddddddd... (40 characters)' not allowed in passage XML"),
        ],
        ids=["namespaced-root", "undeclared-entity", "external-entity", "entity-without-doctype",
             "internal-entity", "entity-and-default", *(f"doctype-{k}" for k in range(len(DOCTYPES))),
             "other-name", "long-name"],
    )
    def test_refused(self, document, error, message):
        assert outcome(parse_xml, document) == outcome(reference_parse_xml, document) == (error, message)

    # The codecs word these messages, so they are compared, not pinned.
    @pytest.mark.parametrize("encoding", [b"utf-9", b"rot13", b"utf-7", b"idna"])
    def test_bad_encoding(self, encoding):
        document = MINIMAL.replace(b"utf-8", encoding)
        error, message = outcome(parse_xml, document)
        assert (error, message) == outcome(reference_parse_xml, document)
        assert error is XmlSyntax and message.startswith("malformed XML: ")


class TestNoReferenceCycle:
    """No handler of the reader refers back to the parser, so a parse, read
    or refused, leaves nothing for the cyclic garbage collector."""

    @pytest.mark.parametrize("document, refused", [
        (MINIMAL, False),
        (INTERNAL_ENTITY, True),
        (MINIMAL[:-20], True),
        (UNDECLARED_ENTITY, True),
    ], ids=["plain", "internal-doctype", "truncated", "undeclared-entity"])
    def test_parse_leaves_nothing_to_collect(self, document, refused):
        gc.collect()
        gc.disable()
        try:
            try:
                parse_xml(document)
                raised = False
            except XmlFormatError:
                raised = True
            assert (raised, gc.collect()) == (refused, 0)
        finally:
            gc.enable()
