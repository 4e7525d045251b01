"""Passage serialization: XML, plain text and bi-lexical dependencies.

The XML layout, as serialize_xml writes it byte for byte, ending in a newline:

    <?xml version='1.0' encoding='utf-8'?>
    <root passageID="...">
      <layer layerID="0">
        <node ID="0.1" type="Word">
          <attributes text="..." paragraph="1" paragraph_position="1" />
        </node>
      </layer>
      <layer layerID="1">
        <node ID="1.1" type="FN">
          <edge toID="0.1" type="L" />
          <edge toID="0.4" type="A">
            <attributes remote="True" />
          </edge>
        </node>
        <node ID="1.5" type="FN">
          <attributes implicit="True" />
        </node>
        <node ID="1.6" type="FN" />
      </layer>
    </root>

Attribute values escape & < > " tab LF CR as &amp; &lt; &gt; &quot; &#09; &#10;
&#13;: ElementTree's bytes, but from this module's own writer, so they do not
depend on the Python version.

Each layerID appears once.  Terminal order in layer 0 is document order
and defines token positions.  The root unit is the unique layer-1 node
with no incoming edge, and it is not implicit.

parse_xml reads with pyexpat, keeping only the elements above: it reads XML
as ElementTree did, refusing with its messages, but refuses a DOCTYPE, so no
entity but XML's five predefined ones is expanded.  A node id is read only in
the spelling that str(NodeId) writes: "1.02" or " 1.1 " names no node.  A
terminal's type is read, kept by the passage and written back; a type other
than "Word" or "Punctuation", or none, is refused.

The bi-lexical export is lossy by design: remote edges and implicit nodes
are dropped, and each unit is collapsed onto one lexical head by the rule
that export_bilexical states.
"""
from __future__ import annotations

from collections import namedtuple
from xml.parsers.expat import ExpatError, ParserCreate

from .categories import CATEGORIES, Category
from .errors import DanglingReference, GraphError, XmlFormatError, XmlSyntax, shown
from .graph import Edge, NodeId, NodeKind, Passage

# -- XML ------------------------------------------------------------------


def parse_xml(document: bytes | str) -> Passage:
    """Read one passage document and return it sealed."""
    roots = _read_elements(document)
    if not roots or "passageID" not in roots[0][0]:
        raise XmlFormatError("expected a <root passageID=...> document element")
    root, = roots
    passage_id = root[0]["passageID"]

    layers = {}
    for layer in root[2]:
        layer_id = layer[0].get("layerID")
        if layer_id in layers:
            raise XmlFormatError(f"repeated layerID {shown(layer_id)!r}")
        layers[layer_id] = layer[2]
    if "0" not in layers or "1" not in layers:
        raise XmlFormatError("document must contain layers 0 and 1")

    new = tuple.__new__  # checked fields: each record is built without its Python __new__
    tokens, punctuation = [], []
    ids: dict[str, NodeId] = {}  # terminal ids, then declared unit ids, by the text of their ID
    for position, (attrs, attributes, _, _) in enumerate(layers["0"], start=1):
        nid = attrs.get("ID", "")
        if nid != f"0.{position}":
            raise XmlFormatError(f"terminal {position} has ID {shown(nid)!r}, expected 0.{position}")
        if attributes is None or "text" not in attributes:
            raise XmlFormatError(f"terminal {nid} lacks a text attribute")
        kind = attrs.get("type")
        if kind != "Word":
            if kind != "Punctuation":
                raise XmlFormatError(f"terminal {nid} has type {shown(kind)!r}, expected Word or Punctuation")
            punctuation.append(position)
        tokens.append(attributes["text"])
        ids[nid] = new(NodeId, (0, position))

    units: list[tuple[NodeId, NodeKind]] = []
    written: list[tuple[NodeId, str, str, bool]] = []  # parent, toID, type, remote
    for attrs, attributes, edges, _ in layers["1"]:
        text = attrs.get("ID", "")
        try:
            nid = ids[text] = NodeId.parse(text)
        except GraphError:
            raise XmlFormatError(f"bad unit ID: {shown(attrs.get('ID'))!r}") from None
        implicit = attributes is not None and attributes.get("implicit") == "True"
        units.append((nid, NodeKind.IMPLICIT if implicit else NodeKind.NON_TERMINAL))
        for attrs, attributes, _, _ in edges:
            to_id, code = attrs.get("toID"), attrs.get("type")
            if to_id is None or code is None:
                raise XmlFormatError(f"edge under {shown(nid)} lacks toID or type")
            remote = attributes is not None and attributes.get("remote") == "True"
            written.append((nid, to_id, code, remote))

    edges = []
    for nid, to_id, code, remote in written:
        child = ids.get(to_id)
        if child is None:
            raise DanglingReference(f"edge toID={shown(to_id)} is not a declared node")
        category = CATEGORIES.get(code) or Category(code)
        edges.append(new(Edge, (nid, child, category, remote)))

    referenced = {edge.child for edge in edges}
    roots = [unit for unit in units if unit[0] not in referenced]
    if len(roots) != 1:
        raise XmlFormatError(f"expected exactly one root unit, found {len(roots)}")
    (root_id, root_kind), = roots
    if root_kind is NodeKind.IMPLICIT:
        raise XmlFormatError(f"root unit {shown(root_id)} is marked implicit")
    others = [unit for unit in units if unit[0] != root_id]
    return Passage.assemble(passage_id, tokens, root_id, others, edges, punctuation)


def _read_elements(document: bytes | str) -> list:
    """The records of the document element if it is a <root>: one or none.
    A record is [attributes, the first <attributes> child's attributes or
    None, records of the children with the collected tag, that tag]: only
    a <root> document element, a <layer> under it, a <node> under that and
    an <edge> under that get one."""
    parser = ParserCreate(namespace_separator="}")  # as ElementTree's
    top = [None, None, [], "root"]  # the document's record, parent of its element's
    open_records = [top]  # a skipped element's record is None
    child_tag = {"root": "layer", "layer": "node", "node": "edge"}.get  # collected under a tag

    def start(tag, attrs):
        parent, record = open_records[-1], None
        if parent is not None:
            if tag == parent[3]:
                record = [attrs, None, [], child_tag(tag)]
                parent[2].append(record)
            elif tag == "attributes" and parent[1] is None:
                parent[1] = attrs
        open_records.append(record)

    def refuse_doctype(name, *_):
        raise XmlFormatError(f"DOCTYPE {shown(name)!r} not allowed in passage XML")

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: open_records.pop()
    parser.StartDoctypeDeclHandler = refuse_doctype
    try:
        parser.Parse(document, True)
    except (ExpatError, LookupError, ValueError) as exc:  # the latter two: bad encoding
        raise XmlSyntax(f"malformed XML: {exc}") from None
    return top[2]


#: Attribute value escapes, the same as ElementTree's.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def serialize_xml(passage: Passage) -> bytes:
    """Deterministic UTF-8 document: nodes in id order, edges in insertion
    order.  parse_xml(serialize_xml(p)) is structurally identical to p."""
    passage.require_sealed()
    punctuation = passage.punctuation
    lines = ["<?xml version='1.0' encoding='utf-8'?>",
             f'<root passageID="{passage.passage_id.translate(_ESCAPES)}">',
             '  <layer layerID="0">']
    for t in passage.terminals:
        kind = "Punctuation" if t.id in punctuation else "Word"
        text = t.text.translate(_ESCAPES)
        lines += (f'    <node ID="0.{t.position}" type="{kind}">',
                  f'      <attributes text="{text}" paragraph="1" paragraph_position="{t.position}" />',
                  "    </node>")
    lines += ("  </layer>", '  <layer layerID="1">')
    for unit in sorted((n for n in passage.nodes if not n.is_terminal), key=lambda n: n.id):
        body = ['      <attributes implicit="True" />'] if unit.kind is NodeKind.IMPLICIT else []
        for _, child, category, remote in passage.outgoing(unit.id):
            edge = f'      <edge toID="{child}" type="{category!s}"'  # !s: cheaper than format() of a str subclass
            if remote:
                body += (edge + ">", '        <attributes remote="True" />', "      </edge>")
            else:
                body.append(edge + " />")
        node = f'    <node ID="{unit.id}" type="FN"'
        lines += (node + ">", *body, "    </node>") if body else (node + " />",)
    lines += ("  </layer>", "</root>", "")
    return "\n".join(lines).encode("utf-8")


# -- plain text -----------------------------------------------------------


def export_text(passage: Passage) -> str:
    """Tokens joined by single spaces in position order."""
    passage.require_sealed()
    return " ".join(passage.tokens)


# -- bi-lexical dependencies ----------------------------------------------

#: Category priority for picking a unit's lexical head, highest first
#: (the rule is in export_bilexical).
HEAD_PRIORITY = ["C", "P", "S", "H", "A", "D", "E", "N", "R", "L", "G", "F", "U"]

#: Category -> the rank of its normalized form in HEAD_PRIORITY.
_HEAD_RANK = {c: HEAD_PRIORITY.index(c.normalized) for c in CATEGORIES.values()}

#: Relation used for the token heading the whole passage.
ROOT_DEPREL = "root"


#: One token's dependency: head 0 is the passage root.
BilexicalRow = namedtuple("BilexicalRow", "position form head deprel")


def export_bilexical(passage: Passage) -> list[BilexicalRow]:
    """Collapse the graph to one head and relation per token.

    A node has a lexical head iff its yield is not empty: a terminal heads
    itself, and a unit has one iff a primary child has.  It takes the head
    of its headed primary child with the lowest (HEAD_PRIORITY rank of the
    edge, first token of the child's yield).  Each other such child's head
    depends on the unit's head, labeled with the category of the edge into
    that child; the root's head gets ROOT_DEPREL.  Remote edges and
    implicit nodes are dropped.  Legacy T/Q labels are read as their
    replacements, so a passage exports as its normalized form does.
    """
    heads: dict[NodeId, int] = {}  # head position of each headed node
    first: dict[NodeId, int] = {}  # and the first token of its yield
    rows: dict[int, tuple[int, str]] = {}  # dependent position -> head position, relation
    for nid in passage.bottom_up():  # children first
        node = passage.node(nid)
        if node.is_terminal:
            heads[nid] = first[nid] = node.position
        # Headed primary children, the head's first; sibling yields are disjoint, so first tokens differ.
        elif headed := sorted((_HEAD_RANK[category], first[child], child, category)
                              for _, child, category, remote in passage.outgoing(nid)
                              if not remote and child in first):
            head = heads[nid] = heads[headed[0][2]]
            first[nid] = min(entry[1] for entry in headed)
            for _, _, child, code in headed[1:]:
                rows[heads[child]] = (head, code.normalized)
    rows[heads[passage.root]] = (0, ROOT_DEPREL)
    return [BilexicalRow(t.position, t.text, *rows[t.position]) for t in passage.terminals]


def render_bilexical(rows: list[BilexicalRow]) -> str:
    """Four tab-separated columns per row, trailing blank line."""
    lines = [f"{r.position}\t{r.form}\t{r.head}\t{r.deprel}" for r in rows]
    return "\n".join(lines) + "\n"
