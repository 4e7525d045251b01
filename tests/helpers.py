"""Shared test machinery: random passage generation, passage surgery, an
independent brute-force reference scorer, and the replaced implementations
kept as oracles (tuple yields, XML reader and writer, assembly, bi-lexical
export).

The reference scorer deliberately avoids the library's yield cache and
multiset matcher: it recomputes yields by plain recursion and finds the
match count by maximum bipartite matching over individual edge pairs.
"""
from __future__ import annotations

import random
import xml.etree.ElementTree as ET

from uccakit.categories import FOUNDATIONAL, LEGACY_REPLACEMENT, Category
from uccakit.errors import (
    DanglingReference,
    DuplicateEdge,
    DuplicatePrimaryParent,
    StructuralViolation,
    TerminalAsParent,
    UnknownCategory,
    XmlFormatError,
    XmlSyntax,
    shown,
)
from uccakit.formats import HEAD_PRIORITY, ROOT_DEPREL, BilexicalRow
from uccakit.graph import (
    UNIT_LAYER,
    Edge,
    GraphError,
    Node,
    NodeId,
    NodeKind,
    Passage,
    build_passage,
    is_punctuation,
)

WORDS = ["the", "cat", "sat", "on", "a", "mat", "today", "quietly"]
PUNCT = [",", ".", ";", "!"]
CODES = sorted(FOUNDATIONAL)


def random_passage(
    rng: random.Random,
    passage_id: str = "rand",
    tokens: list[str] | None = None,
    max_tokens: int = 8,
    max_units: int = 6,
    max_remotes: int = 2,
    legacy_labels: bool = False,
) -> Passage:
    """A random sealed passage; structure is a random tree plus remotes."""
    codes = CODES + (["T", "Q"] * 3 if legacy_labels else [])
    if tokens is None:
        tokens = [
            rng.choice(PUNCT) if rng.random() < 0.15 else rng.choice(WORDS)
            for _ in range(rng.randint(1, max_tokens))
        ]
    p = build_passage(passage_id, tokens)
    units = [p.root]
    for _ in range(rng.randint(0, max_units - 1)):
        parent = rng.choice(units)
        unit = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(parent, unit, rng.choice(codes))
        units.append(unit)
    if rng.random() < 0.3:
        p.add_edge(rng.choice(units), p.add_node(NodeKind.IMPLICIT), rng.choice(codes))
    for position, text in enumerate(tokens, start=1):
        code = "U" if is_punctuation(text) else rng.choice(codes)
        p.add_edge(rng.choice(units), p.terminal_id(position), code)
    candidates = [n.id for n in p.nodes if n.id != p.root]
    for _ in range(rng.randint(0, max_remotes)):
        parent, child, code = rng.choice(units), rng.choice(candidates), rng.choice(codes)
        if reaches(p, child, parent):
            continue  # a cycle, which freeze would refuse: just skip
        try:
            p.add_edge(parent, child, code, remote=True)
        except GraphError:
            pass  # a duplicate: just skip
    return p.freeze()


def random_pair(rng: random.Random) -> tuple[Passage, Passage]:
    """Two independently structured passages over the same token sequence."""
    first = random_passage(rng, "pair")
    second = random_passage(rng, "pair", tokens=list(first.tokens))
    return first, second


def punctuation_positions(passage: Passage) -> list[int]:
    """The positions of the terminals a passage types Punctuation, in order."""
    return sorted(nid.index for nid in passage.punctuation)


def rebuild(passage: Passage, edit=None, punctuation=None) -> Passage:
    """Copy a sealed passage, passing each edge through `edit`.

    `edit` maps an Edge to a replacement Edge or None to drop it.  The copy
    types Punctuation the terminals at the positions `punctuation` lists,
    or by default those the passage does.
    """
    if punctuation is None:
        punctuation = punctuation_positions(passage)
    fresh = Passage(passage.passage_id, passage.tokens, root_id=passage.root, punctuation=punctuation)
    for node in passage.nodes:
        if node.kind is not NodeKind.TERMINAL and node.id != passage.root:
            fresh.add_node(node.kind, node_id=node.id)
    for edge in passage.edges:
        edited = edit(edge) if edit else edge
        if edited is not None:
            fresh.add_edge(edited.parent, edited.child, edited.category, remote=edited.remote)
    return fresh.freeze()


def flipped_types(passage: Passage, rng: random.Random) -> list[int]:
    """Punctuation positions for the passage's tokens with each type drawn
    against is_punctuation: a punctuation token typed Word or a word typed
    Punctuation, each at random."""
    return [position for position, token in enumerate(passage.tokens, start=1)
            if is_punctuation(token) != (rng.random() < 0.5)]


def relabel(edge, code):
    return edge._replace(category=Category.from_code(code))


# -- brute-force reference scorer -----------------------------------------


def plain_yield(passage: Passage, node_id) -> frozenset[int]:
    node = passage.node(node_id)
    if node.is_terminal:
        return frozenset([node.position])
    out: frozenset[int] = frozenset()
    for edge in passage.outgoing(node_id):
        if not edge.remote:
            out |= plain_yield(passage, edge.child)
    return out


def reference_yields(passage: Passage) -> dict[NodeId, tuple[int, ...]]:
    """The tuple-building yield pass that the integer masks replaced, kept
    as their oracle: every yield in one bottom-up pass; sibling yields in
    the primary tree are disjoint, so a unit's yield is its children's
    joined and sorted."""
    yields = {}
    for nid in passage.bottom_up():
        node = passage.node(nid)
        if node.is_terminal:
            yields[nid] = (node.position,)
            continue
        joined = [
            position
            for e in passage.outgoing(nid)
            if not e.remote
            for position in yields[e.child]
        ]
        joined.sort()
        yields[nid] = tuple(joined)
    return yields


def reaches(passage: Passage, start, target) -> bool:
    """True iff edges, primary or remote, lead from start to target (or
    they are the same node); plain recursion over every path."""
    if start == target:
        return True
    return any(reaches(passage, e.child, target) for e in passage.outgoing(start))


def _edge_pool(passage, remote, labeled, category=None, include_punct=True):
    pool = []
    for edge in passage.edges:
        if edge.remote != remote:
            continue
        if not include_punct and edge.category.code == "U":
            continue
        if category is not None and edge.category.code != category:
            continue
        span = plain_yield(passage, edge.child)
        if span:
            pool.append((span, edge.category.code if labeled else None))
    return pool


def _max_matching(out_pool, gold_pool) -> int:
    """Kuhn's augmenting-path maximum bipartite matching."""
    matched_gold = [-1] * len(gold_pool)

    def augment(i, visited):
        for j, gold in enumerate(gold_pool):
            if j in visited or out_pool[i] != gold:
                continue
            visited.add(j)
            if matched_gold[j] == -1 or augment(matched_gold[j], visited):
                matched_gold[j] = i
                return True
        return False

    return sum(augment(i, set()) for i in range(len(out_pool)))


def oracle_scores(output: Passage, gold: Passage, include_punct=True) -> dict:
    """Counts per stratum, same shape as EvalScores.to_dict() count fields."""
    result: dict = {"labeled": {}, "unlabeled": {}, "by_category": {}}
    for labeled in (True, False):
        key = "labeled" if labeled else "unlabeled"
        total = [0, 0, 0]
        for remote in (False, True):
            o = _edge_pool(output, remote, labeled, include_punct=include_punct)
            g = _edge_pool(gold, remote, labeled, include_punct=include_punct)
            m = _max_matching(o, g)
            result[key]["remote" if remote else "primary"] = (m, len(o), len(g))
            total = [total[0] + m, total[1] + len(o), total[2] + len(g)]
        result[key]["all"] = tuple(total)
    codes = {e.category.code for e in output.edges} | {e.category.code for e in gold.edges}
    for code in codes:
        if not include_punct and code == "U":
            continue
        triple = [0, 0, 0]
        for remote in (False, True):
            o = _edge_pool(output, remote, True, category=code, include_punct=include_punct)
            g = _edge_pool(gold, remote, True, category=code, include_punct=include_punct)
            triple = [triple[0] + _max_matching(o, g), triple[1] + len(o), triple[2] + len(g)]
        if triple[1] or triple[2]:
            result["by_category"][code] = tuple(triple)
    return result


def counts_triple(counts) -> tuple[int, int, int]:
    return (counts.matched, counts.predicted, counts.gold)


def deep_center_chain(depth: int = 1500) -> Passage:
    """The F token 1 and a chain of `depth` nested C units over token 2,
    both under the root.  The first token's head is the root's, which lies
    at the bottom of a chain deeper than the interpreter's recursion limit."""
    p = build_passage("chain", ["is", "it"])
    p.add_edge(p.root, p.terminal_id(1), "F")
    unit = p.root
    for _ in range(depth):
        child = p.add_node(NodeKind.NON_TERMINAL)
        p.add_edge(unit, child, "C")
        unit = child
    p.add_edge(unit, p.terminal_id(2), "C")
    return p.freeze()


def _document(units: str) -> bytes:
    return f"""<?xml version='1.0' encoding='utf-8'?>
<root passageID="cyclic">
  <layer layerID="0">
    <node ID="0.1" type="Word"><attributes text="a"/></node>
    <node ID="0.2" type="Word"><attributes text="b"/></node>
  </layer>
  <layer layerID="1">{units}
  </layer>
</root>
""".encode()


#: Documents whose edges close a cycle, keyed by the kind of edge closing it.
CYCLIC_DOCUMENTS = {
    # Two Scenes under the root, each reaching the other remotely.
    "remote": _document("""
    <node ID="1.1" type="FN"><edge toID="1.2" type="H"/><edge toID="1.3" type="H"/></node>
    <node ID="1.2" type="FN"><edge toID="0.1" type="P"/>
      <edge toID="1.3" type="A"><attributes remote="True"/></edge></node>
    <node ID="1.3" type="FN"><edge toID="0.2" type="P"/>
      <edge toID="1.2" type="A"><attributes remote="True"/></edge></node>"""),
    # Two units that are each other's primary parent, cut off from the root.
    "primary": _document("""
    <node ID="1.1" type="FN"><edge toID="0.1" type="H"/></node>
    <node ID="1.2" type="FN"><edge toID="1.3" type="A"/><edge toID="0.2" type="P"/></node>
    <node ID="1.3" type="FN"><edge toID="1.2" type="A"/></node>"""),
}


# -- reference XML writer -------------------------------------------------


def reference_serialize_xml(passage: Passage) -> bytes:
    """The ElementTree writer that formats.serialize_xml replaced, kept as
    the oracle its output must match byte for byte."""
    passage.require_sealed()
    root = ET.Element("root", passageID=passage.passage_id)
    layer0 = ET.SubElement(root, "layer", layerID="0")
    for terminal in passage.terminals:
        kind = "Punctuation" if terminal.id in passage.punctuation else "Word"
        node = ET.SubElement(layer0, "node", ID=str(terminal.id), type=kind)
        ET.SubElement(
            node,
            "attributes",
            text=terminal.text,
            paragraph="1",
            paragraph_position=str(terminal.position),
        )
    layer1 = ET.SubElement(root, "layer", layerID="1")
    units = sorted(
        (n for n in passage.nodes if not n.is_terminal), key=lambda n: n.id
    )
    for unit in units:
        node = ET.SubElement(layer1, "node", ID=str(unit.id), type="FN")
        if unit.kind is NodeKind.IMPLICIT:
            ET.SubElement(node, "attributes", implicit="True")
        for edge in passage.outgoing(unit.id):
            elem = ET.SubElement(node, "edge", toID=str(edge.child), type=edge.category.code)
            if edge.remote:
                ET.SubElement(elem, "attributes", remote="True")
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


# -- reference bi-lexical export ------------------------------------------


def reference_export_bilexical(passage: Passage) -> list[BilexicalRow]:
    """The export that formats.export_bilexical's single walk replaced,
    kept as the oracle its rows must match: heads from ranked yields, then
    a climb from each token through a primary-parent index."""
    heads: dict[NodeId, Node | None] = {}
    for nid in passage.bottom_up():  # children's heads first
        node = passage.node(nid)
        if node.is_terminal:
            heads[nid] = node
            continue
        best = None
        for edge in passage.outgoing(nid):
            if edge.remote:
                continue
            span = passage.yield_of(edge.child)
            if not span:
                continue
            code = edge.category.code
            rank = (HEAD_PRIORITY.index(LEGACY_REPLACEMENT.get(code, code)), span[0])
            if best is None or rank < best[0]:
                best = (rank, edge.child)
        heads[nid] = heads[best[1]] if best else None

    primary_parent: dict[NodeId, tuple[NodeId, str]] = {
        e.child: (e.parent, LEGACY_REPLACEMENT.get(e.category.code, e.category.code))
        for e in passage.edges
        if not e.remote
    }

    rows = []
    for terminal in passage.terminals:
        unit: NodeId = terminal.id
        while unit != passage.root:
            parent, _ = primary_parent[unit]
            if heads[parent] != terminal:
                break
            unit = parent
        if unit == passage.root:
            head, deprel = 0, ROOT_DEPREL
        else:
            parent, deprel = primary_parent[unit]
            head = heads[parent].position
        rows.append(BilexicalRow(terminal.position, terminal.text, head, deprel))
    return rows


# -- reference XML reader -------------------------------------------------


class _RefusingTreeBuilder(ET.TreeBuilder):
    """ElementTree's tree builder, refusing a DOCTYPE as parse_xml does."""

    def doctype(self, name, pubid, system):
        raise XmlFormatError(f"DOCTYPE {shown(name)!r} not allowed in passage XML")


def reference_parse_xml(document: bytes | str) -> Passage:
    """The ElementTree reader that formats.parse_xml replaced, kept as the
    oracle whose passages and errors it must match."""
    parser = ET.XMLParser(target=_RefusingTreeBuilder())
    try:
        parser.feed(document)
        root = parser.close()
    except (ET.ParseError, LookupError, ValueError) as exc:  # the latter two: bad encoding
        raise XmlSyntax(f"malformed XML: {exc}") from None
    if root.tag != "root" or "passageID" not in root.attrib:
        raise XmlFormatError("expected a <root passageID=...> document element")
    passage_id = root.attrib["passageID"]

    layers = {}
    for layer in root.findall("layer"):
        layer_id = layer.attrib.get("layerID")
        if layer_id in layers:
            raise XmlFormatError(f"repeated layerID {shown(layer_id)!r}")
        layers[layer_id] = layer
    if "0" not in layers or "1" not in layers:
        raise XmlFormatError("document must contain layers 0 and 1")

    tokens, punctuation = [], []
    for position, node in enumerate(layers["0"].findall("node"), start=1):
        nid = node.attrib.get("ID", "")
        if nid != f"0.{position}":
            raise XmlFormatError(f"terminal {position} has ID {shown(nid)!r}, expected 0.{position}")
        attributes = node.find("attributes")
        if attributes is None or "text" not in attributes.attrib:
            raise XmlFormatError(f"terminal {nid} lacks a text attribute")
        kind = node.attrib.get("type")
        if kind not in ("Word", "Punctuation"):
            raise XmlFormatError(f"terminal {nid} has type {shown(kind)!r}, expected Word or Punctuation")
        if kind == "Punctuation":
            punctuation.append(position)
        tokens.append(attributes.attrib["text"])

    units: list[tuple[NodeId, NodeKind]] = []
    written: list[tuple[NodeId, str, str, bool]] = []  # parent, toID, type, remote
    ids: dict[str, NodeId] = {}  # declared unit ids, then terminal ids, by the text of their ID
    for node in layers["1"].findall("node"):
        try:
            nid = NodeId.parse(node.attrib.get("ID", ""))
        except GraphError:
            raise XmlFormatError(f"bad unit ID: {shown(node.attrib.get('ID'))!r}") from None
        ids[node.attrib["ID"]] = nid  # a duplicate is refused by Passage's unit check
        attributes = node.find("attributes")
        implicit = attributes is not None and attributes.attrib.get("implicit") == "True"
        units.append((nid, NodeKind.IMPLICIT if implicit else NodeKind.NON_TERMINAL))
        for edge in node.findall("edge"):
            to_id = edge.attrib.get("toID")
            code = edge.attrib.get("type")
            if to_id is None or code is None:
                raise XmlFormatError(f"edge under {shown(nid)} lacks toID or type")
            edge_attrs = edge.find("attributes")
            remote = edge_attrs is not None and edge_attrs.attrib.get("remote") == "True"
            written.append((nid, to_id, code, remote))

    ids.update((f"0.{k}", NodeId(0, k)) for k in range(1, len(tokens) + 1))
    edges = []
    for nid, to_id, code, remote in written:
        child = ids.get(to_id)  # only the spelling str(NodeId) writes names a node
        if child is None:
            raise DanglingReference(f"edge toID={shown(to_id)} is not a declared node")
        edges.append(Edge(nid, child, Category.from_code(code), remote))

    referenced = {edge.child for edge in edges}
    roots = [unit for unit in units if unit[0] not in referenced]
    if len(roots) != 1:
        raise XmlFormatError(f"expected exactly one root unit, found {len(roots)}")
    (root_id, root_kind), = roots
    if root_kind is NodeKind.IMPLICIT:
        raise XmlFormatError(f"root unit {shown(root_id)} is marked implicit")
    others = [unit for unit in units if unit[0] != root_id]
    return reference_assemble(passage_id, tokens, root_id, others, edges, punctuation=punctuation)


# -- reference assembly ---------------------------------------------------


def reference_assemble(passage_id, tokens, root_id, units, edges, incoming=None, punctuation=None) -> Passage:
    """The assembly that Passage.assemble's bulk loops replaced, kept as
    their oracle: add_node's checks and registration once per unit, _link's
    checks once per edge against each node's list of incoming edges, then
    the freeze loop that listed each node's primary parents.  Like
    Passage.assemble it runs no cycle search.  If `incoming` is given, it
    receives those lists: each node's incoming edges in the order linked.
    `punctuation` passes to the passage as it does through Passage.assemble."""
    passage = Passage(passage_id, tokens, root_id=root_id, punctuation=punctuation)
    in_ = {nid: [] for nid in passage._nodes}
    for node_id, kind in units:
        _reference_add_node(passage, in_, kind, node_id)
    for edge in edges:
        _reference_link(passage, in_, edge)
    if incoming is not None:
        incoming.update(in_)
    return _reference_freeze(passage, in_)


def _reference_add_node(passage: Passage, in_: dict, kind: NodeKind, node_id: NodeId) -> None:
    if kind is NodeKind.TERMINAL:
        raise GraphError("terminals are fixed by the token sequence")
    if kind not in (NodeKind.NON_TERMINAL, NodeKind.IMPLICIT):
        raise GraphError(f"not a unit's NodeKind: {shown(kind)!r}")
    if node_id.layer != UNIT_LAYER:
        raise GraphError(f"units must live in layer {UNIT_LAYER}: {shown(node_id)}")
    if node_id in passage._nodes:
        raise GraphError(f"node id already taken: {shown(node_id)}")
    passage._nodes[node_id] = Node(node_id, kind)
    passage._out.setdefault(node_id, [])
    in_.setdefault(node_id, [])
    passage._max_unit_index = max(passage._max_unit_index, node_id.index)


def _reference_link(passage: Passage, in_: dict, edge: Edge) -> None:
    if not isinstance(edge.category, Category):
        raise UnknownCategory(f"unregistered category: {shown(edge.category)!r}")
    parent, child = edge.parent, edge.child
    parent_node, _ = passage.node(parent), passage.node(child)
    if parent_node.kind is not NodeKind.NON_TERMINAL:
        raise TerminalAsParent(
            f"{parent_node.kind.value} node {shown(parent)} cannot have children"
        )
    if edge in in_[child]:
        raise DuplicateEdge(f"duplicate edge {shown(parent)} -{edge.category}-> {shown(child)}")
    if edge.remote is not True and edge.remote is not False:
        raise GraphError(f"remote flag must be True or False: {shown(edge.remote)!r}")
    if not edge.remote and any(not e.remote for e in in_[child]):
        raise DuplicatePrimaryParent(f"{shown(child)} already has a primary parent")
    passage._edges.append(edge)
    passage._out[parent].append(edge)
    in_[child].append(edge)


def _reference_freeze(passage: Passage, in_: dict) -> Passage:
    if in_[passage.root]:
        raise StructuralViolation("root-parent", passage.root)
    for node in passage._nodes.values():
        if node.id == passage.root:
            continue
        primaries = [e for e in in_[node.id] if not e.remote]
        if len(primaries) != 1:
            rule = "terminal-coverage" if node.is_terminal else "reachability"
            raise StructuralViolation(rule, node.id)
    pending = {nid: len(parents) for nid, parents in in_.items()}
    order = [passage.root]
    for nid in order:
        for edge in passage._out[nid]:
            pending[edge.child] -= 1
            if not pending[edge.child]:
                order.append(edge.child)
    if len(order) != len(passage._nodes):
        stuck = next(nid for nid in passage._nodes
                     if nid.layer == UNIT_LAYER and pending[nid])
        raise StructuralViolation("acyclicity", stuck)
    passage._order = tuple(order[::-1])
    passage._edges = tuple(passage._edges)
    passage._out = {nid: tuple(children) for nid, children in passage._out.items()}
    passage._reentrant = {nid for nid, parents in in_.items() if len(parents) > 1}
    passage._sealed = True
    passage._yields = {nid: sum(1 << k for k in positions)
                       for nid, positions in reference_yields(passage).items()}
    return passage
