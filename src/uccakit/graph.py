"""In-memory passage graphs.

A passage is a token sequence plus a layered graph over it: terminals in
layer 0, semantic units in layer 1.  Primary edges form a tree; remote
edges add reentrancy, so the full edge set is a DAG.  Passages are mutable
while being built and immutable once sealed by :meth:`Passage.freeze`.
Units added one at a time and units loaded in bulk by
:meth:`Passage.assemble` pass through the same loop of checks, and edges
through one linker, ``Passage._link``.
Sealing walks the whole edge set once, the only acyclicity check, records
a bottom-up node order and, in that order, fills the yield keys of all nodes.
Only this module knows what a key is, an integer mask with bit k set for
token k; ``yield_of`` alone decodes one to positions.

Queries that read what ``freeze`` computes (``bottom_up``, ``yield_keys``, ``yield_of``,
``is_discontinuous``) need a sealed passage; those on what construction, ``add_node`` and
``add_edge`` maintain (``nodes``, ``edges``, ``outgoing``, ``is_reentrant``, ``terminals``,
``punctuation``, ``node``, ``non_terminals``) answer at any time.  Accessors return tuples, new
ones from ``nodes``, ``non_terminals`` and a passage being built, but ``yield_keys`` a read-only
view of its table, ``punctuation`` a frozenset.
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Hashable, Iterable
from enum import Enum
from itertools import count, repeat
from types import MappingProxyType

from .categories import Category
from .errors import (
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

TERMINAL_LAYER = 0
UNIT_LAYER = 1


#: A character XML 1.0 cannot carry: a C0 control but tab, LF and CR, a lone surrogate, U+FFFE, U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _refuse_non_xml(text: str, where: str) -> None:
    found = _NOT_XML.search(text)
    if found:
        raise GraphError(f"{where} holds {found.group()!r}, which XML cannot carry")


def is_punctuation(text: str) -> bool:
    """True iff the token has no letter or digit (Unicode classes): the guess for a passage built by the API."""
    return not any(ch.isalnum() for ch in text)


class NodeKind(Enum):
    TERMINAL = "terminal"
    NON_TERMINAL = "non-terminal"
    IMPLICIT = "implicit"


class NodeId(namedtuple("NodeId", "layer index")):
    """A node address, rendered as "layer.index" (e.g. "0.3", "1.1").

    A ``(layer, index)`` tuple of two ints, not bools, so hashing, equality
    and ordering run in C; a passage refuses the equal plain tuple as an id.
    """

    __slots__ = ()

    def __new__(cls, layer: int, index: int) -> "NodeId":
        if type(layer) is not int or type(index) is not int or layer < 0 or index < 1:  # not bool
            raise GraphError(f"bad node id: {shown(f'{layer!r}.{index!r}')}")
        return tuple.__new__(cls, (layer, index))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """The id whose str() is `text`: no other spelling, such as "1.02" or " 1.1 "."""
        layer, _, index = text.partition(".")
        try:
            nid = cls(int(layer), int(index))
            if str(nid) == text:
                return nid
        except (ValueError, GraphError):  # not ints, more digits than int() reads, or out of range
            pass
        raise GraphError(f"malformed node id: {shown(text)!r}")


class Node(namedtuple("Node", "id kind text position", defaults=(None, None))):
    """A terminal (with its text and 1-based position) or a unit (without)."""

    __slots__ = ()

    @property
    def is_terminal(self) -> bool:
        return self.kind is NodeKind.TERMINAL


Edge = namedtuple("Edge", "parent child category remote", defaults=(False,))


#: A tuple record from checked fields, without NodeId's or a namedtuple's Python __new__.
_new = tuple.__new__


class Passage:
    """One annotated text unit.

    Construction starts from the token sequence: ``Passage(pid, tokens)``
    creates terminals at layer 0 positions 1..n and a root unit in
    layer 1; a token or id holding a character XML cannot carry is
    refused, so every passage serializes.  The terminals typed Punctuation are those at
    the 1-based positions ``punctuation`` lists, else those whose token is_punctuation.
    Units and edges are then added incrementally; ``freeze()`` verifies the
    global invariants and seals the passage.
    """

    def __init__(
        self,
        passage_id: str,
        tokens: Iterable[str],
        root_id: NodeId | None = None,
        punctuation: Iterable[int] | None = None,
    ):
        tokens = tuple(tokens)
        if not tokens:
            raise GraphError("a passage needs at least one token")
        _refuse_non_xml(passage_id, "passage id")
        if _NOT_XML.search("".join(tokens)):  # one search; the loop only names the token
            for position, token in enumerate(tokens, 1):
                _refuse_non_xml(token, f"token {position}")
        self.passage_id = passage_id
        self._sealed = False
        self._tokens = tokens
        ids = list(map(_new, repeat(NodeId), zip(repeat(TERMINAL_LAYER), range(1, len(tokens) + 1))))
        terminals = zip(ids, repeat(NodeKind.TERMINAL), tokens, count(1))
        self._terminals: tuple[Node, ...] = tuple(map(_new, repeat(Node), terminals))
        self._nodes: dict[NodeId, Node] = dict(zip(ids, self._terminals))
        guessed = (nid for nid, token in zip(ids, tokens) if is_punctuation(token))
        self._punctuation = frozenset(guessed if punctuation is None else map(self.terminal_id, punctuation))
        self._edges: list[Edge] | tuple[Edge, ...] = []
        # A terminal has no children: one shared () stands for every list.
        self._out: dict[NodeId, list[Edge] | tuple[Edge, ...]] = dict.fromkeys(ids, ())
        self._has_parent: set[NodeId] = set()  # the child of every primary edge
        self._reentrant: set[NodeId] = set()  # the child of every remote edge
        self._max_unit_index = 0
        self.root = NodeId(UNIT_LAYER, 1) if root_id is None else root_id
        self._add_units([(self.root, NodeKind.NON_TERMINAL)])

    # -- construction -----------------------------------------------------

    @classmethod
    def assemble(
        cls,
        passage_id: str,
        tokens: Iterable[str],
        root_id: NodeId,
        units: Iterable[tuple[NodeId, NodeKind]],
        edges: Iterable[Edge],
        punctuation: Iterable[int] | None = None,
    ) -> "Passage":
        """Build and seal a passage in bulk, as a reader of a whole document does.

        The units go through add_node's checks and the edges through
        add_edge's linker, _link, each list in one loop; freeze then checks
        the whole passage, cycles included.
        """
        built = cls(passage_id, tokens, root_id=root_id, punctuation=punctuation)
        built._add_units(units)
        built._link(edges)
        return built.freeze()

    def add_node(self, kind: NodeKind, node_id: NodeId | None = None) -> NodeId:
        """Add an unattached unit (non-terminal or implicit) in layer 1.

        The passage temporarily violates reachability; freeze() seals it.
        """
        self._require_mutable()
        if node_id is None:
            node_id = NodeId(UNIT_LAYER, self._max_unit_index + 1)
        self._add_units([(node_id, kind)])
        return node_id

    def add_edge(self, parent: NodeId, child: NodeId, category: Category | str, remote: bool = False) -> None:
        """Link one edge, labelled by a Category or by its code (UnknownCategory
        for any other).  An edge that closes a cycle is refused by freeze."""
        self._require_mutable()
        self._link([Edge(parent, child, Category(category), remote)])

    def freeze(self) -> "Passage":
        """Verify all passage invariants, record the bottom-up node order,
        fill every yield key in it and seal the passage.

        Raises StructuralViolation carrying the first failed invariant.
        """
        if self._sealed:
            return self
        root, nodes, has_parent, out = self.root, self._nodes, self._has_parent, self._out
        pending = Counter(edge[1] for edge in self._edges)  # each node's number of parents
        if pending[root]:
            raise StructuralViolation("root-parent", root)
        if len(has_parent) != len(nodes) - 1:  # _link gave each node one primary parent at most
            nid = next(nid for nid in nodes if nid != root and nid not in has_parent)
            rule = "terminal-coverage" if nid[0] == TERMINAL_LAYER else "reachability"
            raise StructuralViolation(rule, nid)
        # Kahn's walk over all edges: a node joins once all its parents,
        # primary and remote, have.  A node left out lies on or below a cycle.
        order = [root]
        for nid in order:
            for edge in out[nid]:
                child = edge[1]  # one field: an index reads faster than unpacking
                pending[child] -= 1
                if not pending[child]:
                    order.append(child)
        if len(order) != len(nodes):
            stuck = next(nid for nid in nodes if nid.layer == UNIT_LAYER and pending[nid])
            raise StructuralViolation("acyclicity", stuck)
        # Bottom-up: a terminal sets its position's bit, a unit ORs its primary children's.
        self._order, yields = tuple(reversed(order)), {}
        for nid in self._order:
            mask = 1 << nid[1] if nid[0] == TERMINAL_LAYER else 0
            for _, child, _, remote in out[nid]:
                if not remote:
                    mask |= yields[child]
            yields[nid] = mask
        self._yields = yields
        self._seal()
        return self

    # -- access -----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def require_sealed(self) -> None:
        """Raise GraphError unless the passage is sealed."""
        if not self._sealed:
            raise GraphError("passage must be sealed first; call freeze()")

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def terminals(self) -> tuple[Node, ...]:
        return self._terminals

    def terminal_id(self, position: int) -> NodeId:
        """The NodeId of the terminal at a 1-based token position, an int but not a bool."""
        if type(position) is not int or not 1 <= position <= len(self._terminals):
            raise UnknownNode(f"no terminal at position {shown(position)!r}")
        return self._terminals[position - 1].id

    @property
    def punctuation(self) -> frozenset[NodeId]:
        return self._punctuation

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def non_terminals(self) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes.values() if n.kind is NodeKind.NON_TERMINAL)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in insertion order."""
        return tuple(self._edges)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no such node: {shown(node_id)}") from None

    def outgoing(self, node_id: NodeId) -> tuple[Edge, ...]:
        self.node(node_id)
        return tuple(self._out[node_id])

    def is_reentrant(self, node_id: NodeId) -> bool:
        """True iff a remote edge points at the node; once sealed, iff it has two or
        more incoming edges, as the root has no parent and every other node one primary."""
        return self.node(node_id).id in self._reentrant

    # -- queries (sealed passages only) -----------------------------------

    def yield_keys(self) -> MappingProxyType[NodeId, Hashable]:
        """A read-only view of every node's yield key: hashable, falsy iff the yield is empty, and
        equal to another key, of this passage or of one over the same tokens, iff the yields are."""
        self.require_sealed()
        return MappingProxyType(self._yields)

    def yield_of(self, node_id: NodeId) -> tuple[int, ...]:
        """Token positions of all terminal descendants via primary edges, in increasing
        order; a terminal yields its own position, an implicit node ().  Each turn decodes
        one run of set bits of the node's key: adding its lowest bit carries past its top."""
        self.require_sealed()
        mask, positions = self._yields[self.node(node_id).id], []
        while mask:
            low = mask & -mask
            carried = mask + low
            positions.extend(range(low.bit_length() - 1, (carried & -carried).bit_length() - 1))
            mask &= carried
        return tuple(positions)

    def bottom_up(self) -> tuple[NodeId, ...]:
        """Every node id, each one after all of its children: the order
        that freeze recorded."""
        self.require_sealed()
        return self._order

    def is_discontinuous(self, node_id: NodeId) -> bool:
        """True iff the yield is non-empty and not a contiguous range: adding
        the lowest set bit clears the lowest run of set bits, and another
        run is left."""
        self.require_sealed()
        mask = self._yields[self.node(node_id).id]
        return (mask + (mask & -mask)) & mask != 0

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Structural identity: same id, nodes, punctuation, root and edge multiset."""
        if not isinstance(other, Passage):
            return NotImplemented
        return (
            self.passage_id == other.passage_id
            and self.root == other.root
            and self._nodes == other._nodes
            and self._punctuation == other._punctuation
            and Counter(self._edges) == Counter(other._edges)
        )

    __hash__ = None  # mutable until sealed

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else "building"
        return (
            f"<Passage {self.passage_id!r} {state}: {len(self._terminals)} tokens, "
            f"{len(self._nodes)} nodes, {len(self._edges)} edges>"
        )

    # -- internals ---------------------------------------------------------

    def _require_mutable(self) -> None:
        if self._sealed:
            raise SealedPassage(f"passage {shown(self.passage_id)} is sealed")

    def _seal(self) -> None:
        """Store the edge tables as tuples, once every check has passed."""
        self._edges, out = tuple(self._edges), self._out
        self._out = dict(zip(out, map(tuple, out.values())))
        self._sealed = True

    def _add_units(self, units: Iterable[tuple[NodeId, NodeKind]]) -> None:
        """Register unattached layer-1 units, checking each one."""
        nodes, out = self._nodes, self._out
        top = self._max_unit_index
        for node_id, kind in units:
            if type(node_id) is not NodeId:
                raise GraphError(f"not a NodeId: {shown(node_id)!r}")
            if kind is not NodeKind.NON_TERMINAL and kind is not NodeKind.IMPLICIT:
                raise GraphError("terminals are fixed by the token sequence" if kind is NodeKind.TERMINAL
                                 else f"not a unit's NodeKind: {shown(kind)!r}")
            if node_id[0] != UNIT_LAYER:
                raise GraphError(f"units must live in layer {UNIT_LAYER}: {shown(node_id)}")
            if node_id in nodes:
                raise GraphError(f"node id already taken: {shown(node_id)}")
            nodes[node_id] = _new(Node, (node_id, kind, None, None))
            out[node_id] = []
            if node_id[1] > top:
                top = node_id[1]
        self._max_unit_index = top

    def _link(self, edges: Iterable[Edge]) -> None:
        """Append edges, each after the structural checks, none a graph search: NodeId ends
        in the passage, a Category label, not a plain str (so parse_xml reads the XML back), a
        non-terminal parent, no duplicate, a True or False remote flag, one primary parent at most."""
        nodes, out, has_parent, append = self._nodes, self._out, self._has_parent, self._edges.append
        for edge in edges:
            parent, child, category, remote = edge
            if type(parent) is not NodeId or type(child) is not NodeId:
                raise GraphError(f"not a NodeId: {shown(child if type(parent) is NodeId else parent)!r}")
            if type(category) is not Category:
                raise UnknownCategory(f"unregistered category: {shown(category)!r}")
            try:
                parent_node, _ = nodes[parent], nodes[child]  # the child need only exist
            except KeyError as missing:
                raise UnknownNode(f"no such node: {shown(missing.args[0])}") from None
            if parent_node.kind is not NodeKind.NON_TERMINAL:
                raise TerminalAsParent(f"{parent_node.kind.value} node {shown(parent)} cannot have children")
            # An equal edge shares the parent; an equal primary one also marked the child.
            children = out[parent]
            if (remote or child in has_parent) and edge in children:
                raise DuplicateEdge(f"duplicate edge {shown(parent)} -{category}-> {shown(child)}")
            if remote is False:
                if child in has_parent:
                    raise DuplicatePrimaryParent(f"{shown(child)} already has a primary parent")
                has_parent.add(child)
            elif remote is True:
                self._reentrant.add(child)
            else:
                raise GraphError(f"remote flag must be True or False: {shown(remote)!r}")
            append(edge)
            children.append(edge)


def normalize(passage: Passage) -> Passage:
    """Relabel every edge to its category's ``normalized`` form: T to D, Q to E.

    The input must be sealed.  One whose labels are all normalized is returned as
    is; otherwise the input keeps its labels.  Relabeling changes no edge's child, so
    the sealed copy shares the input's nodes, parented and reentrant sets, bottom-up
    order and yields; only its edge tables, linked without the checks relabeling cannot
    break, are its own.  A remote edge equal to one linked before it, which only
    relabeling can make, is dropped; the CLI refuses.
    """
    passage.require_sealed()
    if all(edge[2].normalized is edge[2] for edge in passage._edges):
        return passage
    fresh = object.__new__(type(passage))
    fresh.__dict__.update(passage.__dict__)  # copy.copy, without importing copy
    fresh._edges = edges = []
    fresh._out = out = {nid: () if nid[0] == TERMINAL_LAYER else [] for nid in passage._nodes}
    for edge in passage._edges:
        parent, child, category, remote = edge
        if category.normalized is not category:
            edge = _new(Edge, (parent, child, category.normalized, remote))
        children = out[parent]
        if remote and edge in children:
            continue
        edges.append(edge)
        children.append(edge)
    fresh._seal()
    return fresh


def build_passage(passage_id: str, tokens: Iterable[str]) -> Passage:
    """A fresh mutable passage: terminals at 1..n, a root unit, no edges."""
    return Passage(passage_id, tokens)
