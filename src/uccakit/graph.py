"""In-memory passage graphs.

A passage is a token sequence plus a layered graph over it: terminals in
layer 0, semantic units in layer 1.  Primary edges form a tree; remote
edges add reentrancy, so the full edge set is a DAG.  Passages are mutable
while being built and immutable once sealed by :meth:`Passage.freeze`;
all analytic queries require a sealed passage.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .categories import Category, as_category
from .errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicatePrimaryParent,
    GraphError,
    SealedPassage,
    StructuralViolation,
    TerminalAsParent,
    UnknownNode,
)

TERMINAL_LAYER = 0
UNIT_LAYER = 1


def is_punctuation(text: str) -> bool:
    """True iff the token contains no letter or digit (Unicode classes)."""
    return not any(ch.isalnum() for ch in text)


class NodeKind(Enum):
    TERMINAL = "terminal"
    NON_TERMINAL = "non-terminal"
    IMPLICIT = "implicit"


class NodeId(tuple):
    """A node address, rendered as "layer.index" (e.g. "0.3", "1.1").

    A ``(layer, index)`` tuple, so hashing, equality and ordering run in C;
    it compares equal to the plain tuple with the same fields.
    """

    __slots__ = ()

    def __new__(cls, layer: int, index: int) -> "NodeId":
        if layer < 0 or index < 1:
            raise GraphError(f"bad node id: {layer}.{index}")
        return tuple.__new__(cls, (layer, index))

    layer = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"NodeId(layer={self[0]}, index={self[1]})"

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        try:
            layer, index = text.split(".")
            return cls(int(layer), int(index))
        except (ValueError, GraphError):
            raise GraphError(f"malformed node id: {text!r}") from None


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    text: Optional[str] = None
    position: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.kind is NodeKind.TERMINAL


@dataclass(frozen=True)
class Edge:
    parent: NodeId
    child: NodeId
    category: Category
    remote: bool = False


class Passage:
    """One annotated text unit.

    Construction starts from the token sequence: ``Passage(pid, tokens)``
    creates terminals at layer 0 positions 1..n and a root unit in
    layer 1.  Units and edges are then added incrementally; ``freeze()``
    verifies the global invariants and seals the passage.
    """

    def __init__(
        self,
        passage_id: str,
        tokens: Iterable[str],
        root_id: NodeId | None = None,
        num_sentences: int = 1,
    ):
        tokens = list(tokens)
        if not tokens:
            raise GraphError("a passage needs at least one token")
        self.passage_id = passage_id
        self.num_sentences = num_sentences
        self._sealed = False
        self._nodes: dict[NodeId, Node] = {}
        self._edges: list[Edge] = []
        self._out: dict[NodeId, list[Edge]] = {}
        self._in: dict[NodeId, list[Edge]] = {}
        self._edge_keys: set[tuple[NodeId, NodeId, str, bool]] = set()
        self._max_unit_index = 0
        self._yield_cache: dict[NodeId, tuple[int, ...]] = {}
        self._terminals = [
            Node(NodeId(TERMINAL_LAYER, position), NodeKind.TERMINAL, text=text, position=position)
            for position, text in enumerate(tokens, start=1)
        ]
        self._tokens = tuple(tokens)
        for terminal in self._terminals:
            self._register(terminal)
        self.root = root_id or NodeId(UNIT_LAYER, 1)
        if self.root.layer != UNIT_LAYER:
            raise GraphError(f"root must live in layer {UNIT_LAYER}: {self.root}")
        self._register(Node(self.root, NodeKind.NON_TERMINAL))

    # -- construction -----------------------------------------------------

    def add_node(self, kind: NodeKind, node_id: NodeId | None = None) -> NodeId:
        """Add an unattached unit (non-terminal or implicit) in layer 1.

        The passage temporarily violates reachability; freeze() seals it.
        """
        self._require_mutable()
        if kind is NodeKind.TERMINAL:
            raise GraphError("terminals are fixed by the token sequence")
        if node_id is None:
            node_id = NodeId(UNIT_LAYER, self._max_unit_index + 1)
        elif node_id in self._nodes:
            raise GraphError(f"node id already taken: {node_id}")
        elif node_id.layer != UNIT_LAYER:
            raise GraphError(f"units must live in layer {UNIT_LAYER}: {node_id}")
        self._register(Node(node_id, kind))
        return node_id

    def add_edge(
        self,
        parent: NodeId,
        child: NodeId,
        category: Category | str,
        remote: bool = False,
    ) -> None:
        self._require_mutable()
        category = as_category(category)
        parent_node = self.node(parent)
        self.node(child)
        if parent_node.kind is not NodeKind.NON_TERMINAL:
            raise TerminalAsParent(
                f"{parent_node.kind.value} node {parent} cannot have children"
            )
        child_node = self._nodes[child]
        if remote and child_node.is_terminal and is_punctuation(child_node.text):
            raise GraphError(f"remote edge may not point at punctuation terminal {child}")
        key = (parent, child, category.code, remote)
        if key in self._edge_keys:
            raise DuplicateEdge(f"duplicate edge {parent} -{category}-> {child}")
        if not remote and any(not e.remote for e in self._in[child]):
            raise DuplicatePrimaryParent(f"{child} already has a primary parent")
        # Only a path from child back to parent closes a cycle, and there is
        # none unless the child has children and the parent has parents.
        if child == parent or (
            self._out[child] and self._in[parent] and self._reaches(child, parent)
        ):
            raise CycleDetected(f"edge {parent} -> {child} would close a cycle")
        edge = Edge(parent, child, category, remote)
        self._edge_keys.add(key)
        self._edges.append(edge)
        self._out[parent].append(edge)
        self._in[child].append(edge)

    def freeze(self) -> "Passage":
        """Verify all passage invariants and seal the passage.

        Raises StructuralViolation carrying the first failed invariant.
        """
        if self._sealed:
            return self
        if self._in[self.root]:
            raise StructuralViolation("root-parent", self.root)
        for node in self._nodes.values():
            if node.id == self.root:
                continue
            primaries = [e for e in self._in[node.id] if not e.remote]
            if len(primaries) != 1:
                rule = "terminal-coverage" if node.is_terminal else "reachability"
                raise StructuralViolation(rule, node.id)
        self._check_acyclic()
        self._sealed = True
        return self

    # -- access -----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def terminals(self) -> list[Node]:
        return list(self._terminals)

    def terminal_id(self, position: int) -> NodeId:
        """The NodeId of the terminal at a 1-based token position."""
        nid = NodeId(TERMINAL_LAYER, position)
        if nid not in self._nodes:
            raise UnknownNode(f"no terminal at position {position}")
        return nid

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def non_terminals(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.NON_TERMINAL]

    @property
    def edges(self) -> list[Edge]:
        """All edges in insertion order."""
        return list(self._edges)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no such node: {node_id}") from None

    def outgoing(self, node_id: NodeId) -> list[Edge]:
        self.node(node_id)
        return list(self._out[node_id])

    def incoming(self, node_id: NodeId) -> list[Edge]:
        self.node(node_id)
        return list(self._in[node_id])

    # -- queries (sealed passages only) -----------------------------------

    def yield_of(self, node_id: NodeId) -> tuple[int, ...]:
        """Token positions of all terminal descendants via primary edges.

        A terminal yields its own position; implicit nodes yield ().
        """
        self._require_sealed()
        self.node(node_id)
        return self._yield(node_id)

    def is_discontinuous(self, node_id: NodeId) -> bool:
        """True iff the yield is non-empty and not a contiguous range."""
        self._require_sealed()
        positions = self.yield_of(node_id)
        if not positions:
            return False
        return positions[-1] - positions[0] + 1 != len(positions)

    def is_reentrant(self, node_id: NodeId) -> bool:
        """True iff the node has at least two incoming edges."""
        self._require_sealed()
        return len(self.incoming(node_id)) >= 2

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Structural identity: same id, nodes, root and edge multiset."""
        if not isinstance(other, Passage):
            return NotImplemented
        from collections import Counter

        return (
            self.passage_id == other.passage_id
            and self.root == other.root
            and self._nodes == other._nodes
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

    def _register(self, node: Node) -> None:
        self._nodes[node.id] = node
        self._out.setdefault(node.id, [])
        self._in.setdefault(node.id, [])
        if node.id.layer == UNIT_LAYER:
            self._max_unit_index = max(self._max_unit_index, node.id.index)

    def _require_mutable(self) -> None:
        if self._sealed:
            raise SealedPassage(f"passage {self.passage_id} is sealed")

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise GraphError("passage must be sealed first; call freeze()")

    def _reaches(self, start: NodeId, target: NodeId) -> bool:
        """DFS over the full edge set."""
        stack, seen = [start], set()
        while stack:
            nid = stack.pop()
            if nid == target:
                return True
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(e.child for e in self._out[nid])
        return False

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {nid: WHITE for nid in self._nodes}
        for origin in self._nodes:
            if color[origin] != WHITE:
                continue
            stack: list[tuple[NodeId, Iterator[Edge]]] = [(origin, iter(self._out[origin]))]
            color[origin] = GREY
            while stack:
                nid, it = stack[-1]
                edge = next(it, None)
                if edge is None:
                    color[nid] = BLACK
                    stack.pop()
                elif color[edge.child] == GREY:
                    raise StructuralViolation("acyclicity", edge.child)
                elif color[edge.child] == WHITE:
                    color[edge.child] = GREY
                    stack.append((edge.child, iter(self._out[edge.child])))
        return None

    def _yield(self, node_id: NodeId) -> tuple[int, ...]:
        """Post-order over primary edges with an explicit stack, filling the
        cache bottom-up, so nesting depth is not bounded by recursion."""
        cache = self._yield_cache
        stack = [node_id]
        while stack:
            nid = stack[-1]
            if nid in cache:
                stack.pop()
                continue
            node = self._nodes[nid]
            if node.is_terminal:
                cache[nid] = (node.position,)
                stack.pop()
                continue
            children = [e.child for e in self._out[nid] if not e.remote]
            pending = [c for c in children if c not in cache]
            if pending:
                stack.extend(pending)
                continue
            positions: set[int] = set()
            for child in children:
                positions.update(cache[child])
            cache[nid] = tuple(sorted(positions))
            stack.pop()
        return cache[node_id]


def build_passage(passage_id: str, tokens: Iterable[str]) -> Passage:
    """A fresh mutable passage: terminals at 1..n, a root unit, no edges."""
    return Passage(passage_id, tokens)
