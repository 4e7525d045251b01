"""Hand-built sample passages used in tests and documentation.

Both are small, fully valid annotations exercising the interesting
structural features: shared arguments via remote edges, and implicit
units.
"""
from __future__ import annotations

from uccakit.graph import NodeKind, Passage, build_passage


def remote_sample() -> Passage:
    """Two linked Scenes sharing a Participant through a remote edge.

    "After graduation , John moved to Paris": the mover is also the
    (unstated) graduate, so the first Scene reaches "John" remotely.
    """
    p = build_passage(
        "sample-remote", ["After", "graduation", ",", "John", "moved", "to", "Paris"]
    )
    grad = p.add_node(NodeKind.NON_TERMINAL)
    moved = p.add_node(NodeKind.NON_TERMINAL)
    to_paris = p.add_node(NodeKind.NON_TERMINAL)
    p.add_edge(p.root, p.terminal_id(1), "L")
    p.add_edge(p.root, grad, "H")
    p.add_edge(grad, p.terminal_id(2), "P")
    p.add_edge(p.root, p.terminal_id(3), "U")
    p.add_edge(p.root, moved, "H")
    p.add_edge(moved, p.terminal_id(4), "A")
    p.add_edge(moved, p.terminal_id(5), "P")
    p.add_edge(moved, to_paris, "A")
    p.add_edge(to_paris, p.terminal_id(6), "R")
    p.add_edge(to_paris, p.terminal_id(7), "C")
    p.add_edge(grad, p.terminal_id(4), "A", remote=True)
    return p.freeze()


def implicit_sample() -> Passage:
    """A single Scene whose agent is an implicit unit.

    "A similar technique is almost impossible to apply to other crops ,
    such as cotton , soybeans and rice ." -- whoever would do the applying
    is not expressed in the text.
    """
    tokens = [
        "A", "similar", "technique", "is", "almost", "impossible", "to", "apply",
        "to", "other", "crops", ",", "such", "as", "cotton", ",", "soybeans",
        "and", "rice", ".",
    ]
    p = build_passage("sample-implicit", tokens)
    technique = p.add_node(NodeKind.NON_TERMINAL)
    impossible = p.add_node(NodeKind.NON_TERMINAL)
    agent = p.add_node(NodeKind.IMPLICIT)
    crops = p.add_node(NodeKind.NON_TERMINAL)
    examples = p.add_node(NodeKind.NON_TERMINAL)

    p.add_edge(p.root, technique, "A")
    p.add_edge(technique, p.terminal_id(1), "E")
    p.add_edge(technique, p.terminal_id(2), "E")
    p.add_edge(technique, p.terminal_id(3), "C")
    p.add_edge(p.root, p.terminal_id(4), "F")
    p.add_edge(p.root, impossible, "D")
    p.add_edge(impossible, p.terminal_id(5), "E")
    p.add_edge(impossible, p.terminal_id(6), "C")
    p.add_edge(p.root, agent, "A")
    p.add_edge(p.root, p.terminal_id(7), "F")
    p.add_edge(p.root, p.terminal_id(8), "P")
    p.add_edge(p.root, crops, "A")
    p.add_edge(crops, p.terminal_id(9), "R")
    p.add_edge(crops, p.terminal_id(10), "E")
    p.add_edge(crops, p.terminal_id(11), "C")
    p.add_edge(crops, p.terminal_id(12), "U")
    p.add_edge(crops, examples, "E")
    p.add_edge(examples, p.terminal_id(13), "R")
    p.add_edge(examples, p.terminal_id(14), "R")
    p.add_edge(examples, p.terminal_id(15), "C")
    p.add_edge(examples, p.terminal_id(16), "U")
    p.add_edge(examples, p.terminal_id(17), "C")
    p.add_edge(examples, p.terminal_id(18), "N")
    p.add_edge(examples, p.terminal_id(19), "C")
    p.add_edge(p.root, p.terminal_id(20), "U")
    return p.freeze()
