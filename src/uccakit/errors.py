"""Exception hierarchy shared across the package."""


class UccaError(Exception):
    """Base class for all errors raised by uccakit."""


class UnknownCategory(UccaError):
    """An edge label that is not part of the category inventory."""


class GraphError(UccaError):
    """Base class for graph construction errors."""


class UnknownNode(GraphError):
    pass


class TerminalAsParent(GraphError):
    """A terminal or implicit node was used as the parent of an edge."""


class DuplicatePrimaryParent(GraphError):
    """A node would end up with more than one primary parent."""


class DuplicateEdge(GraphError):
    """Exact duplicate of an existing (parent, child, category, remote) edge."""


class SealedPassage(GraphError):
    """Mutation attempted on a sealed passage."""


class StructuralViolation(GraphError):
    """A passage-level invariant failed at sealing time.

    Carries the identifier of the first failed invariant and the offending
    node id.
    """

    def __init__(self, rule: str, node_id, message: str | None = None):
        self.rule = rule
        self.node_id = node_id
        super().__init__(message or f"{rule}: node {node_id}")


class TokenMismatch(UccaError):
    """Two passages being compared do not share the same token sequence."""


class XmlFormatError(UccaError):
    """Base class for passage XML reading errors."""


class XmlSyntax(XmlFormatError):
    pass


class DanglingReference(XmlFormatError):
    """An edge toID that does not resolve to a declared node."""
