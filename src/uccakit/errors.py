"""Exception hierarchy shared across the package."""

#: The longest input value that an error message repeats whole.
SHOWN_MAX = 32


def shown(value):
    """An input value as an error message repeats it: as is, or if its text
    is longer than SHOWN_MAX characters, the first 12 of them, "..." and its length."""
    text = str(value)
    if len(text) > SHOWN_MAX:
        return f"{text[:12]}... ({len(text)} characters)"
    return value


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
    node id, which the message shortens.
    """

    def __init__(self, rule: str, node_id):
        self.rule = rule
        self.node_id = node_id
        super().__init__(f"{rule}: node {shown(node_id)}")


class TokenMismatch(UccaError):
    """Two passages being compared do not share the same token sequence."""


class XmlFormatError(UccaError):
    """Base class for passage XML reading errors."""


class XmlSyntax(XmlFormatError):
    pass


class DanglingReference(XmlFormatError):
    """An edge toID that does not resolve to a declared node."""
