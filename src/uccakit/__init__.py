"""uccakit: build, validate, serialize, score and measure UCCA graphs.

The public names below are imported from their modules on first use
(PEP 562), so a process that runs one CLI command compiles only the
modules that command needs.
"""

#: Each public name, in the order of __all__, and the module that defines it.
_HOMES = {
    "BilexicalRow": "formats",
    "Category": "categories",
    "Edge": "graph",
    "EvalScores": "evaluation",
    "Node": "graph",
    "NodeId": "graph",
    "NodeKind": "graph",
    "Passage": "graph",
    "RuleSet": "validation",
    "StatsReport": "stats",
    "StructuralViolation": "errors",
    "TokenMismatch": "errors",
    "UccaError": "errors",
    "UnknownCategory": "errors",
    "ValidationReport": "validation",
    "build_passage": "graph",
    "corpus_stats": "stats",
    "edge_signatures": "evaluation",
    "export_bilexical": "formats",
    "export_text": "formats",
    "match_count": "evaluation",
    "normalize": "graph",
    "parse_xml": "formats",
    "score_corpus": "evaluation",
    "score_passage": "evaluation",
    "serialize_xml": "formats",
    "validate": "validation",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """Import a public name's module and bind the name here, so later reads
    skip this function.  Any other name, a submodule not yet imported
    included, raises AttributeError; ``from uccakit import cli`` then
    imports the submodule."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
