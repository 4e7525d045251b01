"""The package namespace: public names resolved on first use (PEP 562)."""
import importlib.util
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import uccakit
from uccakit.graph import Passage, build_passage, normalize

PUBLIC = [
    "BilexicalRow",
    "Category",
    "Edge",
    "EvalScores",
    "Node",
    "NodeId",
    "NodeKind",
    "Passage",
    "RuleSet",
    "StatsReport",
    "StructuralViolation",
    "TokenMismatch",
    "UccaError",
    "UnknownCategory",
    "ValidationReport",
    "build_passage",
    "corpus_stats",
    "edge_signatures",
    "export_bilexical",
    "export_text",
    "match_count",
    "normalize",
    "parse_xml",
    "score_corpus",
    "score_passage",
    "serialize_xml",
    "validate",
]


def test_all_is_the_public_api():
    assert uccakit.__all__ == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from uccakit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    value = getattr(uccakit, name)
    assert value.__module__.startswith("uccakit.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_normalize_has_one_definition():
    import uccakit.graph
    import uccakit.validation

    assert uccakit.normalize is uccakit.graph.normalize is uccakit.validation.normalize


def passage_private() -> set[str]:
    """Passage's private tables and methods: the underscore names, dunders
    aside, of its class and of a sealed passage's and a normalize copy's
    attributes."""
    p = build_passage("p", ["a"])
    p.add_edge(p.root, p.terminal_id(1), "T")  # a legacy label, so normalize copies
    relabeled = normalize(p.freeze())
    assert relabeled is not p
    names = {*vars(Passage), *vars(p), *vars(relabeled)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


#: Passage's private tables and methods, which only graph.py may name.
PASSAGE_PRIVATE = passage_private()

#: What only graph.py may name: those, and the guess at a terminal's type,
#: which the rest read from Passage.punctuation.
GRAPH_ONLY = PASSAGE_PRIVATE | {"is_punctuation"}


def named_outside(home: str, names: set[str]) -> list[str]:
    """Where code in a uccakit module other than `home` names one of `names`;
    a comment or string does not count."""
    found = []
    for path in sorted(Path(uccakit.__file__).parent.glob("*.py")):
        if path.name != home:
            with tokenize.open(path) as file:
                found += [f"{path.name}:{token.start[0]}: {token.string}"
                          for token in tokenize.generate_tokens(file.readline)
                          if token.type == tokenize.NAME and token.string in names]
    return found


def test_no_module_but_graph_names_a_private_passage_member():
    assert named_outside("graph.py", GRAPH_ONLY) == []


def test_private_members_derived_hold_the_listed_ones():
    """The names once listed by hand, but the incoming cache, which is gone."""
    assert PASSAGE_PRIVATE >= {
        "_nodes", "_edges", "_out", "_yields", "_order", "_has_parent", "_terminals",
        "_tokens", "_punctuation", "_link", "_add_units", "_seal", "_require_mutable",
    }
    assert "_in" not in PASSAGE_PRIVATE


def test_no_module_but_categories_names_the_legacy_labels():
    """What a label normalizes to is Category.normalized; only categories.py
    names the legacy tables it is built from."""
    assert named_outside("categories.py", {"LEGACY", "LEGACY_REPLACEMENT"}) == []


def test_dir_lists_every_name_before_first_use():
    """A fresh module object run from the package's own file, in this
    process: no public name is bound yet, and dir() lists them all."""
    spec = importlib.util.spec_from_file_location("uccakit", uccakit.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert not set(PUBLIC) & set(vars(fresh))
    assert dir(fresh) == sorted({*vars(fresh), *PUBLIC})


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        uccakit.no_such_name


def test_fresh_import_lists_every_name_and_loads_on_first_use():
    probe = (
        "import sys, uccakit\n"
        "print(set(uccakit.__all__) <= set(dir(uccakit)))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('uccakit')))\n"
        "uccakit.Category\n"
        "print(*sorted(m for m in sys.modules if m.startswith('uccakit')))\n"
        "print(hasattr(uccakit, 'formats'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(uccakit.__file__).parents[1])},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # A bare import binds no submodule: uccakit.formats is not an attribute.
    assert result.stdout.splitlines() == [
        "True",
        "uccakit",
        "uccakit uccakit.categories uccakit.errors",
        "False",
    ]
