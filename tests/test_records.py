"""The record types: namedtuples for the immutable ones, RuleSet and NodeId
included, and ``__slots__`` classes for the three mutable reports.  Each keeps
the repr, equality and copying behaviour it had as a dataclass, but Category:
a str whose value is its code, so its repr, and an Edge's, is the code's."""
import copy
import pickle
from collections import Counter

import pytest

from uccakit.categories import Category
from uccakit.errors import GraphError
from uccakit.evaluation import Counts, EdgeSignature, EvalScores
from uccakit.formats import BilexicalRow
from uccakit.graph import Edge, Node, NodeId, NodeKind
from uccakit.stats import StatsReport
from uccakit.validation import RuleSet, ValidationReport, Violation

A = Category.from_code("A")
ZERO = "Counts(matched=0, predicted=0, gold=0)"
STRATA = f"{{'all': {ZERO}, 'primary': {ZERO}, 'remote': {ZERO}}}"

#: One record of each type and the repr it had as a dataclass.
RECORDS = [
    (A, "'A'"),
    (Node(NodeId(0, 1), NodeKind.TERMINAL, "a", 1),
     "Node(id=NodeId(layer=0, index=1), kind=<NodeKind.TERMINAL: 'terminal'>, text='a', "
     "position=1)"),
    (Edge(NodeId(1, 1), NodeId(0, 1), A, True),
     "Edge(parent=NodeId(layer=1, index=1), child=NodeId(layer=0, index=1), "
     "category='A', remote=True)"),
    (EdgeSignature((1, 2), "A", False), "EdgeSignature(span=(1, 2), category='A', remote=False)"),
    (BilexicalRow(1, "a", 0, "root"), "BilexicalRow(position=1, form='a', head=0, deprel='root')"),
    (Violation("V1", "1.1", "m"), "Violation(rule='V1', ref='1.1', message='m')"),
    (Counts(1, 2, 3), "Counts(matched=1, predicted=2, gold=3)"),
    (EvalScores(), f"EvalScores(labeled={STRATA}, unlabeled={STRATA}, by_category={{}})"),
    (StatsReport(category_counts=Counter({"A": 2})),
     "StatsReport(passages=0, tokens=0, non_terminals=0, discontinuous=0, reentrant=0, "
     "non_root_nodes=0, edges=0, primary=0, remote=0, category_counts=Counter({'A': 2}))"),
    (ValidationReport("p", [Violation("V1", "1.1", "m")]),
     "ValidationReport(passage_id='p', violations=[Violation(rule='V1', ref='1.1', message='m')])"),
    (RuleSet(frozenset({"V1"})), "RuleSet(enabled=frozenset({'V1'}))"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, expected", RECORDS, ids=IDS)
def test_repr_as_dataclass(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_round_trip_compares_equal(record, clone):
    again = clone(record)
    assert again == record
    assert type(again) is type(record)


class TestTupleRecords:
    """The behaviour change: the immutable records are tuples."""

    def test_equal_to_plain_tuple_and_unpack(self):
        edge = Edge(NodeId(1, 1), NodeId(0, 1), A)
        assert edge == ((1, 1), (0, 1), "A", False)
        assert len(edge) == 4
        parent, child, category, remote = edge
        assert (parent, child, category.code, remote) == (edge.parent, edge.child, "A", False)

    def test_replace(self):
        edge = Edge(NodeId(1, 1), NodeId(0, 1), A)
        other = edge._replace(remote=True)
        assert type(other) is Edge and other.remote and not edge.remote

    def test_fields_cannot_be_assigned(self):
        for name in ("code", "longname"):  # Category's are read-only properties
            with pytest.raises(AttributeError):
                setattr(A, name, "P")


class TestRuleSet:
    def test_hashable(self):
        assert hash(RuleSet()) == hash(RuleSet())
        assert len({RuleSet(), RuleSet(), RuleSet(frozenset({"V1"}))}) == 2

    @pytest.mark.parametrize("name", ["enabled", "other"])
    def test_assignment_refused(self, name):
        rules = RuleSet()
        with pytest.raises(AttributeError):
            setattr(rules, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(rules, name)
        assert rules == RuleSet()

    def test_default_enables_every_rule(self):
        assert all(rule in RuleSet() for rule in ("V0", "V1", "V2", "V3", "V4"))

    @pytest.mark.parametrize("enabled", [{"V0"}, ["V0", "V0"]], ids=["set", "list"])
    def test_any_iterable_is_frozen(self, enabled):
        rules = RuleSet(enabled)
        assert rules == RuleSet(frozenset({"V0"}))
        assert hash(rules) == hash(RuleSet(frozenset({"V0"})))
        assert type(rules.enabled) is frozenset


class TestCheckedReplace:
    """namedtuple's _replace goes through _make, which runs the checks."""

    def test_node_id(self):
        with pytest.raises(GraphError, match=r"^bad node id: 1\.0$"):
            NodeId(1, 2)._replace(index=0)
        nid = NodeId(1, 2)._replace(index=3)
        assert type(nid) is NodeId and nid == NodeId(1, 3)

    def test_rule_set(self):
        with pytest.raises(ValueError, match=r"^unknown rule ids: \['bogus'\]$"):
            RuleSet()._replace(enabled={"bogus"})
        rules = RuleSet()._replace(enabled={"V1"})
        assert type(rules) is RuleSet and rules == RuleSet(frozenset({"V1"}))
        assert type(rules.enabled) is frozenset


class TestEquality:
    def test_counts(self):
        assert Counts() == Counts(0, 0, 0)
        assert Counts(1, 2, 3) != Counts(1, 2, 4)
        assert Counts(1, 1, 1) + Counts(1, 2, 3) == Counts(2, 3, 4)

    def test_eval_scores(self):
        assert EvalScores() == EvalScores()
        changed = EvalScores()
        changed.by_category["A"] = Counts(1, 1, 1)
        assert changed != EvalScores()
        assert EvalScores().merge(changed) == changed
        assert EvalScores() != ("not", "scores")

    def test_stats_report(self):
        assert StatsReport() == StatsReport()
        assert StatsReport(passages=1) != StatsReport()
        assert StatsReport(category_counts=Counter(A=1)) != StatsReport()
        merged = StatsReport(1, 2, category_counts=Counter(A=1)).merge(StatsReport(tokens=3))
        assert merged == StatsReport(1, 5, category_counts=Counter(A=1))

    @pytest.mark.parametrize("make", [EvalScores, StatsReport, lambda: ValidationReport("p")])
    def test_mutable_records_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())

    def test_defaults_are_fresh(self):
        first, second = StatsReport(), StatsReport()
        first.category_counts["A"] += 1
        assert second.category_counts == Counter()
        assert ValidationReport("p").violations is not ValidationReport("p").violations
