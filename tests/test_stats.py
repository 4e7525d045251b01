import random

from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit.stats import StatsReport, corpus_stats, render_table

from .helpers import random_passage
from .samples import implicit_sample, remote_sample

passage_lists = st.lists(
    st.integers(0, 2**32 - 1), min_size=0, max_size=6
).map(lambda seeds: [random_passage(random.Random(s), f"p{i}") for i, s in enumerate(seeds)])


class TestCorpusStats:
    def test_remote_sample_counts(self, remote_passage):
        r = corpus_stats([remote_passage])
        assert r.passages == 1
        assert r.tokens == 7
        assert r.non_terminals == 4
        assert r.edges == 11
        assert r.primary == 10
        assert r.remote == 1
        assert abs(r.pct_remote - 100 / 11) < 1e-9
        assert dict(r.category_counts) == {
            "L": 1, "H": 2, "U": 1, "P": 2, "A": 3, "R": 1, "C": 1,
        }

    def test_empty_stream(self):
        r = corpus_stats([])
        assert r == StatsReport()
        assert r.pct_remote == 0.0
        assert r.pct_reentrant == 0.0

    def test_reentrancy_base_counts_terminals(self, remote_passage):
        # 11 nodes, one root: "John" is the single reentrant non-root node
        r = corpus_stats([remote_passage])
        assert r.reentrant == 1
        assert r.non_root_nodes == 10
        assert abs(r.pct_reentrant - 10.0) < 1e-9

    @given(passage_lists)
    def test_totals_are_consistent(self, passages):
        r = corpus_stats(passages)
        assert r.edges == sum(r.category_counts.values())
        assert r.tokens == sum(len(p.terminals) for p in passages)
        assert r.primary + r.remote == r.edges
        assert r.reentrant == sum(p.is_reentrant(n.id) for p in passages for n in p.nodes)
        if r.edges:
            assert abs(r.pct_primary + r.pct_remote - 100.0) < 1e-9
            assert abs(sum(r.by_category.values()) - 100.0) < 0.1

    @given(passage_lists)
    def test_order_invariant(self, passages):
        shuffled = list(reversed(passages))
        assert corpus_stats(passages) == corpus_stats(shuffled)

    @given(passage_lists, passage_lists)
    def test_merge_matches_single_pass(self, first, second):
        merged = corpus_stats(first).merge(corpus_stats(second))
        assert merged == corpus_stats(first + second)

    def test_no_remotes_means_no_reentrancy(self, implicit_passage):
        r = corpus_stats([implicit_passage])
        assert r.remote == 0
        assert r.pct_remote == 0.0
        assert r.reentrant == 0
        assert r.pct_reentrant == 0.0


class TestRendering:
    def test_table_contains_all_rows(self, remote_passage):
        table = render_table(corpus_stats([remote_passage]))
        for label in ("# passages", "# tokens", "% remote", "% Punctuation"):
            assert label in table

    def test_two_decimal_percentages(self, remote_passage):
        r = corpus_stats([remote_passage])
        assert f"{r.pct_remote:.2f}" == "9.09"
        assert "9.09" in render_table(r)

    def test_json_payload_matches_table_numbers(self, remote_passage):
        r = corpus_stats([remote_passage])
        d = r.to_dict()
        assert d["tokens"] == 7
        assert d["pct_remote"] == 9.09
        assert d["by_category"]["A"] == 27.27

    def test_json_keys_follow_table_rows(self, remote_passage):
        payload = corpus_stats([remote_passage]).to_dict()
        del payload["by_category"]
        lines = render_table(corpus_stats([remote_passage])).splitlines()[: len(payload)]
        labels = [line.rsplit(maxsplit=1)[0] for line in lines]
        keys = [l.replace("# ", "").replace("% ", "pct_").replace("-", "_") for l in labels]
        assert keys == list(payload)
        cells = [f"{v:.2f}" if isinstance(v, float) else str(v) for v in payload.values()]
        assert [line.split()[-1] for line in lines] == cells


class TestTableSnapshots:
    def test_one_corpus(self):
        assert render_table(corpus_stats([remote_sample()])) == (
            "# passages                   1\n"
            "# tokens                     7\n"
            "# non-terminals              4\n"
            "% discontinuous           0.00\n"
            "% reentrant              10.00\n"
            "# edges                     11\n"
            "% primary                90.91\n"
            "% remote                  9.09\n"
            "by category\n"
            "  % Process              18.18\n"
            "  % Participant          27.27\n"
            "  % Center                9.09\n"
            "  % Relator               9.09\n"
            "  % Parallel Scene       18.18\n"
            "  % Linker                9.09\n"
            "  % Punctuation           9.09"
        )

    def test_corpora_as_columns(self):
        # Only the remote sample has H and L edges; only the implicit one D, E, N and F.
        reports = {
            "remote": corpus_stats([remote_sample()]),
            "implicit": corpus_stats([implicit_sample()]),
        }
        assert render_table(reports) == (
            "                        remote    implicit\n"
            "# passages                   1           1\n"
            "# tokens                     7          20\n"
            "# non-terminals              4           5\n"
            "% discontinuous           0.00        0.00\n"
            "% reentrant              10.00        0.00\n"
            "# edges                     11          25\n"
            "% primary                90.91      100.00\n"
            "% remote                  9.09        0.00\n"
            "by category\n"
            "  % Process              18.18        4.00\n"
            "  % Participant          27.27       12.00\n"
            "  % Adverbial             0.00        4.00\n"
            "  % Center                9.09       24.00\n"
            "  % Elaborator            0.00       20.00\n"
            "  % Connector             0.00        4.00\n"
            "  % Relator               9.09       12.00\n"
            "  % Parallel Scene       18.18        0.00\n"
            "  % Linker                9.09        0.00\n"
            "  % Function              0.00        8.00\n"
            "  % Punctuation           9.09       12.00"
        )

    def test_empty_corpus_has_no_category_block(self):
        assert render_table(corpus_stats([])) == (
            "# passages                0\n"
            "# tokens                  0\n"
            "# non-terminals           0\n"
            "% discontinuous        0.00\n"
            "% reentrant            0.00\n"
            "# edges                   0\n"
            "% primary              0.00\n"
            "% remote               0.00"
        )
