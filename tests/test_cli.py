import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit import cli, stats
from uccakit.formats import parse_xml, serialize_xml
from uccakit.graph import build_passage
from uccakit.validation import normalize

from .helpers import CYCLIC_DOCUMENTS, deep_center_chain, random_passage, rebuild, relabel
from .samples import implicit_sample, remote_sample

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "gold"
    d.mkdir()
    (d / "one.xml").write_bytes(serialize_xml(remote_sample()))
    (d / "two.xml").write_bytes(serialize_xml(implicit_sample()))
    return d


@pytest.fixture
def degraded_dir(tmp_path):
    d = tmp_path / "system"
    d.mkdir()
    no_remote = rebuild(remote_sample(), lambda e: None if e.remote else e)
    (d / "one.xml").write_bytes(serialize_xml(no_remote))
    (d / "two.xml").write_bytes(serialize_xml(implicit_sample()))
    return d


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_identity(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(corpus_dir)
        )
        assert code == 0
        assert "labeled/all" in out
        assert "35/35/35" in out  # both passages' edges, all matched

    def test_missing_remote(self, capsys, corpus_dir, degraded_dir):
        code, out, _ = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(degraded_dir)
        )
        assert code == 0
        remote_line = next(l for l in out.splitlines() if l.startswith("labeled/remote"))
        assert "0.000" in remote_line and "0/0/1" in remote_line

    def test_json_matches_table(self, capsys, corpus_dir, degraded_dir):
        code, table, _ = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(degraded_dir)
        )
        code, raw, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(degraded_dir), "--json",
        )
        assert code == 0
        payload = json.loads(raw)
        f1 = payload["labeled"]["all"]["f1"]
        assert f"{f1:.3f}" in table

    def test_fine_grained(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(corpus_dir),
            "--fine-grained",
        )
        assert code == 0
        assert "Punctuation" in out

    def test_unlabeled_only(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(corpus_dir),
            "--unlabeled",
        )
        assert not any(line.startswith("labeled/") for line in out.splitlines())
        assert "unlabeled/all" in out

    @pytest.mark.parametrize("extra", [[], ["--fine-grained"]], ids=["plain", "fine-grained"])
    def test_unlabeled_json_keeps_only_unlabeled(self, capsys, corpus_dir, extra):
        code, out, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(corpus_dir),
            "--unlabeled", "--json", *extra,
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["unlabeled"]
        assert payload["unlabeled"]["all"]["f1"] == 1.0

    def test_unpaired_files(self, capsys, corpus_dir, tmp_path):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        (lonely / "one.xml").write_bytes((corpus_dir / "one.xml").read_bytes())
        code, _, err = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(lonely)
        )
        assert code == 1
        assert "two" in err

    def test_two_files_pair_whatever_their_stems(self, capsys, corpus_dir, degraded_dir, tmp_path):
        gold, system = tmp_path / "g1.xml", tmp_path / "s1.xml"
        gold.write_bytes((corpus_dir / "one.xml").read_bytes())
        system.write_bytes((degraded_dir / "one.xml").read_bytes())
        code, out, err = run(capsys, "evaluate", "--gold", str(gold), "--system", str(system), "--json")
        assert (code, err) == (0, "")
        _, same_stem, _ = run(capsys, "evaluate", "--gold", str(corpus_dir / "one.xml"),
                              "--system", str(degraded_dir / "one.xml"), "--json")
        assert out == same_stem
        assert json.loads(out)["labeled"]["remote"]["gold"] == 1

    def test_file_and_directory_still_pair_by_stem(self, capsys, corpus_dir, degraded_dir):
        code, _, err = run(capsys, "evaluate", "--gold", str(corpus_dir / "one.xml"),
                           "--system", str(degraded_dir))
        assert code == 1
        assert err == "unpaired files (gold only: [], system only: ['two'])\n"

    @pytest.mark.parametrize("only_gold, only_system, message", [
        (3, 0, "gold only: ['g00', 'g01', 'g02'], system only: []"),
        (4, 1, "gold only: ['g00', 'g01', 'g02', ... (1 more)], system only: ['s00']"),
        (99, 5, "gold only: ['g00', 'g01', 'g02', ... (96 more)], "
                "system only: ['s00', 's01', 's02', ... (2 more)]"),
    ], ids=["three", "four", "ninety-nine"])
    def test_unpaired_stems_shortened(self, capsys, tmp_path, only_gold, only_system, message):
        for side, count in (("g", only_gold), ("s", only_system)):
            directory = tmp_path / side
            directory.mkdir()
            for name in ["paired", *(f"{side}{k:02}" for k in range(count))]:
                (directory / f"{name}.xml").write_text("")  # never read: pairing comes first
        code, _, err = run(capsys, "evaluate", "--gold", str(tmp_path / "g"), "--system", str(tmp_path / "s"))
        assert (code, err) == (1, f"unpaired files ({message})\n")

    def test_parse_error_names_file(self, capsys, corpus_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "one.xml").write_text("not xml at all")
        (broken / "two.xml").write_bytes((corpus_dir / "two.xml").read_bytes())
        code, _, err = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(broken)
        )
        assert code == 2
        assert "one.xml" in err

    def test_token_mismatch(self, capsys, corpus_dir, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        # swap the files so tokens disagree per stem
        (other / "one.xml").write_bytes((corpus_dir / "two.xml").read_bytes())
        (other / "two.xml").write_bytes((corpus_dir / "one.xml").read_bytes())
        code, _, err = run(
            capsys, "evaluate", "--gold", str(corpus_dir), "--system", str(other)
        )
        assert code == 3
        assert err

    # Long tokens and a long passage id are shortened as the reader's messages shorten them.
    @pytest.mark.parametrize("passage_id, gold_tokens, system_tokens, message", [
        ("7", ["Hello", "world"], ["Hello", "there"],
         "passage 7: token 2 is 'there' in the output, 'world' in the gold"),
        ("7", ["Hello", "world"], ["Hello"], "passage 7: output has 1 tokens, gold has 2"),
        ("7", ["x" * 3000, "y"], ["x" * 2999 + "z", "y"],
         "passage 7: token 1 is 'xxxxxxxxxxxx... (3000 characters)' in the output, "
         "'xxxxxxxxxxxx... (3000 characters)' in the gold; they first differ at character 3000"),
        ("7", ["a" * 3000], ["b" * 3000],
         "passage 7: token 1 is 'bbbbbbbbbbbb... (3000 characters)' in the output, "
         "'aaaaaaaaaaaa... (3000 characters)' in the gold"),
        ("x" * 3000, ["Hello", "world"], ["Hello", "there"],
         "passage xxxxxxxxxxxx... (3000 characters): token 2 is 'there' in the output, 'world' in the gold"),
    ], ids=["text", "count", "long-tokens", "long-tokens-shortened-apart", "long-passage-id"])
    def test_token_mismatch_names_both_files(self, capsys, tmp_path, passage_id, gold_tokens,
                                             system_tokens, message):
        paths = []
        for name, tokens in (("gold", gold_tokens), ("system", system_tokens)):
            p = build_passage(passage_id, tokens)
            for position in range(1, len(tokens) + 1):
                p.add_edge(p.root, p.terminal_id(position), "A")
            paths.append(tmp_path / f"{name}.xml")
            paths[-1].write_bytes(serialize_xml(p.freeze()))
        gold, system = paths
        code, out, err = run(capsys, "evaluate", "--gold", str(gold), "--system", str(system))
        assert code == cli.EXIT_TOKEN_MISMATCH
        assert out == ""
        assert err == f"{system} vs {gold}: {message}\n"

    def test_pairing_is_order_independent(self, capsys, corpus_dir, degraded_dir):
        _, first, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(degraded_dir), "--json",
        )
        _, second, _ = run(
            capsys,
            "evaluate", "--gold", str(corpus_dir), "--system", str(degraded_dir), "--json",
        )
        assert json.loads(first) == json.loads(second)


class TestValidate:
    def test_clean_corpus(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "validate", str(corpus_dir))
        assert code == 0
        assert out == ""

    def test_legacy_label_reported(self, capsys, corpus_dir, tmp_path):
        legacy = rebuild(
            remote_sample(),
            lambda e: relabel(e, "T") if e.category.code == "L" else e,
        )
        path = tmp_path / "legacy.xml"
        path.write_bytes(serialize_xml(legacy))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "V0" in out
        code, _, _ = run(capsys, "validate", str(path), "--strict")
        assert code == 4

    def test_json_lines(self, capsys, tmp_path):
        legacy = rebuild(
            remote_sample(),
            lambda e: relabel(e, "T") if e.category.code == "L" else e,
        )
        path = tmp_path / "legacy.xml"
        path.write_bytes(serialize_xml(legacy))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        record = json.loads(out.splitlines()[0])
        assert record["rule"] == "V0"


    @pytest.mark.parametrize("field_break", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    def test_passage_id_with_field_break(self, capsys, tmp_path, field_break):
        # A violation line is tab-separated, starting with the passage id.
        passage_id = f"a{field_break}b"
        p = build_passage(passage_id, ["x"])
        p.add_edge(p.root, p.terminal_id(1), "T")
        path = tmp_path / "broken.xml"
        path.write_bytes(serialize_xml(p.freeze()))
        code, out, err = run(capsys, "validate", str(path))
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"{path}: passage id holds a tab or a line break\n"
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == cli.EXIT_OK
        assert [json.loads(line)["passage"] for line in out.splitlines()] == [passage_id]

    @pytest.mark.parametrize("closing_edge", sorted(CYCLIC_DOCUMENTS))
    def test_cyclic_document_names_file(self, capsys, tmp_path, closing_edge):
        path = tmp_path / "cyclic.xml"
        path.write_bytes(CYCLIC_DOCUMENTS[closing_edge])
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "cyclic.xml" in err and "Traceback" not in err

    def test_loose_node_id_names_file(self, capsys, tmp_path):
        path = tmp_path / "loose.xml"
        path.write_bytes(serialize_xml(remote_sample()).replace(b'toID="0.1"', b'toID="+0.1"'))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "loose.xml" in err and "Traceback" not in err


class TestOverlongNodeId:
    """An id with more digits than int() converts is refused by name, like
    any bad id, and not with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--gold", "{p}", "--system", "{p}"],
            ["validate", "{p}"],
            ["stats", "{p}"],
            ["normalize", "{p}", "--out", "{out}"],
            ["convert", "{p}", "--to", "bilexical", "--out", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_names_file(self, capsys, tmp_path, argv):
        path = tmp_path / "long.xml"
        long_id = b'toID="0.' + b"1" * 5000 + b'"'
        path.write_bytes(serialize_xml(remote_sample()).replace(b'toID="0.1"', long_id))
        code, out, err = run(capsys, *(a.format(p=path, out=tmp_path / "out") for a in argv))
        assert (code, out) == (2, "")
        assert "long.xml" in err and "Traceback" not in err

    def test_long_category_shortened(self, capsys, tmp_path):
        path = tmp_path / "long.xml"
        path.write_bytes(serialize_xml(remote_sample()).replace(b'type="L"', b'type="' + b"L" * 4000 + b'"'))
        code, out, err = run(capsys, "stats", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}: unknown category code: 'LLLLLLLLLLLL... (4000 characters)'\n"

    def test_long_node_id_shortened(self, capsys, tmp_path):
        # The implicit unit 1.4, renamed to a 4000-digit id and given a child.
        path = tmp_path / "long.xml"
        document = serialize_xml(implicit_sample()).replace(b'"1.4"', b'"1.' + b"7" * 4000 + b'"')
        path.write_bytes(document.replace(b'implicit="True" />', b'implicit="True" /><edge toID="0.1" type="E" />'))
        code, out, err = run(capsys, "stats", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}: implicit node 1.7777777777... (4002 characters) cannot have children\n"


class TestNormalize:
    @pytest.mark.parametrize("input_name, out_name", [
        ("d", "d"), ("d", "./d/"), ("d/a.xml", "d"),
    ], ids=["same", "other-spelling", "file-in-it"])
    def test_refuses_to_overwrite_its_input(self, capsys, tmp_path, monkeypatch, input_name, out_name):
        (tmp_path / "d").mkdir()
        document = serialize_xml(remote_sample()).replace(b"<root ", b'<root annotationID="3" ')
        (tmp_path / "d" / "a.xml").write_bytes(document)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "normalize", input_name, "--out", out_name)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"{out_name}: is the input's directory, which normalize would overwrite\n"
        assert (tmp_path / "d" / "a.xml").read_bytes() == document

    def test_writes_relabeled_files(self, capsys, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        legacy = rebuild(
            remote_sample(),
            lambda e: relabel(e, "T") if e.category.code == "L" else e,
        )
        (src / "p.xml").write_bytes(serialize_xml(legacy))
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "normalize", str(src), "--out", str(out_dir))
        assert code == 0
        fixed = parse_xml((out_dir / "p.xml").read_bytes())
        assert not any(e.category.code in ("T", "Q") for e in fixed.edges)


class TestStats:
    def test_table(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "stats", str(corpus_dir))
        assert code == 0
        assert "# passages" in out and "2" in out

    def test_json_agrees_with_table(self, capsys, corpus_dir):
        _, table, _ = run(capsys, "stats", str(corpus_dir))
        _, raw, _ = run(capsys, "stats", str(corpus_dir), "--json")
        payload = json.loads(raw)
        assert payload["tokens"] == 27
        assert f"{payload['pct_remote']:.2f}" in table

    @staticmethod
    def as_read(*dirs):
        return {
            str(d): stats.corpus_stats(parse_xml(f.read_bytes()) for f in sorted(d.glob("*.xml")))
            for d in dirs
        }

    def test_one_column_per_directory(self, capsys, corpus_dir, degraded_dir):
        code, out, _ = run(capsys, "stats", str(corpus_dir), str(degraded_dir))
        assert code == 0
        assert out == stats.render_table(self.as_read(corpus_dir, degraded_dir)) + "\n"

    def test_json_keyed_by_path(self, capsys, corpus_dir, degraded_dir):
        code, out, _ = run(capsys, "stats", str(corpus_dir), str(degraded_dir), "--json")
        assert code == 0
        reports = self.as_read(corpus_dir, degraded_dir)
        assert json.loads(out) == {k: r.to_dict() for k, r in reports.items()}

    def test_same_last_component_gives_two_columns(self, capsys, tmp_path):
        dirs = [tmp_path / "a" / "c", tmp_path / "b" / "c"]
        for d, sample in zip(dirs, (remote_sample, implicit_sample)):
            d.mkdir(parents=True)
            (d / "p.xml").write_bytes(serialize_xml(sample()))
        code, out, _ = run(capsys, "stats", *map(str, dirs))
        assert code == 0
        assert out.splitlines()[0].split() == [str(d) for d in dirs]
        assert out == stats.render_table(self.as_read(*dirs)) + "\n"

    @pytest.mark.parametrize("inputs", [
        ("gold", "gold"), ("gold", "gold/one.xml", "gold"), ("gold", "./gold"), ("gold", "gold/"),
        ("./gold", "gold/one.xml", "gold/"), ("{absolute}", "gold"), ("gold", "link"),
    ])
    def test_repeated_input_refused_before_reading(self, capsys, corpus_dir, monkeypatch, inputs):
        def no_read(path):
            raise AssertionError(f"read {path}")

        (corpus_dir.parent / "link").symlink_to("gold")
        monkeypatch.chdir(corpus_dir.parent)
        monkeypatch.setattr(Path, "read_bytes", no_read)
        names = [name.format(absolute=corpus_dir) for name in inputs]
        code, out, err = run(capsys, "stats", *names)
        assert (code, out) == (1, "")
        assert err == f"{names[-1]}: given more than once\n"  # the later spelling

    def test_missing_directory(self, capsys, corpus_dir, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "stats", str(corpus_dir), str(missing))
        assert code == 2
        assert out == ""
        assert err == f"{missing}: does not exist\n"

    def test_symlink_loop(self, capsys, corpus_dir, tmp_path):
        # The repeated-input check resolves each path; a loop resolves to no file.
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        code, out, err = run(capsys, "stats", str(corpus_dir), str(tmp_path / "a"))
        assert (code, out, err) == (2, "", f"{tmp_path / 'a'}: does not exist\n")

    def test_malformed_file_names_file(self, capsys, corpus_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "bad.xml").write_text("<root")
        code, out, err = run(capsys, "stats", str(corpus_dir), str(broken))
        assert code == 2
        assert out == ""
        assert str(broken / "bad.xml") in err and "Traceback" not in err


class TestNotRegularFile:
    """A FIFO or a device is refused by name and never opened: reading a
    FIFO would block until a writer came."""

    @pytest.fixture(autouse=True)
    def no_reads(self, monkeypatch):
        def read_bytes(path):
            raise AssertionError(f"opened {path}")

        monkeypatch.setattr(Path, "read_bytes", read_bytes)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    @pytest.mark.parametrize("command", ["stats", "validate"])
    def test_fifo(self, capsys, tmp_path, command):
        fifo = tmp_path / "fifo.xml"
        os.mkfifo(fifo)
        code, out, err = run(capsys, command, str(fifo))
        assert (code, out) == (2, "")
        assert err == f"{fifo}: is not a regular file or directory\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    @pytest.mark.parametrize("entry", ["fifo", "directory"])
    def test_directory_entry(self, capsys, corpus_dir, entry):
        odd = corpus_dir / "odd.xml"
        if entry == "fifo":
            os.mkfifo(odd)
        else:
            odd.mkdir()
        code, out, err = run(capsys, "validate", str(corpus_dir))
        assert (code, out) == (2, "")
        assert err == f"{odd}: is not a regular file\n"

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null here")
    def test_device(self, capsys, corpus_dir):
        code, out, err = run(capsys, "evaluate", "--gold", str(corpus_dir), "--system", "/dev/null")
        assert (code, out) == (2, "")
        assert err == "/dev/null: is not a regular file or directory\n"


class TestDirectoryWithoutXml:
    """Such a directory, often a mistyped path, is refused rather than read
    as an empty corpus."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "{d}"],
            ["validate", "{d}"],
            ["evaluate", "--gold", "{d}", "--system", "{d}"],
        ],
    )
    @pytest.mark.parametrize("contents", [[], ["p.XML"]])
    def test_refused(self, capsys, tmp_path, argv, contents):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in contents:
            (bare / name).write_bytes(serialize_xml(remote_sample()))
        code, out, err = run(capsys, *(a.format(d=bare) for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"{bare}: holds no *.xml files\n"


class TestConvert:
    def test_text(self, capsys, corpus_dir, tmp_path):
        out_dir = tmp_path / "txt"
        code, _, _ = run(capsys, "convert", str(corpus_dir), "--to", "text", "--out", str(out_dir))
        assert code == 0
        assert (
            (out_dir / "one.txt").read_text()
            == "After graduation , John moved to Paris\n"
        )

    def test_bilexical(self, capsys, corpus_dir, tmp_path):
        out_dir = tmp_path / "dep"
        code, _, _ = run(
            capsys, "convert", str(corpus_dir), "--to", "bilexical", "--out", str(out_dir)
        )
        assert code == 0
        lines = (out_dir / "one.tsv").read_text().splitlines()
        assert lines[0] == "1\tAfter\t2\tL"
        assert len(lines) == 7


    def test_bilexical_deep_chain(self, capsys, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "chain.xml").write_bytes(serialize_xml(deep_center_chain()))
        out_dir = tmp_path / "dep"
        code, _, err = run(capsys, "convert", str(src), "--to", "bilexical", "--out", str(out_dir))
        assert code == 0
        assert err == ""
        assert (out_dir / "chain.tsv").read_text() == "1\tis\t2\tF\n2\tit\t0\troot\n"

    def test_bilexical_legacy_labels_as_normalized(self, capsys, tmp_path):
        legacy = rebuild(
            remote_sample(),
            lambda e: relabel(e, "Q") if e.category.code == "R" else e,
        )
        tsv = {}
        for name, passage in [("legacy", legacy), ("normalized", normalize(legacy))]:
            src = tmp_path / name
            src.mkdir()
            (src / "p.xml").write_bytes(serialize_xml(passage))
            out_dir = tmp_path / f"{name}-dep"
            code, _, _ = run(
                capsys, "convert", str(src), "--to", "bilexical", "--out", str(out_dir)
            )
            assert code == 0
            tsv[name] = (out_dir / "p.tsv").read_bytes()
        assert b"\tE\n" in tsv["legacy"]
        assert tsv["legacy"] == tsv["normalized"]


class TestConvertRefusesFieldBreaks:
    """A token holding a tab or a line break would split its field or line."""

    TOKENS = ["New&#09;York", "is&#10;big", "ok&#13;"]

    @pytest.fixture
    def broken_dir(self, tmp_path):
        d = tmp_path / "broken"
        d.mkdir()
        (d / "good.xml").write_bytes(serialize_xml(remote_sample()))
        p = build_passage("p", ["a", "b"])
        p.add_edge(p.root, p.terminal_id(1), "A")
        p.add_edge(p.root, p.terminal_id(2), "S")
        clean = serialize_xml(p.freeze())
        for k, token in enumerate(self.TOKENS):
            # Token 1 or token 2 breaks, by turns.
            old = b'text="a"' if k % 2 == 0 else b'text="b"'
            (d / f"p{k}.xml").write_bytes(clean.replace(old, f'text="{token}"'.encode()))
        return d

    @pytest.mark.parametrize("to, suffix", [("text", ".txt"), ("bilexical", ".tsv")])
    @pytest.mark.parametrize("k", range(len(TOKENS)))
    def test_refused(self, capsys, broken_dir, tmp_path, to, suffix, k):
        path = broken_dir / f"p{k}.xml"
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "convert", str(path), "--to", to, "--out", str(out_dir))
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"{path}: token {k % 2 + 1} holds a tab or a line break\n"
        assert not (out_dir / f"p{k}{suffix}").exists()

    @pytest.mark.parametrize("to, suffix", [("text", ".txt"), ("bilexical", ".tsv")])
    def test_directory_stops_at_the_broken_file(self, capsys, broken_dir, tmp_path, to, suffix):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "convert", str(broken_dir), "--to", to, "--out", str(out_dir))
        assert code == cli.EXIT_PARSE
        assert err == f"{broken_dir / 'p0.xml'}: token 1 holds a tab or a line break\n"
        assert [f.name for f in out_dir.iterdir()] == [f"good{suffix}"]


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command", [["normalize"], ["convert", "--to", "text"]], ids=["normalize", "convert"]
    )
    def test_names_path(self, capsys, corpus_dir, tmp_path, command):
        afile = tmp_path / "afile"  # a file where the output directory should go
        afile.write_text("")
        code, _, err = run(capsys, *command, str(corpus_dir), "--out", str(afile))
        assert code == cli.EXIT_USAGE
        assert str(afile) in err and "Traceback" not in err


def legacy_corpus(directory: Path, passage_id: str = "1") -> Path:
    """A directory holding one passage whose one edge has a legacy T label,
    which gives validate a violation line to print."""
    p = build_passage(passage_id, ["x"])
    p.add_edge(p.root, p.terminal_id(1), "T")
    directory.mkdir()
    (directory / "legacy.xml").write_bytes(serialize_xml(p.freeze()))
    return directory


def run_python(args: list[str], env: dict[str, str] | None = None, **kwargs):
    """A fresh interpreter that imports this uccakit run on args, with `env`
    added to the environment."""
    src = str(Path(cli.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def run_module(argv: list[str], env: dict[str, str] | None = None, **kwargs):
    """`python -m uccakit.cli` run on argv, as run_python runs it."""
    return run_python(["-m", "uccakit.cli", *argv], env, **kwargs)


class TestClosedOutput:
    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_no_traceback(self, tmp_path, command):
        corpus = legacy_corpus(tmp_path / "corpus")
        read_end, write_end = os.pipe()
        os.close(read_end)  # as `| head -0` does: every write to stdout fails
        try:
            result = run_module([command, str(corpus)], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode == cli.EXIT_USAGE


class TestUnencodableOutput:
    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_no_traceback(self, tmp_path, command):
        # validate prints the passage id; stats, given two inputs, heads its columns with their paths.
        inputs = [str(legacy_corpus(tmp_path / "corpüs", "pé"))]
        if command == "stats":
            inputs.insert(0, str(legacy_corpus(tmp_path / "enc")))
        result = run_module([command, *inputs], env={"PYTHONIOENCODING": "ascii"},
                            capture_output=True, text=True)
        assert result.returncode == cli.EXIT_USAGE
        assert result.stderr.startswith("cannot write output: 'ascii' codec can't encode")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


class TestFormatFromArguments:
    """What a command prints follows from its arguments and inputs alone;
    UCCAKIT_FORMAT, which once selected JSON, changes nothing."""

    @pytest.mark.parametrize("command, passage_id", [
        ("evaluate", "1"), ("validate", "1"), ("validate", "a\tb"), ("stats", "1"),
    ], ids=["evaluate", "validate", "validate-tab-in-id", "stats"])
    def test_format_variable_ignored(self, capsys, monkeypatch, tmp_path, command, passage_id):
        corpus = str(legacy_corpus(tmp_path / "corpus", passage_id))
        argv = ["--gold", corpus, "--system", corpus] if command == "evaluate" else [corpus]
        monkeypatch.delenv("UCCAKIT_FORMAT", raising=False)
        plain = run(capsys, command, *argv)
        assert plain[1] or plain[2]  # each case prints something
        monkeypatch.setenv("UCCAKIT_FORMAT", "json")
        assert run(capsys, command, *argv) == plain


#: The modules that importing the CLI loads, and that every command parses with.
CLI_MODULES = {"uccakit", "uccakit.cli", "uccakit.formats", "uccakit.graph",
               "uccakit.categories", "uccakit.errors"}

#: The uccakit modules each subcommand loads beyond CLI_MODULES.
COMMAND_MODULES = {
    "evaluate": {"uccakit.evaluation", "uccakit.records"},
    "validate": {"uccakit.validation", "uccakit.records"},
    "normalize": set(),
    "stats": {"uccakit.stats", "uccakit.records"},
    "convert": set(),
}


def command_argv(command: str, corpus: Path, out: Path) -> list[str]:
    """An argv that runs `command` over `corpus` (both sides, for evaluate),
    writing under `out`."""
    return [command, *{
        "evaluate": ["--gold", str(corpus), "--system", str(corpus)],
        "validate": [str(corpus)],
        "normalize": [str(corpus), "--out", str(out)],
        "stats": [str(corpus)],
        "convert": [str(corpus), "--to", "bilexical", "--out", str(out)],
    }[command]]


class TestDoctypeRefused:
    """A passage document with a DOCTYPE is refused by name: its entities
    and defaulted attributes would change the passage read."""

    DOCTYPE = b'<!DOCTYPE root [<!ENTITY w "John"><!ATTLIST edge type CDATA "A">]>\n'

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_names_file_and_writes_nothing(self, capsys, tmp_path, command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        declaration, _, rest = serialize_xml(remote_sample()).partition(b"\n")
        (corpus / "dtd.xml").write_bytes(declaration + b"\n" + self.DOCTYPE + rest)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *command_argv(command, corpus, out))
        assert (code, stdout) == (cli.EXIT_PARSE, "")
        assert err == f"{corpus / 'dtd.xml'}: DOCTYPE 'root' not allowed in passage XML\n"
        assert not out.exists() or not any(out.iterdir())


class TestNonCanonicalIdRefused:
    """A node id in a spelling that str(NodeId) never writes is refused by
    name on every command, and nothing is written."""

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    @pytest.mark.parametrize("old, new, message", [
        (b'toID="1.2"', b'toID="1.02"', "edge toID=1.02 is not a declared node"),
        (b'toID="0.1"', b'toID="x"', "edge toID=x is not a declared node"),
        (b'<node ID="1.2"', b'<node ID="01.2"', "bad unit ID: '01.2'"),
    ], ids=["leading-zero-to-id", "malformed-to-id", "leading-zero-unit-id"])
    def test_names_file(self, capsys, tmp_path, command, old, new, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        document = serialize_xml(remote_sample())
        assert document.count(old) == 1
        (corpus / "ids.xml").write_bytes(document.replace(old, new))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *command_argv(command, corpus, out))
        assert (code, stdout) == (cli.EXIT_PARSE, "")
        assert err == f"{corpus / 'ids.xml'}: {message}\n"
        assert not out.exists() or not any(out.iterdir())


class TestWritesReplaceLinks:
    """An output path that is a symlink or a hard link, here to the input
    itself, is replaced by a new file: the file it led to keeps its bytes."""

    @pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
    @pytest.mark.parametrize("command, name", [
        (["normalize"], "a.xml"),
        (["convert", "--to", "text"], "a.txt"),
        (["convert", "--to", "bilexical"], "a.tsv"),
    ], ids=["normalize", "convert-text", "convert-bilexical"])
    def test_linked_file_unchanged(self, capsys, tmp_path, link, command, name):
        source, out = tmp_path / "e", tmp_path / "d"
        source.mkdir()
        out.mkdir()
        document = serialize_xml(remote_sample()).replace(b"<root ", b'<root annotationID="3" ')
        (source / "a.xml").write_bytes(document)
        link(source / "a.xml", out / name)
        code, stdout, err = run(capsys, *command, str(source), "--out", str(out))
        assert (code, stdout, err) == (0, "", "")
        assert (source / "a.xml").read_bytes() == document
        written = out / name
        assert not written.is_symlink() and written.stat().st_nlink == 1
        assert written.read_bytes() != document


def loaded_modules(probe: str, *argv: str) -> set[str]:
    """The modules a fresh `-S` interpreter holds after running `probe`,
    which writes them to stderr."""
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


class TestImportCost:
    """A process without cached bytecode compiles every module it imports,
    so a command loads only the modules it runs."""

    def assert_lean(self, loaded: set[str]) -> None:
        # dataclasses imports inspect, and with it ast, dis and tokenize:
        # about 25 ms more start-up for every command.
        assert not loaded & {"dataclasses", "inspect"}
        assert not [name for name in loaded if name == "xml.etree" or name.startswith("xml.etree.")]

    def test_cli_loads_no_dataclasses_or_elementtree(self):
        loaded = loaded_modules("import uccakit.cli, sys; sys.stderr.write(' '.join(sys.modules))")
        self.assert_lean(loaded)
        assert {name for name in loaded if name.startswith("uccakit")} == CLI_MODULES
        assert "json" not in loaded

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_subcommand_loads_only_its_modules(self, command, corpus_dir, tmp_path):
        probe = ("import sys, uccakit.cli; code = uccakit.cli.run(); "
                 "sys.stderr.write(' '.join(sys.modules)); sys.exit(code)")
        loaded = loaded_modules(probe, *command_argv(command, corpus_dir, tmp_path / "out"))
        self.assert_lean(loaded)
        assert {name for name in loaded if name.startswith("uccakit")} == CLI_MODULES | COMMAND_MODULES[command]
        assert "json" not in loaded  # only a printed payload needs it


class TestProcessEntry:
    """A process runs run(): main() with the cyclic collector off, then the
    heap frozen for the interpreter's exit.  main() itself is called in
    process by tests, scripts and library users, so it changes neither."""

    @pytest.fixture
    def corpora(self, tmp_path) -> tuple[Path, Path]:
        """A directory of one passage and one of twelve, with legacy labels,
        so that every command has work to do on each passage."""
        one, twelve = tmp_path / "one", tmp_path / "twelve"
        for directory, count in ((one, 1), (twelve, 12)):
            directory.mkdir()
            for k in range(count):
                p = random_passage(random.Random(k), f"p{k}", max_tokens=12, legacy_labels=True)
                (directory / f"p{k}.xml").write_bytes(serialize_xml(p))
        return one, twelve

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_no_reference_cycle_per_passage(self, capsys, tmp_path, corpora, command):
        def garbage(corpus: Path) -> int:
            assert cli.main(command_argv(command, corpus, tmp_path / "out")) == cli.EXIT_OK
            capsys.readouterr()
            return gc.collect()

        garbage(corpora[0])  # imports the command's modules
        gc.collect()
        gc.disable()
        try:
            found = [garbage(corpus) for corpus in corpora]
        finally:
            gc.enable()
        # What a command leaves in cycles (argparse's parser) does not grow
        # with the corpus, so run() may leave the collector off throughout.
        assert found[0] == found[1]

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_main_leaves_the_collector_as_found(self, capsys, corpus_dir, tmp_path, command):
        frozen, states = gc.get_freeze_count(), []
        try:
            for switch in (gc.disable, gc.enable):
                switch()
                cli.main(command_argv(command, corpus_dir, tmp_path / "out"))
                states.append((gc.isenabled(), gc.get_freeze_count()))
        finally:
            gc.enable()
        assert states == [(False, frozen), (True, frozen)]

    @pytest.mark.parametrize("argv, code", [
        (["evaluate", "--gold", "{gold}", "--system", "{system}", "--fine-grained"], cli.EXIT_OK),
        (["validate", "{legacy}", "--strict"], cli.EXIT_VIOLATIONS),
        (["validate", "{broken}", "--json"], cli.EXIT_PARSE),
        (["normalize", "{legacy}", "--out", "{out}"], cli.EXIT_OK),
        (["stats", "{gold}", "{system}"], cli.EXIT_OK),
        (["convert", "{gold}", "--to", "bilexical", "--out", "{out}"], cli.EXIT_OK),
    ], ids=["evaluate", "validate-strict", "validate-malformed", "normalize", "stats", "convert"])
    def test_module_runs_as_main(self, capsys, tmp_path, corpus_dir, degraded_dir, argv, code):
        legacy = legacy_corpus(tmp_path / "legacy")
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "bad.xml").write_text("<root")

        def filled(out: Path) -> list[str]:
            return [a.format(gold=corpus_dir, system=degraded_dir, legacy=legacy,
                             broken=tmp_path / "broken", out=out) for a in argv]

        def written(out: Path) -> dict[Path, bytes]:
            return {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}

        in_process = run(capsys, *filled(tmp_path / "main"))
        done = run_module(filled(tmp_path / "module"), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == in_process
        assert in_process[0] == code
        assert written(tmp_path / "module") == written(tmp_path / "main")

    def test_console_script(self, capsys, corpus_dir):
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n")[1].split("\n\n")[0]
        assert scripts.splitlines() == ['uccakit = "uccakit.cli:run"']
        # As setuptools' wrapper calls it, and what the interpreter then runs
        # at exit: atexit handlers first, then the final collections.
        probe = ("import atexit, gc, sys; from uccakit.cli import run; "
                 "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)); "
                 "sys.exit(run())")
        done = run_python(["-c", probe, "stats", str(corpus_dir)], capture_output=True, text=True)
        assert (done.returncode, done.stdout) == run(capsys, "stats", str(corpus_dir))[:2]
        assert done.stderr == "False True\n"


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["stats", "x", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0


# -- the whole CLI over corrupted corpora ----------------------------------

#: Valid documents that the fuzzed corpora start from; the random passage has
#: legacy labels, so normalize rewrites it, and the chain is deeper than the
#: recursion limit.
FUZZ_SOURCES = [
    serialize_xml(remote_sample()),
    serialize_xml(implicit_sample()),
    serialize_xml(random_passage(random.Random(7), max_tokens=12, legacy_labels=True)),
    serialize_xml(deep_center_chain()),
]

#: "intact" twice: a corpus that parses reaches the exit-0 checks more often.
MUTATIONS = ["intact", "intact", "flip", "truncate", "remove", "duplicate", "swap"]


def mutate(document: bytes, kind: str, rng: random.Random) -> bytes:
    """One seeded corruption: serialize_xml writes each element tag on a line
    of its own, so removing or duplicating a line does so to an element or a tag."""
    lines = document.split(b"\n")
    if kind == "flip":
        k = rng.randrange(len(document))
        return document[:k] + bytes([document[k] ^ 1 << rng.randrange(8)]) + document[k + 1:]
    if kind == "truncate":
        return document[: rng.randrange(len(document))]
    if kind == "remove":
        del lines[rng.randrange(len(lines))]
    elif kind == "duplicate":
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])
    elif kind == "swap":
        (a, b), (c, d) = sorted(rng.sample([m.span(1) for m in re.finditer(rb'toID="([^"]*)"', document)], 2))
        return document[:a] + document[c:d] + document[b:c] + document[a:b] + document[d:]
    return b"\n".join(lines)


#: Each subcommand with the exit codes that cli's docstring allows it.
FUZZ_COMMANDS = [
    (["evaluate", "--gold", "{gold}", "--system", "{system}", "--fine-grained"], {0, 2, 3}),
    (["validate", "{system}"], {0, 2}),
    (["validate", "{system}", "--json", "--strict"], {0, 2, 4}),
    (["stats", "{gold}", "{system}"], {0, 2}),
    (["normalize", "{system}", "--out", "{out}/normalize"], {0, 2}),
    (["convert", "{system}", "--to", "bilexical", "--out", "{out}/bilexical"], {0, 2}),
    (["convert", "{system}", "--to", "text", "--out", "{out}/text"], {0, 2}),
]

corrupt_files = st.tuples(
    st.sampled_from(range(len(FUZZ_SOURCES))),
    st.sampled_from(MUTATIONS), st.sampled_from(MUTATIONS),
    st.integers(0, 2**32 - 1),
)


class TestCliFuzz:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(corrupt_files, min_size=1, max_size=2))
    def test_every_exit_is_documented(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            gold, system, out = Path(tmp, "gold"), Path(tmp, "system"), Path(tmp, "out")
            gold.mkdir()
            system.mkdir()
            paths = [gold, system]
            for k, (source, gold_kind, system_kind, seed) in enumerate(files):
                rng = random.Random(seed)
                for directory, kind in ((gold, gold_kind), (system, system_kind)):
                    path = directory / f"p{k}.xml"
                    path.write_bytes(mutate(FUZZ_SOURCES[source], kind, rng))
                    paths.append(path)
            for template, allowed in FUZZ_COMMANDS:
                argv = [a.format(gold=gold, system=system, out=out) for a in template]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                err = stderr.getvalue()
                assert code in allowed, (argv, code, err)
                assert "Traceback" not in err
                if code in (cli.EXIT_PARSE, cli.EXIT_TOKEN_MISMATCH):
                    assert any(err.startswith((f"{p}:", f"{p} vs ")) for p in paths), err
                if argv[0] == "normalize" and code == cli.EXIT_OK:
                    for path in sorted(system.glob("*.xml")):
                        written = parse_xml((out / "normalize" / path.name).read_bytes())
                        assert written == normalize(parse_xml(path.read_bytes()))
