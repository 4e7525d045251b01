"""Check that two uccakit source trees give byte-identical CLI results.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``uccakit`` package (a
checkout's ``src``).  The seed-1 gold and system corpora of every benchmark
workload are generated once with ``perfbench/corpus.py``; each side then runs
the same list of commands in one fresh child process, calling ``cli.main``
in process: the standard invocations, which exit 0 or 4, and four per
workload that exit 1, 2, 2 and 3 on inputs written beside the corpora.
Stdout, stderr, exit codes and the files each command writes are compared.
Exit 0 if all are identical, 1 naming the first command that differs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402

SEED = 1


def commands(gold: str, system: str, out: str) -> list[list[str]]:
    """The standard invocations over one gold and one system corpus; the
    commands that write files write them under `out`."""
    evaluate = ["evaluate", "--gold", gold, "--system", system]
    return [
        *(evaluate + flags for flags in (
            [], ["--json"], ["--fine-grained"], ["--fine-grained", "--json"],
            ["--unlabeled"], ["--unlabeled", "--json"], ["--unlabeled", "--fine-grained"],
            ["--exclude-punct"],
            ["--no-normalize", "--fine-grained"], ["--no-normalize", "--fine-grained", "--json"],
        )),
        *(["stats", *inputs, *flags] for inputs in ([gold], [gold, system]) for flags in ([], ["--json"])),
        *(["validate", path, *flags] for path in (gold, system) for flags in ([], ["--json"], ["--strict"])),
        ["normalize", gold, "--out", f"{out}/normalize"],
        ["convert", gold, "--to", "bilexical", "--out", f"{out}/bilexical"],
        ["convert", gold, "--to", "text", "--out", f"{out}/text"],
    ]


def failing_commands(pairs: list, gold: Path, system: Path, inputs: Path) -> list[list[str]]:
    """Commands that exit 1, 2, 2 and 3 on one workload's corpora, with the
    inputs they need written under `inputs`."""
    lone = inputs / "one-system-file"  # every other gold file is left unpaired
    lone.mkdir(parents=True)
    first = sorted(system.glob("*.xml"))[0]
    (lone / first.name).write_bytes(first.read_bytes())
    whole = sorted(gold.glob("*.xml"))[0].read_bytes()
    (inputs / "half.xml").write_bytes(whole[:len(whole) // 2])
    _, pair_gold = pairs[0]
    other = next(s for s, _ in pairs if len(s.tokens) != len(pair_gold.tokens))  # another length
    return [
        ["evaluate", "--gold", str(gold), "--system", str(lone)],
        ["validate", str(inputs / "missing.xml")],
        ["validate", str(inputs / "half.xml")],
        ["evaluate", "--gold", str(gold / f"{pair_gold.pid}.xml"),
         "--system", str(system / f"{other.pid}.xml")],
    ]


def run_side(src: str, work: str, argvs: list[list[str]]) -> list[tuple]:
    """In a fresh process with `work` as its directory: each command's exit
    code, stdout, stderr and the files it wrote, by path."""
    sys.path.insert(0, src)
    os.chdir(work)
    from uccakit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"uccakit was imported from {cli.__file__}, not from {src}")
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a result to compare, not to stop at
                code = f"raised {type(exc).__name__}: {exc}"
        files = {}
        if "--out" in argv:
            written = Path(argv[argv.index("--out") + 1])
            files = {str(p): p.read_bytes() for p in sorted(written.rglob("*")) if p.is_file()}
        results.append((code, out.getvalue(), err.getvalue(), files))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="source directory of the reference side")
    parser.add_argument("new_src", help="source directory of the side under test")
    args = parser.parse_args(argv)
    context = multiprocessing.get_context("spawn")
    sides = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        argvs = []
        for name, workload in sorted(corpus.WORKLOADS.items()):
            pairs = corpus.generate(workload, SEED)
            gold, system = corpus.write_corpus(pairs, Path(tmp, "corpora", name))
            argvs += commands(str(gold), str(system), f"out/{name}")
            argvs += failing_commands(pairs, gold, system, Path(tmp, "inputs", name))
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            work = Path(tmp, side)
            work.mkdir()
            with context.Pool(1) as pool:  # a fresh interpreter imports each side
                sides.append(pool.apply(run_side, (str(Path(src).resolve()), str(work), argvs)))
    for argv, old, new in zip(argvs, *sides):
        for field, a, b in zip(("exit code", "stdout", "stderr", "written files"), old, new):
            if a != b:
                print(f"uccakit {' '.join(argv)}: not the same {field}", file=sys.stderr)
                return 1
    print(f"identical: {len(argvs)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
