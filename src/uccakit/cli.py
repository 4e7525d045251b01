"""Command-line front end.

Subcommands: evaluate, validate, normalize, stats, convert.  Inputs are
passage XML files or directories of them.  evaluate pairs gold and system files
by stem, or two given files with each other; stats takes each input once.  Exit
codes: 0 success, 1 usage error (such as a stats input given twice, or a normalize
--out that is the input's directory, path named on stderr), output closed early
(`| head`), output that stdout cannot encode, or an output path that cannot be
written (path named on stderr), 2 parse error (a DOCTYPE is refused, and a terminal
type but Word or Punctuation), or an input that is missing, a directory holding no
*.xml file, or neither a regular file nor a directory (a FIFO or a device, never
opened; a directory's *.xml entries must be regular files), or, for convert, a token
holding a tab or a line break, or, for validate without --json, a passage id holding
one (none of that file's lines printed), or, for normalize, a passage where relabeling
merges two remote edges into one, offending path named on stderr, 3 token
mismatch between system and gold (both paths named on stderr, with the first
difference), 4 validation violations under --strict.  normalize and convert write
only once every input has loaded, so a refused input leaves --out as it was.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from pathlib import Path

# Every command parses; each handler imports the modules only it runs.
from . import formats
from .errors import TokenMismatch, UccaError
from .graph import normalize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TOKEN_MISMATCH = 3
EXIT_VIOLATIONS = 4

#: Characters that would split a field or line of tab-separated output: convert
#: refuses them in a token, validate's plain output in a passage id.
_FIELD_BREAKS = frozenset("\t\r\n")


class _Exit(Exception):
    """Ends a command: main prints `message` on stderr and returns `code`."""

    def __init__(self, code: int, message: str):
        self.code, self.message = code, message


def _xml_files(path: Path) -> list[Path]:
    """The file itself, or the directory's *.xml files in name order."""
    if path.is_file():
        return [path]
    if not path.is_dir():  # a FIFO or a device is never opened
        raise _Exit(EXIT_PARSE, f"{path}: is not a regular file or directory" if path.exists()
                    else f"{path}: does not exist")
    files = sorted(path.glob("*.xml"))
    if not files:
        raise _Exit(EXIT_PARSE, f"{path}: holds no *.xml files")
    return files


def _load(path: Path) -> formats.Passage:
    if not path.is_file():  # a directory's *.xml entry may be a FIFO, a device or a directory
        raise _Exit(EXIT_PARSE, f"{path}: is not a regular file")
    try:
        return formats.parse_xml(path.read_bytes())
    except (UccaError, OSError) as exc:
        raise _Exit(EXIT_PARSE, f"{path}: {exc}") from exc


def _write_all(out_dir: Path, outputs: list[tuple[str, bytes]]) -> None:
    """Create `out_dir` and each named file in it anew; called once every input has loaded.
    A directory at any name is refused before the first file is replaced.  Any other
    entry at a name is removed first: a symlink or hard link is replaced, not written through."""
    for path in (out_dir / name for name, _ in outputs):
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in outputs:
        path = out_dir / name
        path.unlink(missing_ok=True)
        with open(path, "xb") as file:
            file.write(data)


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _stems(stems: set[str]) -> str:
    """Sorted stems as a list; past three, the first three and how many more."""
    listed = [repr(stem) for stem in sorted(stems)]
    if len(listed) > 3:  # a list of every stem can run to kilobytes
        listed[3:] = [f"... ({len(listed) - 3} more)"]
    return f"[{', '.join(listed)}]"


def _cmd_evaluate(args) -> int:
    from . import evaluation

    gold_path, system_path = Path(args.gold), Path(args.system)
    if gold_path.is_file() and system_path.is_file():  # a pair whatever the stems
        gold, system = {"": gold_path}, {"": system_path}
    else:
        gold = {p.stem: p for p in _xml_files(gold_path)}
        system = {p.stem: p for p in _xml_files(system_path)}
    if set(gold) != set(system):
        raise _Exit(EXIT_USAGE, f"unpaired files (gold only: {_stems(gold.keys() - system)}, "
                                f"system only: {_stems(system.keys() - gold)})")

    scores = evaluation.EvalScores()
    for stem in sorted(gold):  # one pair in memory at a time
        out, ref = _load(system[stem]), _load(gold[stem])
        if not args.no_normalize:
            out, ref = normalize(out), normalize(ref)
        try:
            scores = scores.merge(evaluation.score_passage(out, ref, not args.exclude_punct))
        except TokenMismatch as exc:
            raise _Exit(EXIT_TOKEN_MISMATCH, f"{system[stem]} vs {gold[stem]}: {exc}") from None
    payload = scores.to_dict()  # the sections both formats print
    if args.unlabeled or not args.fine_grained:
        del payload["by_category"]
    if args.unlabeled:
        del payload["labeled"]
    if args.json:
        _print_json(payload)
    else:
        print(evaluation.render_scores(payload))
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import validation

    violations = 0
    for path in _xml_files(Path(args.input)):
        passage = _load(path)
        if not (args.json or _FIELD_BREAKS.isdisjoint(passage.passage_id)):
            raise _Exit(EXIT_PARSE, f"{path}: passage id holds a tab or a line break")
        report = validation.validate(passage)
        violations += len(report.violations)
        if args.json:
            if report.violations:
                print(report.to_json_lines())
        else:
            for v in report.violations:
                print(f"{report.passage_id}\t{v.rule}\t{v.ref}\t{v.message}")
    if violations and args.strict:
        return EXIT_VIOLATIONS
    return EXIT_OK


def _cmd_normalize(args) -> int:
    source, out_dir = Path(args.input), Path(args.out)
    files = _xml_files(source)  # a missing input is named as such, not as the --out
    if os.path.realpath(out_dir) == os.path.realpath(source.parent if source.is_file() else source):
        raise _Exit(EXIT_USAGE, f"{args.out}: is the input's directory, which normalize would overwrite")
    outputs = []
    for path in files:
        fresh = normalize(passage := _load(path))
        if len(fresh.edges) < len(passage.edges):  # relabeling made two remote edges one
            raise _Exit(EXIT_PARSE, f"{path}: normalize would drop a remote edge "
                                    "that relabeling merges with another")
        outputs.append((path.name, formats.serialize_xml(fresh)))
    _write_all(out_dir, outputs)
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import stats

    resolved = [os.path.realpath(name) for name in args.input]  # ./d and d/ are d
    for k, name in enumerate(args.input):  # columns are keyed by path as given
        if resolved[k] in resolved[:k]:
            raise _Exit(EXIT_USAGE, f"{name}: given more than once")
    reports = {
        name: stats.corpus_stats(_load(p) for p in _xml_files(Path(name)))
        for name in args.input
    }
    # One input keeps the single-corpus layout: one unnamed column, one flat object.
    single = reports[args.input[0]] if len(args.input) == 1 else None
    if args.json:
        _print_json(single.to_dict() if single else {k: r.to_dict() for k, r in reports.items()})
    else:
        print(stats.render_table(single or reports))
    return EXIT_OK


def _cmd_convert(args) -> int:
    outputs = []
    for path in _xml_files(Path(args.input)):
        passage = _load(path)
        for position, token in enumerate(passage.tokens, 1):
            if not _FIELD_BREAKS.isdisjoint(token):
                raise _Exit(EXIT_PARSE, f"{path}: token {position} holds a tab or a line break")
        if args.to == "text":
            name, text = f"{path.stem}.txt", formats.export_text(passage) + "\n"
        else:
            name, text = f"{path.stem}.tsv", formats.render_bilexical(formats.export_bilexical(passage))
        outputs.append((name, text.encode("utf-8")))
    _write_all(Path(args.out), outputs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uccakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score system output against gold annotation")
    p.add_argument("--gold", required=True, help="gold XML file or directory")
    p.add_argument("--system", required=True, help="system XML file or directory")
    p.add_argument("--fine-grained", action="store_true", help="add per-category scores")
    p.add_argument("--unlabeled", action="store_true", help="report unlabeled scores only")
    p.add_argument("--exclude-punct", action="store_true", help="drop U edges before matching")
    p.add_argument("--no-normalize", action="store_true", help="skip T/Q relabeling")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("validate", help="check passages against well-formedness rules")
    p.add_argument("input", help="XML file or directory")
    p.add_argument("--strict", action="store_true", help="exit 4 on any violation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="rewrite legacy T/Q labels and re-serialize")
    p.add_argument("input", help="XML file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("stats", help="corpus structural statistics")
    p.add_argument("input", nargs="+", help="XML files or directories, one column each")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", help="export passages to other formats")
    p.add_argument("input", help="XML file or directory")
    p.add_argument("--to", required=True, choices=["text", "bilexical"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # see "Note on SIGPIPE" in the signal module docs
        # Point stdout at devnull so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (OSError, UnicodeEncodeError) as exc:  # input errors are _Exit; this is output
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        print(exc.message, file=sys.stderr)
        return exc.code


def run() -> int:
    """The process entry (`uccakit`, `python -m uccakit.cli`): main() with the
    cyclic collector off, as no command leaves a reference cycle per passage,
    then the heap frozen, so that the collections at interpreter exit skip it."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
