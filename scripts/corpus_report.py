#!/usr/bin/env python3
"""Print structural statistics for one or more corpus directories.

Each argument is a directory of passage XML files.  Passages are
normalized before they are counted, and one table column is printed per
directory, with the same rows as `uccakit stats`.

    python3 scripts/corpus_report.py data/wiki data/20k-de
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uccakit.formats import parse_xml
from uccakit.stats import corpus_stats, render_table
from uccakit.validation import normalize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpora", nargs="+", type=Path, help="directories of passage XML")
    args = parser.parse_args()
    files = {d: sorted(d.glob("*.xml")) for d in args.corpora}
    empty = [d for d, paths in files.items() if not paths]
    for d in empty:
        print(f"{d}: not a directory of passage XML files", file=sys.stderr)
    if empty:
        return 1
    print(render_table({
        d.name: corpus_stats(normalize(parse_xml(f.read_bytes())) for f in paths)
        for d, paths in files.items()
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
