"""Independent checks of the CLI's outputs against the benchmark's own model.

Each function returns a list of problems; an empty list means the output
is correct.  Nothing here calls the library: XML outputs are read with
ElementTree and expected numbers come from corpus.py.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

from corpus import LEGACY_CODES, Model

STRATA = ("all", "primary", "remote")


def _triple(counts: dict) -> tuple[int, int, int]:
    return (counts["matched"], counts["predicted"], counts["gold"])


def check_evaluate(text: str, expected: dict) -> list[str]:
    """Every count triple of `evaluate --fine-grained --json`."""
    try:
        payload = json.loads(text)
        problems = []
        for key in ("labeled", "unlabeled"):
            for stratum in STRATA:
                got = _triple(payload[key][stratum])
                if got != expected[key][stratum]:
                    problems.append(f"{key}/{stratum}: {got} != {expected[key][stratum]}")
        got_cats = {code: _triple(c) for code, c in payload["by_category"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"evaluate output unreadable: {exc!r}"]
    if got_cats != expected["by_category"]:
        diff = sorted(set(got_cats.items()) ^ set(expected["by_category"].items()))
        problems.append(f"by_category differs: {diff[:4]}")
    return problems


def check_stats(text: str, expected: dict) -> list[str]:
    """Counts of `stats --json`; primary and remote appear as rounded
    percentages of all edges there."""
    keys = ("passages", "tokens", "non_terminals", "edges", "pct_primary", "pct_remote")
    try:
        payload = json.loads(text)
        got = {k: payload[k] for k in keys}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stats output unreadable: {exc!r}"]
    want = dict(expected)
    for key in ("primary", "remote"):
        share = 100.0 * want.pop(key) / expected["edges"] if expected["edges"] else 0.0
        want[f"pct_{key}"] = round(share, 2)
    return [f"stats {k}: {got[k]} != {want[k]}" for k in keys if got[k] != want[k]]


def check_validate(text: str, expected_v0: int) -> list[str]:
    try:
        rules = [json.loads(line)["rule"] for line in text.splitlines() if line.strip()]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"validate output unreadable: {exc!r}"]
    v0 = rules.count("V0")
    return [] if v0 == expected_v0 else [f"validate: {v0} V0 lines != {expected_v0} legacy edges"]


def check_normalize(out_dir: Path, golds: list[Model]) -> list[str]:
    """Each rewritten file keeps its tokens and edges and has no T/Q."""
    problems = []
    for gold in golds:
        path = out_dir / f"{gold.pid}.xml"
        try:
            root = ET.parse(path).getroot()
            layers = {layer.get("layerID"): layer for layer in root.findall("layer")}
            tokens = [n.find("attributes").get("text") for n in layers["0"].findall("node")]
            types = [e.get("type") for e in layers["1"].iter("edge")]
        except (OSError, ET.ParseError, KeyError, AttributeError) as exc:
            problems.append(f"normalize {path.name}: unreadable: {exc!r}")
            continue
        if tokens != gold.tokens:
            problems.append(f"normalize {path.name}: tokens changed")
        if any(t in LEGACY_CODES for t in types):
            problems.append(f"normalize {path.name}: legacy label left")
        if len(types) != len(gold.normalized_edges()):
            problems.append(f"normalize {path.name}: {len(types)} edges != {len(gold.normalized_edges())}")
    return problems


def check_bilexical(out_dir: Path, golds: list[Model]) -> list[str]:
    """One row per token, in order, with every head in 0..n."""
    problems = []
    for gold in golds:
        path = out_dir / f"{gold.pid}.tsv"
        try:
            rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]
        except OSError as exc:
            problems.append(f"convert {path.name}: {exc}")
            continue
        n = len(gold.tokens)
        if [r[1] if len(r) == 4 else None for r in rows] != gold.tokens:
            problems.append(f"convert {path.name}: rows do not match the {n} tokens")
        elif [r[0] for r in rows] != [str(k) for k in range(1, n + 1)]:
            problems.append(f"convert {path.name}: positions out of order")
        elif not all(r[2].isdigit() and int(r[2]) <= n for r in rows):
            problems.append(f"convert {path.name}: head out of range")
    return problems
