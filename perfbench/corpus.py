"""Workload definitions, the seeded corpus generator and its XML writer.

The benchmark owns its passage model, so neither a test edit nor a change
to the library's serializer can alter a workload's input bytes.  The same
model yields the expected results that the output checks compare against
(see checks.py): yields, edge signatures and their multiset intersection
are computed here, without calling the library.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import quoteattr

WORDS = ["the", "cat", "sat", "on", "a", "mat", "today", "quietly", "John", "gave",
         "Mary", "books", "after", "long", "walks", "in", "town", "we", "saw", "it"]
PUNCT = [",", ".", ";", "!"]
UNIT_CODES = ["P", "S", "A", "D", "C", "E", "N", "R", "H", "L", "G", "F"]
LEGACY_CODES = ["T", "Q"]
LEGACY_REPLACEMENT = {"T": "D", "Q": "E"}
ROOT = "1.1"


#: Sizes of the passages of a `pairs` workload, spread evenly.
PAIR_TOKENS = (10, 40)
#: Remote edges per passage of a `pairs` workload, drawn from this range.
PAIR_REMOTES = (0, 3)
#: Remote edges per 100 tokens of a `sizes` workload.
SIZED_REMOTES_PER_100 = 4
UNITS_PER_TOKEN = 0.4
#: Chance that a bushy passage gets one implicit unit.
IMPLICIT_RATE = 0.2
#: Deepest nesting; Python's default recursion limit (1000) must not be hit.
MAX_DEPTH = 300
#: System edits per gold edge.
EDIT_RATE = 0.15


@dataclass(frozen=True)
class Workload:
    """Shape settings of one workload; the seed picks everything else."""

    name: str
    why: str
    pairs: int = 0  # bushy pairs sized over PAIR_TOKENS (0: use `sizes`)
    sizes: tuple[int, ...] = ()  # one pair per size, bushy and deep in turn
    legacy_share: float = 0.0  # share of non-U labels that are T or Q


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-corpus",
            "a typical dev-set scoring run: many short passages, per-passage constant costs dominate",
            pairs=100,
        ),
        Workload(
            "large-passages",
            "35 to 560 tokens, bushy and deep, a third of labels legacy T/Q: superlinear parse/build, "
            "recursive yields and the normalize rebuild dominate",
            sizes=(35, 60, 100, 170, 300, 560),
            legacy_share=1 / 3,
        ),
    )
}


@dataclass
class Model:
    """One passage as the benchmark sees it: ids are "layer.index" strings
    and edges are (parent, child, code, remote) in insertion order."""

    pid: str
    tokens: list[str]
    units: list[str]  # every layer-1 id, the root first
    implicit: set[str] = field(default_factory=set)
    edges: list[tuple[str, str, str, bool]] = field(default_factory=list)

    def copy(self) -> "Model":
        return Model(self.pid, list(self.tokens), list(self.units), set(self.implicit),
                     list(self.edges))

    def terminal(self, position: int) -> str:
        return f"0.{position}"

    def position(self, node: str) -> int:
        layer, index = node.split(".")
        return int(index) if layer == "0" else 0

    def is_punct_terminal(self, node: str) -> bool:
        pos = self.position(node)
        return pos > 0 and not any(ch.isalnum() for ch in self.tokens[pos - 1])

    def parents_ok(self, parent: str) -> bool:
        return parent.startswith("1.") and parent not in self.implicit

    def reaches(self, start: str, target: str) -> bool:
        """True iff `target` is reachable from `start` over all edges."""
        children: dict[str, list[str]] = {}
        for p, c, _, _ in self.edges:
            children.setdefault(p, []).append(c)
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(children.get(node, ()))
        return False

    def can_add_remote(self, parent: str, child: str) -> bool:
        return (
            self.parents_ok(parent)
            and child != ROOT
            and child != parent
            and not self.is_punct_terminal(child)
            and (parent, child) not in {(p, c) for p, c, _, r in self.edges if r}
            and not self.reaches(child, parent)
        )

    # -- expected results ---------------------------------------------------

    def normalized_edges(self) -> list[tuple[str, str, str, bool]]:
        """T->D and Q->E, dropping an edge that the relabel makes a duplicate."""
        seen, out = set(), []
        for p, c, code, remote in self.edges:
            key = (p, c, LEGACY_REPLACEMENT.get(code, code), remote)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def yields(self) -> dict[str, tuple[int, ...]]:
        """Token positions under each node via primary edges (post-order)."""
        children: dict[str, list[str]] = {}
        for p, c, _, remote in self.edges:
            if not remote:
                children.setdefault(p, []).append(c)
        result: dict[str, tuple[int, ...]] = {}
        for start in self.units:
            stack = [(start, False)]
            while stack:
                node, expanded = stack.pop()
                if node in result:
                    continue
                if node.startswith("0."):
                    result[node] = (self.position(node),)
                elif expanded:
                    span: set[int] = set()
                    for c in children.get(node, ()):
                        span.update(result[c])
                    result[node] = tuple(sorted(span))
                else:
                    stack.append((node, True))
                    stack.extend((c, False) for c in children.get(node, ()) if c not in result)
        return result

    def signatures(self) -> list[tuple[tuple[int, ...], str, bool]]:
        """(span, code, remote) per normalized edge with a non-empty span."""
        ys = self.yields()
        return [(ys[c], code, remote) for _, c, code, remote in self.normalized_edges() if ys.get(c)]


def expected_scores(pairs: list[tuple[Model, Model]]) -> dict:
    """Count triples of `evaluate --fine-grained` (normalization on).

    Shape: {"labeled"|"unlabeled": {stratum: (m, p, g)}, "by_category": {code: (m, p, g)}}.
    """
    out: dict = {k: {s: [0, 0, 0] for s in ("all", "primary", "remote")}
                 for k in ("labeled", "unlabeled")}
    by_cat: dict[str, list[int]] = {}

    def add(triple, sys_sigs, gold_sigs):
        a, b = Counter(sys_sigs), Counter(gold_sigs)
        triple[0] += sum(min(n, b[k]) for k, n in a.items())
        triple[1] += len(sys_sigs)
        triple[2] += len(gold_sigs)

    for system, gold in pairs:
        s_sigs, g_sigs = system.signatures(), gold.signatures()
        for labeled, key in ((True, "labeled"), (False, "unlabeled")):
            s = [(sp, c if labeled else None, r) for sp, c, r in s_sigs]
            g = [(sp, c if labeled else None, r) for sp, c, r in g_sigs]
            for remote, stratum in ((False, "primary"), (True, "remote")):
                s_pool = [x for x in s if x[2] == remote]
                g_pool = [x for x in g if x[2] == remote]
                add(out[key][stratum], s_pool, g_pool)
                add(out[key]["all"], s_pool, g_pool)
        for code in {c for _, c, _ in s_sigs} | {c for _, c, _ in g_sigs}:
            add(by_cat.setdefault(code, [0, 0, 0]),
                [x for x in s_sigs if x[1] == code], [x for x in g_sigs if x[1] == code])
    out = {k: {s: tuple(t) for s, t in v.items()} for k, v in out.items()}
    out["by_category"] = {c: tuple(t) for c, t in by_cat.items()}
    return out


def expected_stats(golds: list[Model]) -> dict:
    """The counts `stats --json` reports, from the raw (unnormalized) gold."""
    return {
        "passages": len(golds),
        "tokens": sum(len(m.tokens) for m in golds),
        "non_terminals": sum(len(m.units) - len(m.implicit) for m in golds),
        "edges": sum(len(m.edges) for m in golds),
        "primary": sum(1 for m in golds for e in m.edges if not e[3]),
        "remote": sum(1 for m in golds for e in m.edges if e[3]),
    }


def legacy_edges(golds: list[Model]) -> int:
    return sum(1 for m in golds for e in m.edges if e[2] in LEGACY_CODES)


# -- generation -------------------------------------------------------------


def _tokens(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(PUNCT) if rng.random() < 0.12 else rng.choice(WORDS) for _ in range(n)]


def _code(rng: random.Random, w: Workload) -> str:
    if w.legacy_share and rng.random() < w.legacy_share:
        return rng.choice(LEGACY_CODES)
    return rng.choice(UNIT_CODES)


def _terminal_code(rng: random.Random, w: Workload, text: str) -> str:
    return "U" if not any(ch.isalnum() for ch in text) else _code(rng, w)


def _unit_ids(rng: random.Random, count: int) -> list[str]:
    """The root is 1.1; the other units get a seeded permutation of
    1.2..1.count, so document order is not parent-before-child."""
    rest = [f"1.{k}" for k in range(2, count + 1)]
    rng.shuffle(rest)
    return [ROOT] + rest


def bushy(rng: random.Random, w: Workload, pid: str, n: int) -> Model:
    """A random recursive tree of units with tokens attached at random."""
    tokens = _tokens(rng, n)
    k = 1 + round(n * UNITS_PER_TOKEN)  # the root included
    ids = _unit_ids(rng, k)
    m = Model(pid, tokens, list(ids))
    for i in range(1, k):
        m.edges.append((ids[rng.randrange(i)], ids[i], _code(rng, w), False))
    for pos, text in enumerate(tokens, start=1):
        m.edges.append((ids[rng.randrange(k)], m.terminal(pos), _terminal_code(rng, w, text), False))
    if rng.random() < IMPLICIT_RATE:
        ids.append(f"1.{k + 1}")
        m.units.append(ids[-1])
        m.implicit.add(ids[-1])
        m.edges.append((ids[rng.randrange(k)], ids[-1], _code(rng, w), False))
    _add_remotes(rng, w, m, _remote_count(rng, w, n))
    return m


def deep(rng: random.Random, w: Workload, pid: str, n: int) -> Model:
    """A chain of nested units; each level takes tokens from both ends of
    what is left, so every level's yield is contiguous."""
    tokens = _tokens(rng, n)
    depth = max(2, min(MAX_DEPTH, n // 2))
    ids = _unit_ids(rng, depth)
    m = Model(pid, tokens, list(ids))
    for level in range(1, depth):
        m.edges.append((ids[level - 1], ids[level], _code(rng, w), False))
    lo, hi = 1, n
    per_level = max(1, n // depth)
    for level in range(depth):
        take = per_level if level < depth - 1 else hi - lo + 1
        for j in range(take):
            if lo > hi:
                break
            pos = lo if j % 2 == 0 else hi
            lo, hi = (lo + 1, hi) if j % 2 == 0 else (lo, hi - 1)
            m.edges.append((ids[level], m.terminal(pos), _terminal_code(rng, w, tokens[pos - 1]), False))
    _add_remotes(rng, w, m, _remote_count(rng, w, n))
    return m


def _remote_count(rng: random.Random, w: Workload, n: int) -> int:
    return n * SIZED_REMOTES_PER_100 // 100 if w.sizes else rng.randint(*PAIR_REMOTES)


def _add_remotes(rng: random.Random, w: Workload, m: Model, count: int) -> None:
    units = [u for u in m.units if u not in m.implicit]
    nodes = m.units[1:] + [m.terminal(p) for p in range(1, len(m.tokens) + 1)]
    for _ in range(count * 4):  # a bounded number of tries
        if count == 0:
            break
        parent, child = rng.choice(units), rng.choice(nodes)
        if m.can_add_remote(parent, child):
            m.edges.append((parent, child, _code(rng, w), True))
            count -= 1


def system_of(rng: random.Random, w: Workload, gold: Model) -> Model:
    """The gold passage with seeded relabels, re-attachments and remote
    edges dropped or added."""
    m = gold.copy()
    units = [u for u in m.units if u not in m.implicit]
    for _ in range(max(1, round(EDIT_RATE * len(m.edges)))):
        kind = rng.random()
        i = rng.randrange(len(m.edges))
        p, c, code, remote = m.edges[i]
        if kind < 0.4:
            if code != "U":
                m.edges[i] = (p, c, _code(rng, w), remote)
        elif kind < 0.75:
            new_parent = rng.choice(units)
            if not remote and new_parent != p and not m.reaches(c, new_parent):
                m.edges[i] = (new_parent, c, code, remote)
        elif kind < 0.88:
            if remote:
                del m.edges[i]
        else:
            _add_remotes(rng, w, m, 1)
    return m


def generate(w: Workload, seed: int) -> list[tuple[Model, Model]]:
    """(system, gold) pairs for one workload; the same seed gives the same pairs."""
    rng = random.Random(f"{w.name}:{seed}")
    pairs = []
    if w.sizes:
        for i, n in enumerate(w.sizes):
            make = deep if i % 2 else bushy
            gold = make(rng, w, f"p{i + 1:05d}", n)
            pairs.append((system_of(rng, w, gold), gold))
    else:
        # Every seed gets the same multiset of sizes, spread evenly over the
        # range, so the amount of work does not vary from seed to seed.
        low, high = PAIR_TOKENS
        sizes = [low + i * (high - low + 1) // w.pairs for i in range(w.pairs)]
        rng.shuffle(sizes)
        for i, n in enumerate(sizes):
            gold = bushy(rng, w, f"p{i + 1:05d}", n)
            pairs.append((system_of(rng, w, gold), gold))
    return pairs


# -- XML writer ---------------------------------------------------------------


def to_xml(m: Model) -> bytes:
    """The passage XML layout of the library's format docstring."""
    lines = ["<?xml version='1.0' encoding='utf-8'?>", f"<root passageID={quoteattr(m.pid)}>",
             '  <layer layerID="0">']
    for pos, text in enumerate(m.tokens, start=1):
        kind = "Word" if any(ch.isalnum() for ch in text) else "Punctuation"
        lines += [f'    <node ID="0.{pos}" type="{kind}">',
                  f'      <attributes text={quoteattr(text)} paragraph="1" paragraph_position="{pos}"/>',
                  "    </node>"]
    lines += ["  </layer>", '  <layer layerID="1">']
    out: dict[str, list[tuple[str, str, bool]]] = {u: [] for u in m.units}
    for p, c, code, remote in m.edges:
        out[p].append((c, code, remote))
    for unit in sorted(m.units, key=lambda u: int(u.split(".")[1])):
        if unit in m.implicit:
            lines.append(f'    <node ID="{unit}" type="FN"><attributes implicit="True"/></node>')
            continue
        lines.append(f'    <node ID="{unit}" type="FN">')
        for c, code, remote in out[unit]:
            if remote:
                lines.append(f'      <edge toID="{c}" type="{code}"><attributes remote="True"/></edge>')
            else:
                lines.append(f'      <edge toID="{c}" type="{code}"/>')
        lines.append("    </node>")
    lines += ["  </layer>", "</root>", ""]
    return "\n".join(lines).encode("utf-8")


def write_corpus(pairs: list[tuple[Model, Model]], root: Path) -> tuple[Path, Path]:
    """gold/ and system/ directories with one <pid>.xml per passage."""
    gold_dir, system_dir = root / "gold", root / "system"
    gold_dir.mkdir(parents=True)
    system_dir.mkdir(parents=True)
    for system, gold in pairs:
        (gold_dir / f"{gold.pid}.xml").write_bytes(to_xml(gold))
        (system_dir / f"{system.pid}.xml").write_bytes(to_xml(system))
    return gold_dir, system_dir
