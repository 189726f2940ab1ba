"""Statement-level control-flow graphs and the JSON interchange format.

A Cfg holds one function: an ordered list of Statement nodes with dense
integer ids, synthetic entry/exit nop nodes, and each node's predecessor
list, which the parser hands over as it adds the node. From those lists it
builds sorted successor lists and a sorted (E, 2) edge array once; the set
of edges is derived from that array when it is first asked for.

``load_cfg`` checks an interchange document's schema field by field, each
error naming its JSON path: ids, edge endpoints, entry and exit are ints
(not booleans) naming nodes, every kind is known, and a node has a target
exactly when its kind is a definition. ``Cfg.validate`` checks only the
graph: entry and exit are node ids, every node is reachable from the entry,
and the exit is reachable from every node.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np


DEFINITION_KINDS = frozenset({"decl-init", "assign", "call-assign"})
STATEMENT_KINDS = frozenset(
    {"decl-init", "assign", "call-assign", "condition", "deref-use", "return", "nop"}
)


class CfgError(Exception):
    """Raised for malformed graphs or interchange documents."""


@dataclass(slots=True)
class Statement:
    kind: str
    code: str = ""
    target: str | None = None
    decl_type: str | None = None
    callee: str | None = None
    # tuples, which the collector stops tracking once it has seen they hold only strings
    constants: tuple[str, ...] = ()
    operators: tuple[str, ...] = ()
    uses: set[str] = field(default_factory=set)

    def is_definition(self) -> bool:
        return self.kind in DEFINITION_KINDS


@dataclass
class Cfg:
    """One function's graph, with the ids of each node's predecessors.

    The Cfg takes ``preds`` over: it replaces each list of several ids with
    its sorted, de-duplicated copy, and builds the successor lists and the
    edge array from the lists once. Nothing changes after construction;
    ``successors``/``predecessors`` hand out these lists, and callers must
    not change them.
    """

    function: str
    nodes: list[Statement]
    preds: list[list[int]]
    entry: int
    exit: int

    def __post_init__(self) -> None:
        n = len(self.nodes)
        preds = self.preds
        if len(preds) != n:
            raise CfgError(f"{len(preds)} predecessor lists for {n} nodes")
        succ: list[list[int]] = [[] for _ in range(n)]
        for v, ps in enumerate(preds):
            if len(ps) > 1:  # a join or a loop header; ``if (c) {}`` hands over [c, c]
                ps = preds[v] = sorted(set(ps))
            for p in ps:
                if not 0 <= p < n:
                    raise CfgError(f"dangling edge ({p}, {v}) with {n} nodes")
                succ[p].append(v)  # v ascends, so each successor list comes out sorted
        self._succ = succ
        # the edges sorted by (source, target), as an (E, 2) int64 array for batching
        sizes = [len(s) for s in succ]
        count = sum(sizes)
        edge_array = np.empty((count, 2), dtype=np.int64)
        edge_array[:, 0] = np.repeat(np.arange(n, dtype=np.int64), sizes)
        edge_array[:, 1] = np.fromiter(chain.from_iterable(succ), dtype=np.int64, count=count)
        edge_array.flags.writeable = False
        self.edge_array = edge_array

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The directed edges as (source, target) pairs."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    def validate(self) -> None:
        n = len(self.nodes)
        if not (0 <= self.entry < n and 0 <= self.exit < n):
            raise CfgError(f"entry/exit id out of range for {n} nodes")
        reach = _closure(self.entry, self._succ)
        if not all(reach):
            missing = [v for v in range(n) if not reach[v]]
            raise CfgError(f"nodes unreachable from entry: {missing}")
        co_reach = _closure(self.exit, self.preds)
        if not all(co_reach):
            stuck = [v for v in range(n) if not co_reach[v]]
            raise CfgError(f"exit unreachable from nodes: {stuck}")

    def successors(self, v: int) -> list[int]:
        return self._succ[v]

    def predecessors(self, v: int) -> list[int]:
        return self.preds[v]

    def reverse_postorder(self) -> list[int]:
        """Depth-first from the entry, then each unvisited id; successors in ascending order."""
        seen = [False] * len(self.nodes)
        order: list[int] = []
        for root in (self.entry, *range(len(self.nodes))):
            if seen[root]:
                continue
            seen[root] = True
            # the DFS path and, in a parallel stack, the successors each node on it has left
            path, pending = [root], [iter(self._succ[root])]
            while path:
                for s in pending[-1]:
                    if not seen[s]:
                        seen[s] = True
                        path.append(s)
                        pending.append(iter(self._succ[s]))
                        break
                else:
                    pending.pop()
                    order.append(path.pop())
        order.reverse()
        return order

    def structurally_equal(self, other: "Cfg") -> bool:
        return dump_cfg(self) == dump_cfg(other)


def _closure(start: int, adjacency: list[list[int]]) -> list[bool]:
    """Whether each node is reachable from ``start`` along ``adjacency``."""
    seen = [False] * len(adjacency)
    seen[start] = True
    stack = [start]
    while stack:
        for m in adjacency[stack.pop()]:
            if not seen[m]:
                seen[m] = True
                stack.append(m)
    return seen


def predecessor_lists(num_nodes: int, edges) -> list[list[int]]:
    """Per node, the sources of the ``(source, target)`` edges into it: ``Cfg``'s ``preds``."""
    preds: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in edges:
        preds[b].append(a)
    return preds


def dump_cfg(cfg: Cfg) -> str:
    """Serialize to the canonical interchange document."""
    doc = {
        "function": cfg.function,
        "nodes": [
            {
                "id": i,
                "kind": s.kind,
                "code": s.code,
                "target": s.target,
                "type": s.decl_type,
                "callee": s.callee,
                "constants": list(s.constants),
                "operators": list(s.operators),
                "uses": sorted(s.uses),
            }
            for i, s in enumerate(cfg.nodes)
        ],
        "edges": cfg.edge_array.tolist(),
        "entry": cfg.entry,
        "exit": cfg.exit,
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise CfgError(f"{path}: {msg}")


def parse_json(document: str, source: str):
    """``json.loads`` that reports invalid or too deeply nested JSON as a
    ``ValueError`` naming ``source`` (a file path or a description)."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as e:
        raise ValueError(f"{source}: not valid JSON: {e}") from e
    except RecursionError as e:
        raise ValueError(f"{source}: not valid JSON: arrays or objects nested too deeply") from e


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``, counting characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def read_text(path: str) -> str:
    """The text of the file ``path`` as UTF-8, whatever the locale, without
    a leading byte-order mark and with CRLF and CR line endings read as LF.
    A byte that is not valid UTF-8 raises a ValueError naming the file and
    its position as the parser counts it: ``bad.c:1:12: not valid UTF-8: byte 0xff``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read().removeprefix("\ufeff")  # utf-8-sig would drop a file's lone b"\xef\xbb" unread
    # surrogateescape reads an undecodable byte b as U+DC00 + b, a code point valid UTF-8 never gives
    bad = not text.isascii() and re.search("[\udc80-\udcff]", text)
    if bad:
        line, col = line_col(text, bad.start())
        raise ValueError(f"{path}:{line}:{col}: not valid UTF-8: byte {ord(bad.group()) - 0xDC00:#04x}")
    return text


def write_text(path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` as UTF-8, whatever the locale."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_cfg(document: str) -> Cfg:
    """Parse an interchange document, checking the schema field by field."""
    try:
        doc = parse_json(document, "graph document")
    except ValueError as e:
        raise CfgError(str(e)) from e
    _require(isinstance(doc, dict), "$", "document must be an object")
    for key in ("function", "nodes", "edges", "entry", "exit"):
        _require(key in doc, "$", f"missing field {key!r}")
    _require(isinstance(doc["function"], str), "$.function", "must be a string")
    _require(isinstance(doc["nodes"], list), "$.nodes", "must be an array")
    _require(isinstance(doc["edges"], list), "$.edges", "must be an array")

    for i, rec in enumerate(doc["nodes"]):
        _require(isinstance(rec, dict), f"$.nodes[{i}]", "must be an object")
        _require(type(rec.get("id")) is int, f"$.nodes[{i}].id", "must be an int")
    records = sorted(doc["nodes"], key=lambda r: r["id"])
    nodes: list[Statement] = []
    for i, rec in enumerate(records):
        path = f"$.nodes[{i}]"
        _require(rec["id"] == i, path + ".id", f"ids must be dense, expected {i}")
        kind = rec.get("kind")
        _require(isinstance(kind, str) and kind in STATEMENT_KINDS, path + ".kind", f"unknown kind {kind!r}")
        _require(isinstance(rec.get("code", ""), str), path + ".code", "must be a string")
        for k, t in (("target", str), ("type", str), ("callee", str)):
            v = rec.get(k)
            _require(v is None or isinstance(v, t), f"{path}.{k}", "must be string or null")
        if kind in DEFINITION_KINDS:
            _require(rec.get("target") is not None, path + ".target", f"required for kind {kind!r}")
        else:
            _require(rec.get("target") is None, path + ".target", f"must be null for kind {kind!r}")
        for k in ("constants", "operators", "uses"):
            v = rec.get(k, [])
            _require(
                isinstance(v, list) and all(isinstance(x, str) for x in v),
                f"{path}.{k}",
                "must be an array of strings",
            )
        nodes.append(
            Statement(
                kind=kind,
                code=rec.get("code", ""),
                target=rec.get("target"),
                decl_type=rec.get("type"),
                callee=rec.get("callee"),
                constants=tuple(rec.get("constants", ())),
                operators=tuple(rec.get("operators", ())),
                uses=set(rec.get("uses", [])),
            )
        )

    edges: set[tuple[int, int]] = set()
    for j, e in enumerate(doc["edges"]):
        path = f"$.edges[{j}]"
        _require(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e),
            path,
            "must be a [from, to] pair of ints",
        )
        a, b = e
        _require(0 <= a < len(nodes), path, f"dangling edge endpoint {a}")
        _require(0 <= b < len(nodes), path, f"dangling edge endpoint {b}")
        _require((a, b) not in edges, path, f"duplicate edge ({a}, {b})")
        edges.add((a, b))

    for key in ("entry", "exit"):
        _require(type(doc[key]) is int, f"$.{key}", "must be an int")
        _require(0 <= doc[key] < len(nodes), f"$.{key}", f"id {doc[key]} out of range for {len(nodes)} nodes")
    cfg = Cfg(
        function=doc["function"],
        nodes=nodes,
        preds=predecessor_lists(len(nodes), edges),
        entry=doc["entry"],
        exit=doc["exit"],
    )
    cfg.validate()
    return cfg
