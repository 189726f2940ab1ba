"""Statement-level control-flow graphs and the JSON interchange format.

A Cfg holds one function: an ordered list of Statement nodes with dense
integer ids, a frozen set of directed edges with sorted successor and
predecessor lists and a sorted edge array built from it once, and
synthetic entry/exit nop nodes.

``load_cfg`` checks an interchange document's schema field by field, each
error naming its JSON path: ids, edge endpoints, entry and exit are ints
(not booleans), every kind is known, and a node has a target exactly when
its kind is a definition. ``Cfg.validate`` checks only the graph: entry and
exit are node ids, every node is reachable from the entry, and the exit is
reachable from every node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    constants: list[str] = field(default_factory=list)
    operators: list[str] = field(default_factory=list)
    uses: set[str] = field(default_factory=set)

    def is_definition(self) -> bool:
        return self.kind in DEFINITION_KINDS


@dataclass
class Cfg:
    """One function's graph; neither ``nodes`` nor ``edges`` changes after construction."""

    function: str
    nodes: list[Statement]
    edges: frozenset[tuple[int, int]]
    entry: int
    exit: int

    def __post_init__(self) -> None:
        self.edges = frozenset(self.edges)
        n = len(self.nodes)
        # successors()/predecessors() hand out these lists: callers must not change them
        self._succ: list[list[int]] = [[] for _ in range(n)]
        self._pred: list[list[int]] = [[] for _ in range(n)]
        ordered = sorted(self.edges)
        for a, b in ordered:
            if not (0 <= a < n and 0 <= b < n):
                raise CfgError(f"dangling edge ({a}, {b}) with {n} nodes")
            self._succ[a].append(b)
            self._pred[b].append(a)
        # the same sorted edges as an (E, 2) int64 array, for batching
        flat = chain.from_iterable(ordered)
        self.edge_array = np.fromiter(flat, dtype=np.int64, count=2 * len(ordered)).reshape(-1, 2)
        self.edge_array.flags.writeable = False

    def validate(self) -> None:
        n = len(self.nodes)
        if not (0 <= self.entry < n and 0 <= self.exit < n):
            raise CfgError(f"entry/exit id out of range for {n} nodes")
        reach = _closure(self.entry, self._succ)
        if not all(reach):
            missing = [v for v in range(n) if not reach[v]]
            raise CfgError(f"nodes unreachable from entry: {missing}")
        co_reach = _closure(self.exit, self._pred)
        if not all(co_reach):
            stuck = [v for v in range(n) if not co_reach[v]]
            raise CfgError(f"exit unreachable from nodes: {stuck}")

    def successors(self, v: int) -> list[int]:
        return self._succ[v]

    def predecessors(self, v: int) -> list[int]:
        return self._pred[v]

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
                constants=list(rec.get("constants", [])),
                operators=list(rec.get("operators", [])),
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

    _require(type(doc["entry"]) is int, "$.entry", "must be an int")
    _require(type(doc["exit"]) is int, "$.exit", "must be an int")
    cfg = Cfg(
        function=doc["function"],
        nodes=nodes,
        edges=edges,
        entry=doc["entry"],
        exit=doc["exit"],
    )
    cfg.validate()
    return cfg
