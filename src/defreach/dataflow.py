"""Reaching-definitions analysis over a Cfg, with definition sets as int masks.

Bit i of a mask is definition i of the DefinitionTable. Both solvers repeat
one sweep, OUT[v] = GEN[v] | (OR of OUT[pred] & ~KILL[v]):
  * ``solve`` -- round-robin sweeps in reverse postorder that update OUT in
    place (Gauss-Seidel) until a sweep changes nothing; on a reducible graph
    that takes at most d+2 sweeps, d the most back edges on any acyclic path
    (production path);
  * ``trace`` -- synchronous sweeps in node-id order, where every OUT of
    round r is computed from the round r-1 OUTs (Jacobi style), so each
    round's snapshot is reproducible exactly.

Dereference statements may optionally be treated as introducing an
anonymous definition (``deref_defines=True``); off by default.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .cfg import Cfg


@dataclass(frozen=True)
class Definition:
    def_id: int
    node: int
    variable: str


@dataclass
class DefinitionTable:
    entries: list[Definition] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.entries)


@dataclass
class DataflowState:
    """Per-node definition masks, indexed by node id."""

    gen: list[int]
    kill: list[int]
    inb: list[int] = field(default_factory=list)
    out: list[int] = field(default_factory=list)


def bit_string(mask: int, width: int) -> str:
    """A definition set as ``width`` characters, definition 0 first: {0, 2} of 3 is "101"."""
    return format(mask, f"0{width}b")[::-1] if width else ""


def compute_gen_kill(cfg: Cfg, deref_defines: bool = False) -> tuple[DefinitionTable, DataflowState]:
    """Build the definition table and per-node GEN/KILL masks.

    GEN[v] is the definition made at v (if any); KILL[v] is every *other*
    definition of the same variable (self-kill excluded -- equivalent under
    OUT = GEN u (IN - KILL) since GEN is unioned back in).

    Anonymous definitions from deref statements define a per-node fresh
    variable, so they kill nothing.
    """
    table = DefinitionTable()
    gen = [0] * len(cfg.nodes)
    kill = [0] * len(cfg.nodes)
    by_variable: dict[str, int] = {}  # variable -> mask of all its definitions
    for node, stmt in enumerate(cfg.nodes):
        if stmt.is_definition():
            variable = stmt.target
        elif deref_defines and stmt.kind == "deref-use":
            variable = f"<deref@{node}>"
        else:
            continue
        gen[node] = 1 << table.width
        by_variable[variable] = by_variable.get(variable, 0) | gen[node]
        table.entries.append(Definition(table.width, node, variable))
    for d in table.entries:
        kill[d.node] = by_variable[d.variable] & ~gen[d.node]
    return table, DataflowState(gen=gen, kill=kill)


def _meet(cfg: Cfg, out: list[int], v: int) -> int:
    inb = 0
    for u in cfg.predecessors(v):
        inb |= out[u]
    return inb


def _sweep(cfg: Cfg, state: DataflowState, order: Iterable[int], src: list[int], dst: list[int]) -> bool:
    """dst[v] = GEN[v] | (OR of src[pred] & ~KILL[v]) for each v in order;
    returns whether any dst[v] changed. With ``src is dst`` a node sees the
    OUTs its predecessors got earlier in the same sweep."""
    gen, kill = state.gen, state.kill
    changed = False
    for v in order:
        out = gen[v] | (_meet(cfg, src, v) & ~kill[v])
        if out != dst[v]:
            dst[v] = out
            changed = True
    return changed


def solve(cfg: Cfg, state: DataflowState) -> DataflowState:
    """Least fixpoint of IN[v] = U OUT[pred], OUT[v] = GEN u (IN - KILL)."""
    out = [0] * len(cfg.nodes)
    order = cfg.reverse_postorder()
    while _sweep(cfg, state, order, out, out):
        pass
    state.out = out
    state.inb = [_meet(cfg, out, v) for v in range(len(cfg.nodes))]
    return state


def trace(cfg: Cfg, state: DataflowState, rounds: int) -> list[list[int]]:
    """Per-round OUT snapshots of synchronous full sweeps; snapshot 0 is all zeros."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    nodes = range(len(cfg.nodes))
    snapshots = [[0] * len(cfg.nodes)]
    for _ in range(rounds):
        out = snapshots[-1].copy()
        _sweep(cfg, state, nodes, snapshots[-1], out)
        snapshots.append(out)
    return snapshots


def analyze(cfg: Cfg, deref_defines: bool = False) -> tuple[DefinitionTable, DataflowState]:
    """Convenience: GEN/KILL plus the round-robin fixpoint in one call."""
    table, state = compute_gen_kill(cfg, deref_defines=deref_defines)
    return table, solve(cfg, state)
