"""Reaching-definitions analysis over a Cfg, with definition sets as int masks.

Bit i of a mask is the definition with ``def_id`` i. Both solvers repeat
one sweep, IN[v] = OR of OUT[pred], OUT[v] = GEN[v] | (IN[v] & ~KILL[v]),
over rows (v, predecessors of v, GEN[v], ~KILL[v]) built once per call, so
each node's predecessor list is read from the Cfg once however many sweeps
run:
  * ``solve`` -- round-robin sweeps in reverse postorder that update OUT in
    place (Gauss-Seidel) until a sweep changes nothing; on a reducible graph
    that takes at most d+2 sweeps, d the most back edges on any acyclic path
    (production path). Every sweep stores IN as well, and the last one
    reads only final OUTs, so it leaves the exact IN;
  * ``trace`` -- synchronous sweeps in node-id order, where every OUT of
    round r is computed from the round r-1 OUTs (Jacobi style), so each
    round's snapshot is reproducible exactly. It reaches its fixpoint within
    about n + 1 rounds for n nodes and repeats that snapshot from then on;
    it runs at most ``MAX_TRACE_ROUNDS`` rounds.

``compute_gen_kill`` keeps each variable's definitions as one mask beside
GEN and KILL (``DataflowState.by_variable``), so IN[v] & by_variable[x] is
the set of x's definitions that reach v. With ``deref_defines=True`` it
treats dereference statements as anonymous definitions; ``analyze`` never does.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .cfg import DEFINITION_KINDS, Cfg


# Enough for a synchronous trace to reach its fixpoint (about n + 1 rounds)
# on functions of up to about a thousand nodes. Every round holds a mask per
# node, and `defreach dfa --trace` prints each as one character per
# definition: about 1 MB of output a round on a 1200-node function. It writes
# each round as it is computed, so its memory is that of one round.
MAX_TRACE_ROUNDS = 1000


class Definition(NamedTuple):
    def_id: int
    node: int
    variable: str


@dataclass
class DataflowState:
    """Per-node definition masks, indexed by node id."""

    gen: list[int]
    kill: list[int]
    by_variable: dict[str, int]  # variable -> mask of all its definitions
    inb: list[int] = field(default_factory=list)
    out: list[int] = field(default_factory=list)


def bit_string(mask: int, width: int) -> str:
    """A definition set as ``width`` characters, definition 0 first: {0, 2} of 3 is "101"."""
    return format(mask, f"0{width}b")[::-1] if width else ""


def compute_gen_kill(cfg: Cfg, deref_defines: bool = False) -> tuple[list[Definition], DataflowState]:
    """The definitions in node order, the i-th with ``def_id`` i, and the masks.

    GEN[v] is the definition made at v (if any); KILL[v] is every *other*
    definition of the same variable (self-kill excluded -- equivalent under
    OUT = GEN u (IN - KILL) since GEN is unioned back in).

    Anonymous definitions from deref statements define a per-node fresh
    variable, so they kill nothing.
    """
    entries: list[Definition] = []
    gen = [0] * len(cfg.nodes)
    kill = [0] * len(cfg.nodes)
    by_variable: dict[str, int] = {}  # variable -> mask of all its definitions
    for node, stmt in enumerate(cfg.nodes):
        if stmt.kind in DEFINITION_KINDS:
            variable = stmt.target
        elif deref_defines and stmt.kind == "deref-use":
            variable = f"<deref@{node}>"
        else:
            continue
        bit = 1 << len(entries)
        gen[node] = bit
        by_variable[variable] = by_variable.get(variable, 0) | bit
        entries.append(Definition(len(entries), node, variable))
    for _, node, variable in entries:
        kill[node] = by_variable[variable] ^ gen[node]  # the variable's other definitions
    return entries, DataflowState(gen=gen, kill=kill, by_variable=by_variable)


def _rows(cfg: Cfg, state: DataflowState, order) -> list[tuple[int, list[int], int, int]]:
    """(v, predecessors of v, GEN[v], ~KILL[v]) for each v in order."""
    gen, kill = state.gen, state.kill
    return [(v, cfg.predecessors(v), gen[v], ~kill[v]) for v in order]


def _sweep(
    rows: list[tuple[int, list[int], int, int]], src: list[int], dst: list[int], inb: list[int]
) -> bool:
    """inb[v] = OR of src[pred], dst[v] = GEN[v] | (inb[v] & ~KILL[v]) for each
    row in turn; returns whether any dst[v] changed. With ``src is dst`` a
    node sees the OUTs its predecessors got earlier in the same sweep."""
    changed = False
    for v, preds, gen, keep in rows:
        acc = 0
        for u in preds:
            acc |= src[u]
        inb[v] = acc
        out = gen | (acc & keep)
        if out != dst[v]:
            dst[v] = out
            changed = True
    return changed


def solve(cfg: Cfg, state: DataflowState) -> DataflowState:
    """Least fixpoint of IN[v] = U OUT[pred], OUT[v] = GEN u (IN - KILL)."""
    rows = _rows(cfg, state, cfg.reverse_postorder())
    out = [0] * len(cfg.nodes)
    inb = [0] * len(cfg.nodes)
    while _sweep(rows, out, out, inb):
        pass
    state.out = out
    state.inb = inb
    return state


def trace(cfg: Cfg, state: DataflowState, rounds: int) -> list[list[int]]:
    """Per-round OUT snapshots of synchronous full sweeps; snapshot 0 is all zeros."""
    return list(trace_rounds(cfg, state, rounds))


def trace_rounds(cfg: Cfg, state: DataflowState, rounds: int) -> Iterator[list[int]]:
    """``trace``'s snapshots one at a time, each computed when it is asked for.

    ``rounds`` is checked here, before the first snapshot, so a caller that
    writes snapshots as they come writes nothing for an invalid count. A
    snapshot is never changed after it is yielded.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if rounds > MAX_TRACE_ROUNDS:
        raise ValueError(f"rounds must be <= {MAX_TRACE_ROUNDS}, got {rounds}")
    rows = _rows(cfg, state, range(len(cfg.nodes)))

    def snapshots() -> Iterator[list[int]]:
        snapshot = [0] * len(cfg.nodes)
        inb = [0] * len(cfg.nodes)  # a trace reports OUT only
        yield snapshot
        for _ in range(rounds):
            out = snapshot.copy()
            _sweep(rows, snapshot, out, inb)
            snapshot = out
            yield snapshot

    return snapshots()


def analyze(cfg: Cfg) -> tuple[list[Definition], DataflowState]:
    """GEN/KILL plus the round-robin fixpoint in one call."""
    definitions, state = compute_gen_kill(cfg)
    return definitions, solve(cfg, state)
