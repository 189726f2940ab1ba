"""Per-node abstract embedding of definitions against top-k vocabularies.

Each definition contributes four properties: the API called, the declared
datatype, the first constant, and the first operator of the defining
expression. ``_property_values`` is the one place they are read off a
statement: ``build_vocabulary`` counts them and ``encode`` looks them up.
A vocabulary ranks the k most frequent values per property over a
training corpus; each property owns a block of k + 2 one-hot columns
(slot 0 = NONE, slot 1 = UNKNOWN, slots 2..k+1 = ranked values).
``encode`` returns each node's hot column per property, its slot index
``j * (k + 2) + slot``, rather than the dense row: -1 marks a masked
property and every column of a non-definition node. ``one_hot`` renders
the dense 0/1 rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cfg import Cfg, Statement, parse_json

PROPERTIES = ("api", "datatype", "constant", "operator")
SLOT_NONE = 0
SLOT_UNKNOWN = 1
RESERVED_SLOTS = 2


def _property_values(stmt: Statement) -> tuple[str | None, str | None, str | None, str | None]:
    """A definition's four values in PROPERTIES order: the callee, the
    declared type, the first constant and the first operator, None where
    the statement has none. Private, so perfbench's tracer, which wraps
    every public function, does not time each definition on its own."""
    return (
        stmt.callee,
        stmt.decl_type,
        stmt.constants[0] if stmt.constants else None,
        stmt.operators[0] if stmt.operators else None,
    )


@dataclass
class Vocabulary:
    k: int
    ranks: dict[str, list[str]]  # property -> values in rank order; fixed once constructed
    # per property, in PROPERTIES order: {None: the block's NONE column, ranked
    # value: its column}; any other value takes the block's UNKNOWN column,
    # which ``unknown`` holds per property
    columns: list[dict] = field(init=False, repr=False, compare=False)
    unknown: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # a copy, so that changing the caller's dict or lists cannot desync ``columns``
        self.ranks = {prop: list(self.ranks.get(prop, [])) for prop in PROPERTIES}
        for prop, values in self.ranks.items():
            if len(values) > self.k:
                raise ValueError(f"{prop} rank list longer than k={self.k}")
            if len(set(values)) != len(values):
                raise ValueError(f"{prop} rank list has duplicates")
        block = self.k + RESERVED_SLOTS  # property j's block starts at column j * block
        self.columns = [
            {None: j * block + SLOT_NONE,
             **{v: j * block + RESERVED_SLOTS + i for i, v in enumerate(self.ranks[prop])}}
            for j, prop in enumerate(PROPERTIES)
        ]
        self.unknown = tuple(j * block + SLOT_UNKNOWN for j in range(len(PROPERTIES)))

    @property
    def row_width(self) -> int:
        return len(PROPERTIES) * (self.k + RESERVED_SLOTS)

    def to_json(self) -> str:
        return json.dumps({"k": self.k, **self.ranks}, indent=2) + "\n"

    @staticmethod
    def from_json(document: str, source: str = "vocabulary") -> "Vocabulary":
        doc = parse_json(document, source)
        ranks = {p: doc.get(p, []) for p in PROPERTIES} if isinstance(doc, dict) else None
        if ranks is None or type(doc.get("k")) is not int or not all(
            isinstance(vs, list) and all(isinstance(v, str) for v in vs) for vs in ranks.values()
        ):
            raise ValueError(f"{source} must be a JSON object with an integer 'k' and a list of strings per property")
        try:
            return Vocabulary(k=doc["k"], ranks=ranks)
        except ValueError as e:
            raise ValueError(f"{source}: {e}") from e


def build_vocabulary(corpus: list[Cfg], k: int) -> Vocabulary:
    """Rank property values by (frequency desc, value asc) over the corpus."""
    counts = {p: Counter() for p in PROPERTIES}
    for cfg in corpus:
        for stmt in cfg.nodes:
            if stmt.is_definition():
                for prop, value in zip(PROPERTIES, _property_values(stmt)):
                    if value is not None:
                        counts[prop][value] += 1
    ranks = {}
    for prop in PROPERTIES:
        ordered = sorted(counts[prop].items(), key=lambda kv: (-kv[1], kv[0]))
        ranks[prop] = [value for value, _ in ordered[:k]]
    return Vocabulary(k=k, ranks=ranks)


def parse_mask(spec: str) -> dict[str, bool]:
    """Parse a comma-separated property list into an on/off mask."""
    wanted = {p.strip() for p in spec.split(",") if p.strip()}
    unknown = wanted - set(PROPERTIES)
    if unknown:
        raise ValueError(f"unknown properties in mask: {sorted(unknown)}")
    if not wanted:
        raise ValueError("mask must enable at least one property")
    return {p: p in wanted for p in PROPERTIES}


FULL_MASK = {p: True for p in PROPERTIES}


def encode(cfg: Cfg, vocab: Vocabulary, mask: dict[str, bool] | None = None) -> np.ndarray:
    """(nodes, 4) int64 hot columns, property j in column j; -1 where masked or no definition."""
    if mask is None:
        mask = FULL_MASK
    masked = [not mask.get(p) for p in PROPERTIES]
    api, datatype, constant, operator = (column.get for column in vocab.columns)
    unknown_api, unknown_datatype, unknown_constant, unknown_operator = vocab.unknown
    none = (-1,) * len(PROPERTIES)
    flat: list[int] = []
    for stmt in cfg.nodes:
        if stmt.is_definition():
            a, t, c, o = _property_values(stmt)
            flat += (api(a, unknown_api), datatype(t, unknown_datatype),
                     constant(c, unknown_constant), operator(o, unknown_operator))
        else:
            flat += none
    slots = np.array(flat, dtype=np.int64).reshape(len(cfg.nodes), len(PROPERTIES))
    if any(masked):
        slots[:, masked] = -1
    return slots


def one_hot(slots: np.ndarray, width: int) -> np.ndarray:
    """Dense uint8 rows of the given width with a 1 at every slot >= 0."""
    rows = np.zeros((slots.shape[0], width), dtype=np.uint8)
    node, j = np.nonzero(slots >= 0)
    rows[node, slots[node, j]] = 1
    return rows
