"""Per-node abstract embedding of definitions against top-k vocabularies.

Each definition contributes four properties: the API called, the declared
datatype, the first constant, and the first operator of the defining
expression. A vocabulary ranks the k most frequent values per property
over a training corpus; each property owns a block of k + 2 one-hot
columns (slot 0 = NONE, slot 1 = UNKNOWN, slots 2..k+1 = ranked values).
``encode`` returns each node's hot column per property, its slot index
``j * (k + 2) + slot``, rather than the dense row: -1 marks a masked
property and every column of a non-definition node. ``one_hot`` renders
the dense 0/1 rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cfg import Cfg, parse_json

PROPERTIES = ("api", "datatype", "constant", "operator")
SLOT_NONE = 0
SLOT_UNKNOWN = 1
RESERVED_SLOTS = 2


@dataclass(frozen=True)
class DefinitionProfile:
    api: str | None = None
    datatype: str | None = None
    constant: str | None = None
    operator: str | None = None

    def get(self, prop: str) -> str | None:
        return getattr(self, prop)


def extract_profiles(cfg: Cfg) -> dict[int, DefinitionProfile]:
    """Profile every definition-kind node of the graph."""
    profiles = {}
    for node, stmt in enumerate(cfg.nodes):
        if stmt.is_definition():
            profiles[node] = DefinitionProfile(
                api=stmt.callee,
                datatype=stmt.decl_type,
                constant=stmt.constants[0] if stmt.constants else None,
                operator=stmt.operators[0] if stmt.operators else None,
            )
    return profiles


@dataclass
class Vocabulary:
    k: int
    ranks: dict[str, list[str]]  # property -> values in rank order

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for prop in PROPERTIES:
            values = self.ranks.setdefault(prop, [])
            if len(values) > self.k:
                raise ValueError(f"{prop} rank list longer than k={self.k}")
            if len(set(values)) != len(values):
                raise ValueError(f"{prop} rank list has duplicates")

    def slot(self, prop: str, value: str | None) -> int:
        """Block-local hot slot for a property value."""
        if value is None:
            return SLOT_NONE
        try:
            return RESERVED_SLOTS + self.ranks[prop].index(value)
        except ValueError:
            return SLOT_UNKNOWN

    @property
    def row_width(self) -> int:
        return len(PROPERTIES) * (self.k + RESERVED_SLOTS)

    def to_json(self) -> str:
        doc = {"k": self.k}
        doc.update({p: list(self.ranks[p]) for p in PROPERTIES})
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(document: str, source: str = "vocabulary") -> "Vocabulary":
        doc = parse_json(document, source)
        ranks = {p: doc.get(p, []) for p in PROPERTIES} if isinstance(doc, dict) else None
        if ranks is None or not isinstance(doc.get("k"), int) or not all(
            isinstance(vs, list) and all(isinstance(v, str) for v in vs) for vs in ranks.values()
        ):
            raise ValueError(f"{source} must be a JSON object with an integer 'k' and a list of strings per property")
        return Vocabulary(k=doc["k"], ranks=ranks)


def build_vocabulary(corpus: list[Cfg], k: int) -> Vocabulary:
    """Rank property values by (frequency desc, value asc) over the corpus."""
    counts = {p: Counter() for p in PROPERTIES}
    for cfg in corpus:
        for profile in extract_profiles(cfg).values():
            for prop in PROPERTIES:
                value = profile.get(prop)
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
    if not any(mask.get(p) for p in PROPERTIES):
        raise ValueError("mask must enable at least one property")
    block = vocab.k + RESERVED_SLOTS
    slots = np.full((len(cfg.nodes), len(PROPERTIES)), -1, dtype=np.int64)
    for node, profile in extract_profiles(cfg).items():
        for j, prop in enumerate(PROPERTIES):
            if mask.get(prop):
                slots[node, j] = j * block + vocab.slot(prop, profile.get(prop))
    return slots


def one_hot(slots: np.ndarray, width: int) -> np.ndarray:
    """Dense uint8 rows of the given width with a 1 at every slot >= 0."""
    rows = np.zeros((slots.shape[0], width), dtype=np.uint8)
    node, j = np.nonzero(slots >= 0)
    rows[node, slots[node, j]] = 1
    return rows
