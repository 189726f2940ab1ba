"""Graph network over CFGs: input projection, message-passing rounds
(aggregate MLP over predecessor states + GRU update), attention-pooled
readout, dense classifier. Training is Adam with decoupled weight decay,
mini-batches built as disjoint-union graphs.
"""

from __future__ import annotations

import gc
import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .cfg import Cfg, parse_json
from .embedding import PROPERTIES, RESERVED_SLOTS, Vocabulary, encode


@dataclass
class ModelConfig:
    hidden: int = 32
    steps: int = 5
    output_layers: int = 3
    learning_rate: float = 1e-3
    l2_weight: float = 1e-2
    batch_size: int = 256
    k: int = 1000
    mask: list[str] = field(default_factory=lambda: list(PROPERTIES))

    def __post_init__(self):
        if self.hidden < 1 or self.output_layers < 1:
            raise ValueError("hidden and output_layers must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        bad = set(self.mask) - set(PROPERTIES)
        if bad or not self.mask:
            raise ValueError(f"invalid feature mask {self.mask}")

    @property
    def feature_width(self) -> int:
        return len(PROPERTIES) * (self.k + RESERVED_SLOTS)

    def mask_dict(self) -> dict[str, bool]:
        return {p: p in self.mask for p in PROPERTIES}


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Weights ~ uniform(-s, s), s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}

    def dense(name: str, fan_in: int, fan_out: int) -> None:
        s = math.sqrt(6.0 / (fan_in + fan_out))
        params[name + "_w"] = rng.uniform(-s, s, size=(fan_in, fan_out))
        params[name + "_b"] = np.zeros((1, fan_out))

    h = config.hidden
    dense("proj", config.feature_width, h)
    dense("agg", h, h)
    for gate in ("z", "r", "h"):
        dense(f"gru_w{gate}", h, h)
        s = math.sqrt(6.0 / (h + h))
        params[f"gru_u{gate}_w"] = rng.uniform(-s, s, size=(h, h))
    dense("att_gate", h, 1)
    dense("att_feat", h, h)
    for i in range(config.output_layers):
        out = 1 if i == config.output_layers - 1 else h
        dense(f"cls{i}", h, out)
    return params


def _as_tensors(params: dict[str, np.ndarray], tape: T.Tape | None) -> dict[str, T.Tensor]:
    return {n: T.Tensor(v, tape) for n, v in params.items()}


@dataclass
class GraphBatch:
    """Disjoint union of CFGs: stacked slot features, offset edges, segment ids."""

    features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    num_graphs: int


def batch_graphs(graphs: list[tuple[np.ndarray, Cfg]]) -> GraphBatch:
    sizes = [len(cfg.nodes) for _, cfg in graphs]
    for (features, _), n in zip(graphs, sizes):
        if features.shape[0] != n:
            raise ValueError(f"feature rows {features.shape[0]} != nodes {n}")
    offsets = np.cumsum([0] + sizes[:-1])
    edges = np.concatenate([cfg.edge_array + off for (_, cfg), off in zip(graphs, offsets)])
    return GraphBatch(
        features=np.concatenate([features for features, _ in graphs], axis=0),
        src=edges[:, 0],
        dst=edges[:, 1],
        seg=np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
        num_graphs=len(graphs),
    )


def forward_batch(pt: dict[str, T.Tensor], batch: GraphBatch, config: ModelConfig) -> T.Tensor:
    """Graph-level logits, shape (num_graphs, 1)."""
    h = T.relu(T.add(T.embed_sum(batch.features, pt["proj_w"]), pt["proj_b"]))
    for _ in range(config.steps):
        summed = T.edge_gather_sum(h, batch.src, batch.dst)
        a = T.relu(T.add(T.matmul(summed, pt["agg_w"]), pt["agg_b"]))
        z = T.sigmoid(_gru_pre(pt, "z", a, h))
        r = T.sigmoid(_gru_pre(pt, "r", a, h))
        cand = T.tanh(
            T.add(
                T.add(T.matmul(a, pt["gru_wh_w"]), T.matmul(T.hadamard(r, h), pt["gru_uh_w"])),
                pt["gru_wh_b"],
            )
        )
        keep = T.add_const(T.scale(z, -1.0), 1.0)
        h = T.add(T.hadamard(keep, h), T.hadamard(z, cand))
    gate = T.sigmoid(T.add(T.matmul(h, pt["att_gate_w"]), pt["att_gate_b"]))
    feat = T.tanh(T.add(T.matmul(h, pt["att_feat_w"]), pt["att_feat_b"]))
    pooled = T.segment_sum(T.scale_rows(feat, gate), batch.seg, batch.num_graphs)
    y = pooled
    for i in range(config.output_layers):
        y = T.add(T.matmul(y, pt[f"cls{i}_w"]), pt[f"cls{i}_b"])
        if i < config.output_layers - 1:
            y = T.relu(y)
    return y


def forward_probs(pt: dict[str, T.Tensor], batch: GraphBatch, config: ModelConfig) -> T.Tensor:
    return T.sigmoid(forward_batch(pt, batch, config))


def _gru_pre(pt: dict[str, T.Tensor], gate: str, a: T.Tensor, h: T.Tensor) -> T.Tensor:
    return T.add(
        T.add(T.matmul(a, pt[f"gru_w{gate}_w"]), T.matmul(h, pt[f"gru_u{gate}_w"])),
        pt[f"gru_w{gate}_b"],
    )


def infer(
    params: dict[str, np.ndarray],
    graphs: list[tuple[np.ndarray, Cfg]],
    config: ModelConfig,
) -> np.ndarray:
    """Inference probability per (slots, cfg) graph, config.batch_size graphs per forward."""
    for features, _ in graphs:
        try:
            T.check_slots(features, params["proj_w"].shape[0])
        except T.TensorError as e:
            raise ValueError(f"feature width: {e}") from e
        if features.shape[1] != len(PROPERTIES):
            raise ValueError(f"feature width: need {len(PROPERTIES)} slot columns, got {features.shape[1]}")
    pt = _as_tensors(params, None)
    probs = [
        forward_probs(pt, batch_graphs(graphs[lo : lo + config.batch_size]), config).data[:, 0]
        for lo in range(0, len(graphs), config.batch_size)
    ]
    return np.concatenate(probs) if probs else np.zeros(0)


def bce_logits(logits: T.Tensor, labels: np.ndarray) -> T.Tensor:
    """Saturation-safe mean cross-entropy from logits:
    softplus(-x) + (1 - y) * x, averaged over the batch."""
    y = T.Tensor(labels.reshape(logits.shape))  # off the tape: labels get no gradient
    one_minus_y = T.add_const(T.scale(y, -1.0), 1.0)
    per = T.add(T.softplus(T.scale(logits, -1.0)), T.hadamard(one_minus_y, logits))
    return T.scale(T.sum_all(per), 1.0 / logits.shape[0])


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.wd = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(v) for n, v in params.items()}
        self.v = {n: np.zeros_like(v) for n, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for n, g in grads.items():
            self.m[n] = self.beta1 * self.m[n] + (1.0 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1.0 - self.beta2) * g * g
            update = (self.m[n] / bc1) / (np.sqrt(self.v[n] / bc2) + self.eps)
            if n.endswith("_w"):  # decoupled decay, weights only
                update = update + self.wd * params[n]
            params[n] -= self.lr * update


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_f1: float


def train_model(
    config: ModelConfig,
    train_set: list[tuple[Cfg, int]],
    valid_set: list[tuple[Cfg, int]],
    vocab: Vocabulary,
    seed: int,
    epochs: int,
    patience: int = 10,
) -> tuple[dict[str, np.ndarray], int, list[EpochStats]]:
    """Returns (best params, best epoch, per-epoch history)."""
    from .harness import compute_metrics  # local import avoids a module cycle

    if not train_set:
        raise ValueError("empty training split")
    # A tape that a caller recorded and never cleared is a reference cycle
    # (a record holds its output tensor, whose ``tape`` holds the record),
    # so its activations stay in the heap until the collector's oldest
    # generation happens to run. Collecting them here lets this run reuse
    # that memory instead of faulting in fresh pages by an amount that
    # varied from run to run. This run's own tapes never wait for the
    # collector: each step clears the previous step's tape, so at most two
    # steps' tapes are live.
    gc.collect()
    mask = config.mask_dict()
    train_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in train_set]
    train_labels = np.array([lbl for _, lbl in train_set], dtype=np.float64)
    valid_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in valid_set]
    valid_labels = [lbl for _, lbl in valid_set]

    params = init_params(config, seed)
    opt = Adam(params, config.learning_rate, config.l2_weight)
    rng = np.random.default_rng(seed)
    order = np.arange(len(train_set))

    best_f1, best_epoch, best_params = -1.0, 0, {n: v.copy() for n, v in params.items()}
    history: list[EpochStats] = []
    since_best = 0
    last_tape = T.Tape()
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        nbatch = 0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            batch = batch_graphs([train_graphs[i] for i in idx])
            labels = train_labels[idx].reshape(-1, 1)
            tape = T.Tape()
            pt = _as_tensors(params, tape)
            logits = forward_batch(pt, batch, config)
            obj = bce_logits(logits, labels)
            # Cleared here, before this step's backward: the freed blocks
            # then lie below this step's live tape and are reused. Clearing
            # a tape right after its own backward frees the top of the heap,
            # which glibc hands back to the OS and faults in again every
            # step (about 12% slower training at k=20).
            last_tape.clear()
            last_tape = tape
            grads = T.gradients(obj, list(pt.values()))
            opt.step(params, dict(zip(pt.keys(), grads)))
            epoch_loss += obj.item()
            nbatch += 1

        last_tape.clear()
        probs = infer(params, valid_graphs, config)
        f1 = compute_metrics(probs.tolist(), valid_labels).f1 if valid_labels else 0.0
        history.append(EpochStats(epoch, epoch_loss / max(nbatch, 1), f1))
        if f1 > best_f1:
            best_f1, best_epoch = f1, epoch
            best_params = {n: v.copy() for n, v in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return best_params, best_epoch, history


# -- checkpointing -----------------------------------------------------

def save_checkpoint(
    path: str,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    vocab_path: str,
    best_epoch: int,
) -> None:
    doc = {
        "version": 1,
        "config": asdict(config),
        "vocab_path": vocab_path,
        "params": {
            n: {"shape": list(v.shape), "data": v.ravel().tolist()} for n, v in params.items()
        },
        "best_epoch": best_epoch,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: Vocabulary
    best_epoch: int


def load_checkpoint(path: str) -> Checkpoint:
    with open(path) as f:
        doc = parse_json(f.read(), f"checkpoint {path}")
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    for name in ("config", "vocab_path", "params", "best_epoch"):
        if name not in doc:
            raise ValueError(f"checkpoint {path} has no {name!r} field")
    try:
        config = ModelConfig(**doc["config"])
        params = {
            n: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
            for n, rec in doc["params"].items()
        }
    except (TypeError, KeyError, AttributeError, ValueError) as e:  # any malformed field
        raise ValueError(f"checkpoint {path} has a malformed config or params: {e!r}") from e
    vocab_path = doc["vocab_path"]
    if not os.path.isabs(vocab_path):
        vocab_path = os.path.join(os.path.dirname(os.path.abspath(path)), vocab_path)
    with open(vocab_path) as f:
        vocab = Vocabulary.from_json(f.read(), vocab_path)
    proj_w = params.get("proj_w")
    width = proj_w.shape[0] if proj_w is not None and proj_w.ndim == 2 else None
    if vocab.k != config.k or width != vocab.row_width:
        raise ValueError(
            f"vocabulary {vocab_path} (k={vocab.k}, input width {vocab.row_width}) does not match "
            f"checkpoint {path} (k={config.k}, input width {width})"
        )
    return Checkpoint(params=params, config=config, vocab=vocab, best_epoch=doc["best_epoch"])


def predict(ckpt: Checkpoint, cfg: Cfg) -> float:
    features = encode(cfg, ckpt.vocab, ckpt.config.mask_dict())
    return float(infer(ckpt.params, [(features, cfg)], ckpt.config)[0])


def classify(prob: float, threshold: float = 0.5) -> int:
    return int(prob >= threshold)
