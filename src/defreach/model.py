"""Graph network over CFGs: input projection, message-passing rounds
(aggregate MLP over predecessor states + GRU update), attention-pooled
readout, dense classifier. Training is Adam with decoupled weight decay,
mini-batches built as disjoint-union graphs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import kernels
from . import tensor as T
from .cfg import Cfg, parse_json
from .embedding import PROPERTIES, RESERVED_SLOTS, Vocabulary, encode
from .harness import classify, compute_metrics  # noqa: F401  (model.classify is part of this module's API)

# The most message-passing steps a config may ask for. Every forward runs
# config.steps rounds, so without a bound a checkpoint could keep predict
# running for hours. The paper and the defaults use 5.
MAX_STEPS = 64


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
        for name in ("hidden", "steps", "output_layers", "batch_size", "k"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is not a count
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("learning_rate", "l2_weight"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.hidden < 1 or self.output_layers < 1:
            raise ValueError("hidden and output_layers must be >= 1")
        if not 0 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [0, {MAX_STEPS}], got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.l2_weight < math.inf:
            raise ValueError(f"l2_weight must be finite and >= 0, got {self.l2_weight}")
        if not (isinstance(self.mask, list) and self.mask and all(p in PROPERTIES for p in self.mask)):
            raise ValueError(f"invalid feature mask {self.mask}")

    @property
    def feature_width(self) -> int:
        return len(PROPERTIES) * (self.k + RESERVED_SLOTS)

    def mask_dict(self) -> dict[str, bool]:
        return {p: p in self.mask for p in PROPERTIES}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's (rows, cols), in the order ``init_params`` draws
    them: a layer's ``_w`` weight, then its (1, cols) ``_b`` bias; the GRU's
    state weights ``gru_u*_w`` have no bias."""
    h = config.hidden
    shapes = {"proj_w": (config.feature_width, h), "proj_b": (1, h), "agg_w": (h, h), "agg_b": (1, h)}
    for gate in "zrh":
        shapes |= {f"gru_w{gate}_w": (h, h), f"gru_w{gate}_b": (1, h), f"gru_u{gate}_w": (h, h)}
    shapes |= {"att_gate_w": (h, 1), "att_gate_b": (1, 1), "att_feat_w": (h, h), "att_feat_b": (1, h)}
    for i in range(config.output_layers):
        out = 1 if i == config.output_layers - 1 else h
        shapes |= {f"cls{i}_w": (h, out), f"cls{i}_b": (1, out)}
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Weights ~ uniform(-s, s), s = sqrt(6 / (rows + cols)); zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, (rows, cols) in param_shapes(config).items():
        if name.endswith("_w"):
            s = math.sqrt(6.0 / (rows + cols))
            params[name] = rng.uniform(-s, s, size=(rows, cols))
        else:
            params[name] = np.zeros((rows, cols))
    return params


def _as_tensors(params: dict[str, np.ndarray], tape: T.Tape | None) -> dict[str, T.Tensor]:
    return {n: T.Tensor(v, tape) for n, v in params.items()}


class FlatParams(dict):
    """Named arrays that are views into one flat float64 buffer, ``flat``.

    The names keep the order of the shapes given. In the buffer the ``_w``
    weights come first, so that they are ``flat[:decayed]``. Training keeps
    its params, their gradients, Adam's moments and the best epoch's
    snapshot in buffers of one layout, so that each is one array to step,
    fill or copy.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        sizes = {n: math.prod(shape) for n, shape in shapes.items()}
        self.flat = np.zeros(sum(sizes.values()))
        self.decayed = sum(size for n, size in sizes.items() if n.endswith("_w"))
        offsets, at = {}, 0
        for n in sorted(shapes, key=lambda n: not n.endswith("_w")):  # stable: the weights, then the rest
            offsets[n] = at
            at += sizes[n]
        for n, shape in shapes.items():
            self[n] = self.flat[offsets[n] : offsets[n] + sizes[n]].reshape(shape)

    @classmethod
    def of(cls, params: dict[str, np.ndarray]) -> FlatParams:
        """A copy of ``params`` in one flat buffer."""
        store = cls({n: v.shape for n, v in params.items()})
        for n, v in params.items():
            store[n][...] = v
        return store

    def like(self) -> FlatParams:
        """Zeros in this layout."""
        return FlatParams({n: v.shape for n, v in self.items()})


@dataclass
class GraphBatch:
    """Disjoint union of CFGs: stacked slot features, offset edges, segment ids."""

    features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    num_graphs: int


def batch_graphs(graphs: list[tuple[np.ndarray, Cfg]], first: int = 0) -> GraphBatch:
    """The union of (slots, cfg) graphs, each checked as it is added: its
    slots a 2-D integer array (``tensor.check_slots``) with a column per
    property and a row per node, or a ValueError naming its position
    (``first`` for graphs[0]). The projection checks the slot values."""
    sizes, parts, offset = [], [], 0
    for i, (features, cfg) in enumerate(graphs, first):
        try:
            T.check_slots(features)
        except T.SlotError as e:
            raise ValueError(f"graph {i}: feature width: {e}") from e
        if features.shape[1] != len(PROPERTIES):
            raise ValueError(f"graph {i}: feature width: need {len(PROPERTIES)} slot columns, got {features.shape[1]}")
        n = len(cfg.nodes)
        if features.shape[0] != n:
            raise ValueError(f"graph {i}: feature rows {features.shape[0]} != nodes {n}")
        sizes.append(n)
        parts.append(cfg.edge_array + offset if offset else cfg.edge_array)
        offset += n
    edges = np.concatenate(parts)
    return GraphBatch(
        features=np.concatenate([features for features, _ in graphs], axis=0),
        src=edges[:, 0],
        dst=edges[:, 1],
        seg=np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
        num_graphs=len(graphs),
    )


# tensor.message_step's weights, in T.StepWeights' argument order: the
# aggregate layer's weight and bias, then per GRU gate z, r, h the input
# weights, the state weights and the bias.
STEP_PARAMS = (
    "agg_w", "agg_b",
    "gru_wz_w", "gru_uz_w", "gru_wz_b",
    "gru_wr_w", "gru_ur_w", "gru_wr_b",
    "gru_wh_w", "gru_uh_w", "gru_wh_b",
)


def _step_weights(pt: dict[str, T.Tensor]) -> T.StepWeights:
    return T.StepWeights(*[pt[name] for name in STEP_PARAMS])


def forward_batch(pt: dict[str, T.Tensor], batch: GraphBatch, config: ModelConfig,
                  weights: T.StepWeights | None = None) -> T.Tensor:
    """Graph-level logits, shape (num_graphs, 1). ``weights`` are the message
    steps' weights of ``pt`` prepared once; without them they are prepared
    here, for this forward."""
    h = T.project(batch.features, pt["proj_w"], pt["proj_b"])
    if weights is None:
        weights = _step_weights(pt)
    # the batch's scatter positions, built once for every step's forward and
    # backward; the rules on a tape keep them until the tape goes
    edges = kernels.Edges(batch.src, batch.dst, h.shape[1])
    for _ in range(config.steps):
        h = T.message_step(h, edges, weights)
    y = T.readout(h, pt["att_gate_w"], pt["att_gate_b"], pt["att_feat_w"], pt["att_feat_b"],
                  batch.seg, batch.num_graphs)
    for i in range(config.output_layers):
        y = T.matmul(y, pt[f"cls{i}_w"], bias=pt[f"cls{i}_b"])
        if i < config.output_layers - 1:
            y = T.relu(y)
    return y


def forward_probs(pt: dict[str, T.Tensor], batch: GraphBatch, config: ModelConfig,
                  weights: T.StepWeights | None = None) -> T.Tensor:
    return T.sigmoid(forward_batch(pt, batch, config, weights))


def infer(
    params: dict[str, np.ndarray],
    graphs: list[tuple[np.ndarray, Cfg]],
    config: ModelConfig,
) -> np.ndarray:
    """Inference probability per (slots, cfg) graph, config.batch_size graphs per forward."""
    return _infer(_as_tensors(params, None), graphs, config)


def _infer(pt: dict[str, T.Tensor], graphs: list[tuple[np.ndarray, Cfg]], config: ModelConfig,
           weights: T.StepWeights | None = None) -> np.ndarray:
    """``infer`` with the params already wrapped as off-tape tensors, and
    their step weights prepared when ``weights`` is given."""
    try:
        probs = [
            forward_probs(pt, batch_graphs(graphs[lo : lo + config.batch_size], lo), config, weights).data[:, 0]
            for lo in range(0, len(graphs), config.batch_size)
        ]
    except T.SlotError as e:
        raise ValueError(f"feature width: {e}") from e
    return np.concatenate(probs) if probs else np.zeros(0)


def bce_logits(logits: T.Tensor, labels: np.ndarray) -> T.Tensor:
    """Saturation-safe mean cross-entropy from logits:
    softplus(-x) + (1 - y) * x, averaged over the batch."""
    one_minus_y = T.Tensor(1.0 - labels.reshape(logits.shape))  # off the tape: labels get no gradient
    per = T.add(T.softplus(T.scale(logits, -1.0)), T.hadamard(one_minus_y, logits))
    return T.scale(T.sum_all(per), 1.0 / logits.shape[0])


class Adam:
    """Adam with decoupled weight decay on the weights (the ``_w`` params).

    It steps ``FlatParams`` in place: ``m`` and ``v`` have the params'
    layout, and ``step`` takes gradients in that layout too (``like()``).
    A step is a fixed number of whole-buffer ops, whatever the number of
    params, on one preallocated scratch buffer and on the gradients, which
    it overwrites with the update once the moments have read them; the
    decay is one slice. Each expression keeps its order of operations, so
    every entry gets the arithmetic of a per-param step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: FlatParams, lr: float, weight_decay: float):
        self.lr, self.wd = lr, weight_decay
        self.m, self.v = params.like(), params.like()
        self._s = np.empty_like(params.flat)
        self.t = 0

    def step(self, params: FlatParams, grads: FlatParams) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        p, g, m, v, s = params.flat, grads.flat, self.m.flat, self.v.flat, self._s
        # v = b2 * v + (1 - b2) * g * g
        np.multiply(1.0 - self.beta2, g, out=s)
        s *= g
        v *= self.beta2
        v += s
        # m = b1 * m + (1 - b1) * g; g is not needed again, and holds the update
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=g)
        # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p), the decay on weights only
        u = g
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        np.divide(np.divide(m, bc1, out=s), u, out=u)
        w = params.decayed
        u[:w] += np.multiply(self.wd, p[:w], out=s[:w])
        u *= self.lr
        p -= u


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
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if not train_set:
        raise ValueError("empty training split")
    if vocab.k != config.k:
        raise ValueError(f"vocabulary k={vocab.k} does not match config k={config.k}")
    mask = config.mask_dict()
    train_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in train_set]
    train_labels = np.array([lbl for _, lbl in train_set], dtype=np.float64)
    valid_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in valid_set]
    valid_labels = [lbl for _, lbl in valid_set]

    params = FlatParams.of(init_params(config, seed))
    # validation's view of params: Adam updates the arrays in place, so these
    # tensors see every step without being wrapped again
    wrapped = _as_tensors(params, None)
    grads = params.like()
    into = list(grads.values())  # where gradients writes each param's gradient
    opt = Adam(params, config.learning_rate, config.l2_weight)
    rng = np.random.default_rng(seed)
    order = np.arange(len(train_set))

    best_f1, best_epoch, best_params = -1.0, 0, FlatParams.of(params)
    history: list[EpochStats] = []
    since_best = 0
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        try:
            for step, lo in enumerate(range(0, len(order), config.batch_size), 1):
                idx = order[lo : lo + config.batch_size]
                batch = batch_graphs([train_graphs[i] for i in idx])
                labels = train_labels[idx].reshape(-1, 1)
                pt = _as_tensors(params, T.Tape())
                logits = forward_batch(pt, batch, config)
                # Rebinding obj frees the previous step's tape before this step's
                # backward, so its blocks are reused; freeing a tape right after
                # its own backward cost about 12% at k=20 (glibc trims the heap top).
                obj = bce_logits(logits, labels)
                T.gradients(obj, list(pt.values()), into)
                opt.step(params, grads)
                epoch_loss += obj.item()
            probs = _infer(wrapped, valid_graphs, config)
        except T.TensorError as e:  # a non-finite value in this step or in validation after it
            raise T.TensorError(f"training diverged at epoch {epoch}, step {step}: {e}") from e
        f1 = compute_metrics(probs.tolist(), valid_labels).f1 if valid_labels else 0.0
        history.append(EpochStats(epoch, epoch_loss / step, f1))
        if f1 > best_f1:
            best_f1, best_epoch = f1, epoch
            np.copyto(best_params.flat, params.flat)
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
    # json.dumps encodes in one C call; json.dump streams through the pure-Python encoder
    with open(path, "w") as f:
        f.write(json.dumps(doc))
        f.write("\n")


@dataclass
class Checkpoint:
    """A trained model for predicting: its params, which must not change once
    it is constructed, its config and its vocabulary.

    What every predict needs from them is derived once, here: the params
    wrapped as off-tape tensors, the message steps' weights prepared with
    the update and reset gates stacked (``tensor.StepWeights``, a copy, so
    a change to ``params`` would not reach it) and the config's feature
    mask.
    """

    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: Vocabulary
    best_epoch: int
    tensors: dict[str, T.Tensor] = field(init=False, repr=False, compare=False)
    weights: T.StepWeights = field(init=False, repr=False, compare=False)
    mask: dict[str, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tensors = _as_tensors(self.params, None)
        self.weights = _step_weights(self.tensors)
        self.mask = self.config.mask_dict()


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint and its vocabulary, checking that the params have
    exactly the names and shapes ``param_shapes(config)`` gives and finite
    values, and that the vocabulary's ``k`` is the config's."""
    with open(path) as f:
        doc = parse_json(f.read(), f"checkpoint {path}")
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object")
    if doc.get("version") != 1:
        raise ValueError(f"checkpoint {path}: unsupported version {doc.get('version')!r}")
    for name in ("config", "vocab_path", "params", "best_epoch"):
        if name not in doc:
            raise ValueError(f"checkpoint {path} has no {name!r} field")
    names = [f.name for f in fields(ModelConfig)]
    if not isinstance(doc["config"], dict) or not doc["config"].keys() <= set(names):
        raise ValueError(f"checkpoint {path}: config must be an object with fields among {', '.join(names)}")
    try:
        config = ModelConfig(**doc["config"])
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: config: {e}") from e
    stored = doc["params"]
    # param_shapes lists two params per output layer: a config with more
    # layers than the stored params could hold is refused before it is listed
    if not isinstance(stored, dict) or 2 * config.output_layers > len(stored):
        raise ValueError(f"checkpoint {path}: params must be an object with one record per param")
    shapes = param_shapes(config)
    if stored.keys() != shapes.keys():
        missing, extra = sorted(shapes.keys() - stored.keys()), sorted(stored.keys() - shapes.keys())
        raise ValueError(f"checkpoint {path}: params do not fit the config: missing {missing}, extra {extra}")
    params = {}
    for name, shape in shapes.items():
        rec = stored[name]
        if not (isinstance(rec, dict) and rec.get("shape") == list(shape)):
            raise ValueError(f"checkpoint {path}: param {name} must have shape {list(shape)}")
        try:
            data = np.array(rec.get("data"), dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"checkpoint {path}: param {name} data is not a list of numbers: {e}") from e
        if data.shape != (shape[0] * shape[1],):
            raise ValueError(f"checkpoint {path}: param {name} needs {shape[0] * shape[1]} values")
        if not np.isfinite(data).all():  # json reads NaN, Infinity and 1e400
            raise ValueError(f"checkpoint {path}: param {name} holds a non-finite value")
        params[name] = data.reshape(shape)
    vocab_path, best_epoch = doc["vocab_path"], doc["best_epoch"]
    if not isinstance(vocab_path, str):
        raise ValueError(f"checkpoint {path}: vocab_path must be a string, got {vocab_path!r}")
    if type(best_epoch) is not int or best_epoch < 0:
        raise ValueError(f"checkpoint {path}: best_epoch must be an int >= 0, got {best_epoch!r}")
    if not os.path.isabs(vocab_path):
        vocab_path = os.path.join(os.path.dirname(os.path.abspath(path)), vocab_path)
    with open(vocab_path) as f:
        vocab = Vocabulary.from_json(f.read(), vocab_path)
    if vocab.k != config.k:
        raise ValueError(
            f"vocabulary {vocab_path} (k={vocab.k}) does not match checkpoint {path} (k={config.k})"
        )
    return Checkpoint(params=params, config=config, vocab=vocab, best_epoch=best_epoch)


def predict_many(ckpt: Checkpoint, cfgs: list[Cfg]) -> np.ndarray:
    """Probability per CFG: each encoded with the checkpoint's vocabulary and
    feature mask, then inferred with its params wrapped and its step weights
    prepared once."""
    graphs = [(encode(cfg, ckpt.vocab, ckpt.mask), cfg) for cfg in cfgs]
    return _infer(ckpt.tensors, graphs, ckpt.config, ckpt.weights)


def predict(ckpt: Checkpoint, cfg: Cfg) -> float:
    return float(predict_many(ckpt, [cfg])[0])
