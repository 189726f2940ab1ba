"""The benchmark's three workloads: set-up, the measured closed loop, and checks.

Each workload is one caller issuing one request at a time (a closed loop, no
concurrency). Inputs come from the seed alone; the program only sees them.

* ``train-k20`` -- the acceptance-gate shape: 770 synthetic examples, mixed
  500/70/200 split, undersampled, k=20, batch 32. Many small batches and an
  88-column input, so per-op tape overhead, the ``np.add.at`` scatter and the
  per-graph validation loop dominate.
* ``train-k1000`` -- the same pipeline at the CLI defaults, k=1000 and batch
  256: 4008-column one-hot features make batch assembly, the projection
  matmul and the tapes the collector holds dominate time and memory.
* ``scan-large`` -- parse, analyse and predict functions of 58..1250 CFG
  nodes one at a time. Parser, CFG and dataflow do most of the work; the top
  of the size range passes the reverse-postorder recursion limit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import calibrate
import compose
import spans
from defreach import embedding as E
from defreach import harness as H
from defreach import model as M
from defreach import parser as P
from defreach import tensor as T

SETUP_REPEATS = 5
# Training rounds use model seeds seed, seed+1, ..., and test_f1 is the median
# over them: at k=1000 eight epochs leave the model barely trained, and one
# initialisation's F1 swings from 0.2 to 0.8 with the seed.
QUALITY_SEEDS = 3
# Each round predicts the test set over and over for this long, so that the
# predict metrics average over seconds of the machine's varying speed rather
# than over one 0.3 s pass.
PREDICT_SECONDS = 2.0
TOLERANCE = 1e-12  # batched vs single-graph inference (ROADMAP invariant)
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
SMOOTH_PCT = 5  # percentiles are the mean of the samples within this many percent of them

# train-*: the acceptance-gate corpus and split.
CORPUS = 770
FRACTIONS = (500 / 770, 70 / 770, 200 / 770)

# scan-large: composed functions and the briefly trained checkpoint.
SCAN_FUNCTIONS = 40
# A sweep covers this many function sets, drawn with the same sizes from
# different skeletons: distinct functions average out what cost still
# varies with content, where repeating one set cannot.
SCAN_DRAWS = 2
# Roughly 60..1300 nodes. Reverse postorder recurses once per node on the
# deepest DFS path, about 0.92 of the nodes here, and overflows past ~987
# frames. This grid puts the sizes nearest that limit at ~1030 and ~1115
# nodes, so the same two functions overflow for every seed. With 60..1300,
# one function sat at ~1075 nodes and overflowed for half of the seeds,
# moving scan_nodes_per_s by 30% as it turned from a fast failure into a
# slow success.
SCAN_MIN_NODES, SCAN_MAX_NODES = 58, 1250
SCAN_POOL = 400
# Function skeletons, the loops and sizes of the chunks in order, come from
# this fixed pool, so the i-th function costs about the same for every seed.
# Drawn from each seed's own pool, the function at the median size varied
# 1.6x in cost from seed to seed, and verdict_p50_ms with it.
SHAPE_SEED = 0
SCAN_TRAIN, SCAN_VALID = 200, 50
SCAN_K, SCAN_BATCH, SCAN_EPOCHS = 20, 32, 2

clock = time.perf_counter


@dataclass(frozen=True)
class TrainSpec:
    k: int
    batch_size: int
    epochs: int  # patience equals epochs, so every run trains exactly this long


WORKLOADS = {
    "train-k20": TrainSpec(k=20, batch_size=32, epochs=15),
    "train-k1000": TrainSpec(k=1000, batch_size=256, epochs=8),
    "scan-large": None,
}


class Unscaled:
    """Stands in for calibrate.Speed where raw times are wanted (the traced run)."""

    samples: list[float] = []
    stolen = 0.0

    def mark(self) -> int:
        return 0

    def due(self) -> bool:
        return False

    def factor(self, first: int, last: int) -> float:
        return 1.0


@dataclass
class Times:
    """The timed observations of a run, in one scale."""

    setup_s: list[float] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds; math.inf when failed
    predict_s: float = 0.0
    loop_s: float = 0.0  # time to verdict, summed over every attempt

    def add(self, pending: "Times", f: float) -> None:
        """Add ``pending`` with its times multiplied by ``f``."""
        self.setup_s += [s * f for s in pending.setup_s]
        self.train_rates += [r / f for r in pending.train_rates]
        self.latencies += [s * f for s in pending.latencies]
        self.predict_s += pending.predict_s * f
        self.loop_s += pending.loop_s * f


@dataclass
class Record:
    """What one run observed; end_to_end() turns it into metrics.

    A measured call is bracketed by start() and stop(), which returns its
    raw time without the time spent sampling the machine's speed inside it.
    The times a call records go into ``pending``, under the index of the
    last sample before the call started, until the next sample: settle()
    takes one and closes each pending entry as a segment, together with the
    indices of the first and last samples around it. finish() rescales
    every segment by the machine's speed over those samples into
    ``scaled``, and adds it unscaled to ``raw``.
    """

    speed: calibrate.Speed | Unscaled = field(default_factory=Unscaled)
    unit_samples: int = 0  # verdicts per pass or sweep; fixes the tail percentile
    pending: dict[int, Times] = field(default_factory=dict)  # by first sample
    current: Times = field(default_factory=Times)  # where the last call stopped records
    scaled: Times = field(default_factory=Times)
    raw: Times = field(default_factory=Times)
    predict_calls: int = 0
    ok_nodes: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that failed a check
    errors: Counter = field(default_factory=Counter)
    f1s: list[float] = field(default_factory=list)  # one per trained model, or per function set
    segments: list[tuple[Times, int, int]] = field(default_factory=list)  # times, samples around
    factors: list[float] = field(default_factory=list)  # one per segment, set by finish()

    def settle(self) -> None:
        """Take a speed sample and close what is pending. Called before and
        after each stretch of measured work, so its first and last calls are
        bracketed closely."""
        last = self.speed.mark()
        self.segments += [(times, first, last) for first, times in self.pending.items()]
        self.pending = {}

    def poll(self) -> None:
        """Between measured calls, or inside one: settle if a sample is due."""
        if self.speed.due():
            self.settle()

    def start(self) -> tuple[int, float, float]:
        return len(self.speed.samples) - 1, self.speed.stolen, clock()

    def stop(self, token: tuple[int, float, float]) -> float:
        now = clock()
        first, stolen, start = token
        self.current = self.pending.setdefault(first, Times())
        return now - start - (self.speed.stolen - stolen)

    def finish(self) -> None:
        self.scaled, self.raw, self.factors = Times(), Times(), []
        for times, first, last in self.segments:
            f = self.speed.factor(first, last)
            self.factors.append(f)
            self.scaled.add(times, f)
            self.raw.add(times, 1.0)

    def setup(self, seconds: float) -> None:
        self.current.setup_s.append(seconds)

    def trained(self, graphs: int, seconds: float) -> None:
        self.current.train_rates.append(graphs / seconds)

    def predicted(self, seconds: float) -> None:
        self.current.predict_s += seconds
        self.predict_calls += 1

    def verdict(self, seconds: float, nodes: int, ok: bool) -> None:
        self.attempted += 1
        self.current.loop_s += seconds
        if ok:
            self.current.latencies.append(seconds)
            self.ok_nodes += nodes
        else:
            self.failed += 1
            self.current.latencies.append(math.inf)

    def raised(self, exc: BaseException, seconds: float) -> None:
        self.attempted += 1
        self.failed += 1
        self.current.loop_s += seconds
        self.current.latencies.append(math.inf)
        self.errors[type(exc).__name__] += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)


def f1(verdicts: list[tuple[int, int]]) -> float:
    """F1 of (predicted, label) pairs, vulnerable being the positive class."""
    tp = sum(1 for p, y in verdicts if p and y)
    fp = sum(1 for p, y in verdicts if p and not y)
    fn = sum(1 for p, y in verdicts if y and not p)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def smoothed_percentile(values: list[float], pct: int) -> float:
    """The mean of the order statistics from percentile pct - h to pct + h,
    h = min(SMOOTH_PCT, (100 - pct) / 2), so the largest samples stay out.

    Neighbouring samples can come from functions whose costs differ by 20%,
    so a single order statistic jumps with the seed; the mean of its
    neighbourhood does not. A failure (math.inf) in the neighbourhood makes
    the result math.inf.
    """
    ordered = sorted(values)
    n = len(ordered)
    h = min(SMOOTH_PCT, (100 - pct) / 2)
    lo = max(0, math.floor((pct - h) * n / 100))
    hi = min(n, max(lo + 1, math.ceil((pct + h) * n / 100)))
    return math.fsum(ordered[lo:hi]) / (hi - lo)


def tail_percentile(unit_samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of one pass's samples beyond it."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / unit_samples)))


def timed_metrics(rec: Record, times: Times) -> dict:
    tail = tail_percentile(rec.unit_samples)
    return {
        "setup_s": (statistics.median(times.setup_s), "s"),
        "train_graphs_per_s": (statistics.median(times.train_rates), "graphs/s"),
        "predict_graphs_per_s": (rec.predict_calls / times.predict_s, "graphs/s"),
        "scan_nodes_per_s": (rec.ok_nodes / times.loop_s, "nodes/s"),
        "verdict_p50_ms": (smoothed_percentile(times.latencies, 50) * 1e3, "ms"),
        "verdict_tail_ms": (smoothed_percentile(times.latencies, tail) * 1e3, "ms"),
    }


def end_to_end(rec: Record) -> dict:
    timed = timed_metrics(rec, rec.scaled)
    return {
        "setup_s": timed["setup_s"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((rec.attempted - rec.failed) / rec.attempted, "ok/attempted"),
        "train_graphs_per_s": timed["train_graphs_per_s"],
        "predict_graphs_per_s": timed["predict_graphs_per_s"],
        "test_f1": (statistics.median(rec.f1s), "ratio"),
        "scan_nodes_per_s": timed["scan_nodes_per_s"],
        "verdict_p50_ms": timed["verdict_p50_ms"],
        "verdict_tail_ms": timed["verdict_tail_ms"],
    }


def details(rec: Record) -> dict:
    return {
        "failed_frac": rec.failed / rec.attempted,
        "verdict_tail_pct": tail_percentile(rec.unit_samples),
        "verdict_samples": len(rec.raw.latencies),
        "errors": dict(rec.errors),
        "wrong": rec.wrong[:20],
        "f1s": rec.f1s,
        "setup_runs_s": rec.scaled.setup_s,
        "train_rates": rec.scaled.train_rates,
        "speed_factor_median": statistics.median(rec.factors) if rec.factors else None,
        "kernel_ms_median": statistics.median(rec.speed.samples) * 1e3 if rec.speed.samples else None,
        "raw": {name: value for name, (value, _) in timed_metrics(rec, rec.raw).items()},
    }


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


# -- train-k20 / train-k1000 ---------------------------------------------

@dataclass
class TrainInputs:
    train: list
    valid: list
    test: list
    vocab: E.Vocabulary

    def fingerprint(self) -> str:
        return _digest(*(e.source for e in self.train + self.valid + self.test), self.vocab.to_json())


def train_setup(spec: TrainSpec, seed: int) -> TrainInputs:
    data = H.synth_generate(CORPUS, seed=seed)
    train, valid, test = H.split(data, "mixed", FRACTIONS, seed=seed)
    train = H.undersample(train, seed=seed)
    vocab = E.build_vocabulary([e.cfg for e in train], k=spec.k)
    return TrainInputs(train, valid, test, vocab)


def batched_probs(ckpt: M.Checkpoint, cfgs: list) -> np.ndarray:
    """One forward_probs over all graphs: the reference every predict must match."""
    mask = ckpt.config.mask_dict()
    batch = M.batch_graphs([(E.encode(cfg, ckpt.vocab, mask), cfg) for cfg in cfgs])
    pt = {name: T.Tensor(value) for name, value in ckpt.params.items()}
    return M.forward_probs(pt, batch, ckpt.config).data[:, 0]


def train_once(spec: TrainSpec, inputs: TrainInputs, seed: int, rec: Record):
    config = M.ModelConfig(k=spec.k, batch_size=spec.batch_size)
    rec.settle()
    token = rec.start()
    params, best_epoch, _ = M.train_model(
        config,
        [(e.cfg, e.label) for e in inputs.train],
        [(e.cfg, e.label) for e in inputs.valid],
        inputs.vocab,
        seed=seed,
        epochs=spec.epochs,
        patience=spec.epochs,
    )
    rec.trained(spec.epochs * len(inputs.train), rec.stop(token))
    rec.settle()
    ckpt = M.Checkpoint(params=params, config=config, vocab=inputs.vocab, best_epoch=best_epoch)
    return ckpt, batched_probs(ckpt, [e.cfg for e in inputs.test])


def predict_pass(ckpt, test: list, reference: np.ndarray, first: list | None, rec: Record) -> list:
    """Predict every test graph one at a time; each must match the batched row."""
    probs = []
    for i, e in enumerate(test):
        rec.poll()
        token = rec.start()
        try:
            prob = M.predict(ckpt, e.cfg)
        except Exception as exc:  # a raise is a failed verdict; keep measuring
            rec.raised(exc, rec.stop(token))
            probs.append(None)
            continue
        elapsed = rec.stop(token)
        rec.predicted(elapsed)
        ok = abs(prob - reference[i]) <= TOLERANCE and (first is None or prob == first[i])
        if not ok:
            rec.wrong.append(f"{e.id}: predict {prob!r} vs batched {reference[i]!r}")
        rec.verdict(elapsed, len(e.cfg.nodes), ok)
        probs.append(prob)
    return probs


@contextlib.contextmanager
def polled_training(rec: Record):
    """Let ``train_model`` sample the machine's speed at its optimiser steps.

    A training run lasts seconds, and the machine's speed changes within
    one; samples taken only before and after it misjudge it.
    """
    step = M.Adam.step

    def polled_step(self, *args, **kwargs):
        rec.poll()
        return step(self, *args, **kwargs)

    M.Adam.step = polled_step
    try:
        yield
    finally:
        M.Adam.step = step


def collect_garbage() -> None:
    """A full collection made by the benchmark, hidden from gc.callbacks and so from the trace."""
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks[:] = callbacks


def repeated_setup(make, times: int, rec: Record):
    """Set up ``times`` times (set-up time is reported as the median); all must agree."""
    inputs = None
    rec.settle()
    for _ in range(times):
        token = rec.start()
        repeat = make()
        rec.setup(rec.stop(token))
        rec.poll()
        if inputs is not None:
            rec.check(repeat.fingerprint() == inputs.fingerprint(), "set-up is not deterministic")
        inputs = repeat
    rec.settle()
    return inputs


def train_run(spec: TrainSpec, seed: int, seconds: float, rec: Record, setups: int, rounds: int) -> None:
    """Rounds of one training run and PREDICT_SECONDS of predict passes, until
    ``seconds`` have passed and at least ``rounds`` rounds have run.

    Round r trains with model seed ``seed + r % QUALITY_SEEDS``. A round that
    repeats a model seed must repeat that model's predictions exactly.
    """
    inputs = repeated_setup(lambda: train_setup(spec, seed), setups, rec)
    rec.unit_samples = len(inputs.test)
    seen: dict[int, list] = {}
    done = 0
    start = clock()
    while done < rounds or clock() - start < seconds:
        model_seed = seed + done % QUALITY_SEEDS
        ckpt, reference = train_once(spec, inputs, model_seed, rec)
        # The tapes of a training run are cyclic garbage that only a full
        # collection frees. Freeing them here makes peak RSS one run's,
        # however many rounds run, and lets predict run in a clean heap, as
        # it does in a fresh `defreach predict` process.
        collect_garbage()
        predicting = clock()
        rec.settle()
        probs = predict_pass(ckpt, inputs.test, reference, seen.get(model_seed), rec)
        if model_seed not in seen:
            seen[model_seed] = probs
            rec.f1s.append(f1([
                (M.classify(p) if p is not None else 1 - e.label, e.label)
                for e, p in zip(inputs.test, probs)
            ]))
        while clock() - predicting < PREDICT_SECONDS:
            predict_pass(ckpt, inputs.test, reference, seen[model_seed], rec)
        rec.settle()
        done += 1


# -- scan-large ------------------------------------------------------------

@dataclass
class ScanInputs:
    draws: list[list[compose.Composed]]
    ckpt: M.Checkpoint

    def fingerprint(self) -> str:
        return _digest(*(f.source for functions in self.draws for f in functions))


def scan_setup(seed: int, workdir: str, shape_pool: list, rec: Record) -> ScanInputs:
    """Compose the functions; train a checkpoint briefly and round-trip it through disk."""
    pool = H.synth_generate(SCAN_POOL, seed=seed)
    draws = [
        compose.make_functions(
            pool, SCAN_FUNCTIONS, seed * SCAN_DRAWS + d, SCAN_MIN_NODES, SCAN_MAX_NODES, shape_pool, d
        )
        for d in range(SCAN_DRAWS)
    ]
    train = pool[:SCAN_TRAIN]
    valid = pool[SCAN_TRAIN : SCAN_TRAIN + SCAN_VALID]
    vocab = E.build_vocabulary([e.cfg for e in train], k=SCAN_K)
    config = M.ModelConfig(k=SCAN_K, batch_size=SCAN_BATCH)
    token = rec.start()
    params, best_epoch, _ = M.train_model(
        config,
        [(e.cfg, e.label) for e in train],
        [(e.cfg, e.label) for e in valid],
        vocab,
        seed=seed,
        epochs=SCAN_EPOCHS,
        patience=SCAN_EPOCHS,
    )
    rec.trained(SCAN_EPOCHS * len(train), rec.stop(token))
    with open(os.path.join(workdir, "vocab.json"), "w") as f:
        f.write(vocab.to_json())
    path = os.path.join(workdir, "model.json")
    M.save_checkpoint(path, params, config, "vocab.json", best_epoch)
    ckpt = M.load_checkpoint(path)
    rec.check(
        ckpt.params.keys() == params.keys()
        and all(np.array_equal(ckpt.params[n], params[n]) for n in params)
        and ckpt.vocab.ranks == vocab.ranks,
        "checkpoint does not round-trip",
    )
    return ScanInputs(draws, ckpt)


def scan_sweep(functions: list, ckpt: M.Checkpoint, rec: Record) -> list[tuple[int, int]]:
    """Verdict for each function in turn; each must equal its construction label.

    Returns (verdict, label) pairs; a function that failed gets the wrong verdict.
    """
    verdicts = []
    for fn in functions:
        rec.poll()
        token = rec.start()
        try:
            cfg = P.parse_function(fn.source)
            verdict = H.oracle_label(cfg)
            t1 = clock()
            prob = M.predict(ckpt, cfg)
        except Exception as exc:  # a raise is a failed verdict; keep measuring
            rec.raised(exc, rec.stop(token))
            verdicts.append((1 - fn.label, fn.label))
            continue
        elapsed = rec.stop(token)
        rec.predicted(clock() - t1)
        ok = verdict == fn.label and len(cfg.nodes) == fn.nodes and 0.0 <= prob <= 1.0
        if not ok:
            rec.wrong.append(
                f"{fn.name}: verdict {verdict}, label {fn.label}, nodes {len(cfg.nodes)}/{fn.nodes}"
            )
        rec.verdict(elapsed, fn.nodes, ok)
        verdicts.append((verdict if ok else 1 - fn.label, fn.label))
    return verdicts


def scan_run(seed: int, seconds: float, rec: Record, workdir: str, setups: int) -> None:
    """Sweeps over every function of every draw, until ``seconds`` have passed.

    The draws differ in cost, so each sweep covers all of them: a run that
    stopped part-way through would weigh them by the machine's speed.
    test_f1 comes from the first sweep. ``seconds`` = 0 sweeps the first
    draw once.
    """
    shape_pool = H.synth_generate(SCAN_POOL, seed=SHAPE_SEED)
    inputs = repeated_setup(lambda: scan_setup(seed, workdir, shape_pool, rec), setups, rec)
    functions = [f for draw in inputs.draws[: SCAN_DRAWS if seconds else 1] for f in draw]
    rec.unit_samples = len(functions)
    start = clock()
    rec.settle()
    rec.f1s.append(f1(scan_sweep(functions, inputs.ckpt, rec)))
    while clock() - start < seconds:
        scan_sweep(functions, inputs.ckpt, rec)
    rec.settle()


# -- entry points ----------------------------------------------------------

def _run(workload: str, seed: int, seconds: float, rec: Record, root: str, full: bool) -> None:
    """``full`` runs every set-up and quality round; otherwise one of each."""
    spec = WORKLOADS[workload]
    setups = SETUP_REPEATS if full else 1
    if spec is not None:
        train_run(spec, seed, seconds, rec, setups, QUALITY_SEEDS if full else 1)
        return
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        scan_run(seed, seconds, rec, workdir, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, root: str) -> tuple[Record, dict]:
    """The untraced run: end-to-end metrics, in reference seconds (calibrate.py)."""
    rec = Record(speed=calibrate.Speed())
    with polled_training(rec):
        _run(workload, seed, seconds, rec, root, True)
    rec.finish()
    return rec, end_to_end(rec)


def run_traced(workload: str, seed: int, root: str) -> tuple[Record, dict, dict]:
    """One fixed unit of work (one set-up, one training round or one sweep)
    run untraced, traced, and untraced again: per-layer metrics.

    The first untraced pass warms the process up (at k=1000 it page-faults
    gigabytes that later passes reuse), so the overhead compares the traced
    pass with the untraced pass after it. gc.collect() between passes frees
    the previous pass's tapes before the next allocates its own.
    """

    def unit(rec: Record) -> float:
        start = clock()
        _run(workload, seed, 0.0, rec, root, False)
        return clock() - start

    unit(Record())
    gc.collect()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    rec = Record()
    try:
        traced = unit(rec)
    finally:
        uninstall()
    gc.collect()
    untraced = unit(Record())
    rec.finish()
    return rec, spans.layer_metrics(tracer, traced, untraced), tracer.table()
