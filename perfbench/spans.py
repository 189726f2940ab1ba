"""Spans around the public functions of each defreach module, for the traced run.

The wrappers are installed from outside the package: every module global and
class attribute of ``defreach`` that refers to a wrapped function is replaced,
so aliases made by ``from .x import f`` are timed too. Spans are aggregated
in memory by name. A span's self time is its duration minus the time covered
by its child spans. CPython's cyclic collector is observed through
``gc.callbacks`` as the span ``gc.collect``, a child of the span it interrupts.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from collections import defaultdict

LAYERS = ("parser", "cfg", "dataflow", "harness", "embedding", "model", "tensor", "kernels")

# Every public module-level function of each layer gets a span named
# "<layer>.<function>"; these methods get "<layer>.<Class>.<method>".
METHODS = (("cfg", "Cfg", "validate"), ("cfg", "Cfg", "reverse_postorder"), ("model", "Adam", "step"))


class Tracer:
    """Aggregates nested spans by name: calls, outermost duration and self time."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered = 0.0  # time under top-level spans

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self._clock() - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - children
        if not self._open[name]:  # a span nested in one of its own name is counted once
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration

    def active(self, name: str) -> bool:
        return self._open[name] > 0

    def table(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.counts[f"gc.gen{info['generation']}_collections"] += 1
            self.enter("gc.collect")
        else:
            self.exit()


def _span(tracer: Tracer, name, fn, before=None, after=None):
    """``name`` is a string, or a callable picking the span name from the arguments."""
    enter, exit_ = tracer.enter, tracer.exit
    pick = name if callable(name) else None

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        enter(pick(args) if pick else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _counter(tracer: Tracer, fn):
    """Cfg.successors/predecessors scan every edge; count calls and edges instead of timing."""
    counts = tracer.counts

    def wrapper(self, v):
        counts["cfg.adjacency_calls"] += 1
        counts["cfg.edges_scanned"] += len(self.edges)
        return fn(self, v)

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Span-name pickers and counters for the wrappers that need more than a span."""
    counts = tracer.counts
    Tensor = modules["tensor"].Tensor

    def taped_op(args):
        for a in args:
            if isinstance(a, Tensor) and a.tape is not None:
                counts["tensor.taped_ops"] += 1
                return

    def matmul_flop(args):
        taped_op(args)
        a, b = args[0], args[1]
        counts["tensor.matmul_flop"] += 2.0 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]

    def forward_batch_name(args):
        taped = next(iter(args[0].values())).tape is not None
        if taped:
            return "model.forward_batch[train]"
        in_training = tracer.active("model.train_model")
        return "model.forward_batch[valid]" if in_training else "model.forward_batch[infer]"

    def forward_probs_name(args):
        return "model.forward_probs[valid]" if tracer.active("model.train_model") else "model.forward_probs"

    def parsed(cfg):
        counts["parser.nodes"] += len(cfg.nodes)

    def batched(batch):
        counts["model.batch_bytes"] += (
            batch.features.nbytes + batch.src.nbytes + batch.dst.nbytes + batch.seg.nbytes
        )

    def encoded(rows):
        counts["embedding.feature_bytes"] += rows.nbytes

    hooks = {
        ("parser", "parse_function"): {"after": parsed},
        ("model", "batch_graphs"): {"after": batched},
        ("embedding", "encode"): {"after": encoded},
        ("model", "forward_batch"): {"name": forward_batch_name},
        ("model", "forward_probs"): {"name": forward_probs_name},
        ("tensor", "matmul"): {"before": matmul_flop},
    }
    for name in public_functions(modules["tensor"]):
        if name != "gradients":  # replays the tape; not a primitive op
            hooks.setdefault(("tensor", name), {"before": taped_op})
    return hooks


def public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def defreach_modules() -> dict:
    import defreach.cli  # noqa: F401  (imports every module, so their aliases get rebound too)

    return {layer: sys.modules[f"defreach.{layer}"] for layer in LAYERS}


def install(tracer: Tracer):
    """Wrap every public function of every layer, the METHODS and the Cfg
    adjacency scans; return an undo callable."""
    modules = defreach_modules()
    package = [m for n, m in sys.modules.items() if n == "defreach" or n.startswith("defreach.")]
    hooks = _hooks(tracer, modules)
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(layer, attr, fn):
        hook = hooks.get((layer, attr), {})
        return _span(tracer, hook.get("name", f"{layer}.{attr}"), fn, hook.get("before"), hook.get("after"))

    for layer, module in modules.items():
        for attr in public_functions(module):
            original = getattr(module, attr)
            wrapper = span(layer, attr, original)
            for mod in package:  # the defining module and every `from .x import f` alias
                for key, value in list(vars(mod).items()):
                    if value is original:
                        rebind(mod, key, wrapper)
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        rebind(cls, method, span(layer, f"{cls_name}.{method}", getattr(cls, method)))
    cfg_class = modules["cfg"].Cfg
    for method in ("successors", "predecessors"):
        rebind(cfg_class, method, _counter(tracer, getattr(cfg_class, method)))
    gc.callbacks.append(tracer.gc_callback)

    def uninstall():
        gc.callbacks.remove(tracer.gc_callback)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# Each per-layer metric: how it is computed from the trace, its unit, and the
# spans that must have been entered for the value to mean anything.
def _self(name):
    return lambda t: t.self_time[name]


def _total(name):
    return lambda t: t.total[name]


def _count(name):
    return lambda t: t.counts[name]


LAYER_METRICS = {
    "parser.parse_s": (_self("parser.parse_function"), "s", ["parser.parse_function"]),
    "parser.nodes_per_s": (
        lambda t: t.counts["parser.nodes"] / t.self_time["parser.parse_function"],
        "nodes/s", ["parser.parse_function"],
    ),
    "cfg.validate_s": (_self("cfg.Cfg.validate"), "s", ["cfg.Cfg.validate"]),
    "cfg.rpo_s": (_self("cfg.Cfg.reverse_postorder"), "s", ["cfg.Cfg.reverse_postorder"]),
    "cfg.adjacency_calls": (_count("cfg.adjacency_calls"), "count", []),
    "cfg.edges_scanned": (_count("cfg.edges_scanned"), "count", []),
    "dataflow.gen_kill_s": (_self("dataflow.compute_gen_kill"), "s", ["dataflow.compute_gen_kill"]),
    "dataflow.solve_s": (_self("dataflow.solve"), "s", ["dataflow.solve"]),
    "harness.oracle_s": (_self("harness.oracle_label"), "s", ["harness.oracle_label"]),
    "harness.synth_s": (_self("harness.synth_generate"), "s", ["harness.synth_generate"]),
    "embedding.encode_s": (_total("embedding.encode"), "s", ["embedding.encode"]),
    "embedding.feature_bytes": (_count("embedding.feature_bytes"), "bytes", ["embedding.encode"]),
    "embedding.vocab_s": (_total("embedding.build_vocabulary"), "s", ["embedding.build_vocabulary"]),
    "model.batch_s": (_self("model.batch_graphs"), "s", ["model.batch_graphs"]),
    "model.batch_bytes": (_count("model.batch_bytes"), "bytes", ["model.batch_graphs"]),
    "model.train_forward_s": (_total("model.forward_batch[train]"), "s", ["model.forward_batch[train]"]),
    "model.valid_s": (_total("model.forward_probs[valid]"), "s", ["model.forward_probs[valid]"]),
    "model.infer_forward_s": (_total("model.forward_batch[infer]"), "s", ["model.forward_batch[infer]"]),
    "model.predict_s": (_total("model.predict"), "s", ["model.predict"]),
    "model.adam_s": (_self("model.Adam.step"), "s", ["model.Adam.step"]),
    "tensor.backward_s": (_total("tensor.gradients"), "s", ["tensor.gradients"]),
    "tensor.matmul_gflop": (lambda t: t.counts["tensor.matmul_flop"] / 1e9, "GFLOP", ["tensor.matmul"]),
    "tensor.ops_per_step": (
        lambda t: t.counts["tensor.taped_ops"] / t.calls["model.Adam.step"],
        "ops/step", ["model.Adam.step"],
    ),
    "kernels.edge_sum_s": (_self("kernels.edge_sum"), "s", ["kernels.edge_sum"]),
    "kernels.edge_sum_calls": (lambda t: t.calls["kernels.edge_sum"], "count", ["kernels.edge_sum"]),
    "kernels.segment_sum_s": (_self("kernels.segment_sum"), "s", ["kernels.segment_sum"]),
    "gc.collect_s": (_self("gc.collect"), "s", ["gc.collect"]),
    "gc.gen2_collections": (_count("gc.gen2_collections"), "count", []),
}


class MissingSpans(Exception):
    pass


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    Raises MissingSpans when a layer, or a span a metric is computed from, was
    never entered: a function that moved or was renamed must not read as a
    layer that got faster.
    """
    missing = [layer for layer in LAYERS if not any(n.startswith(layer + ".") for n in tracer.calls)]
    missing += sorted({s for _, _, spans in LAYER_METRICS.values() for s in spans if not tracer.calls[s]})
    if not tracer.counts["cfg.adjacency_calls"]:
        missing.append("cfg.Cfg.successors/predecessors")
    if missing:
        raise MissingSpans("no spans recorded for: " + ", ".join(missing))
    metrics = {name: (float(fn(tracer)), unit) for name, (fn, unit, _) in LAYER_METRICS.items()}
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.coverage"] = (tracer.covered / traced_wall, "ratio")
    return metrics
