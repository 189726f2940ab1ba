"""The span tracer: self-time subtraction and wrappers on every lookup path."""

import gc
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import spans  # noqa: E402
from defreach import harness, model  # noqa: E402
from defreach.harness import oracle_label, synth_generate  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = spans.Tracer(clock)
    t.enter("a")            # a: 0..10
    clock.now = 1.0
    t.enter("b")            # b: 1..6
    clock.now = 2.0
    t.enter("c")            # c: 2..4
    clock.now = 4.0
    t.exit()
    clock.now = 6.0
    t.exit()
    t.enter("c")            # c: 6..7
    clock.now = 7.0
    t.exit()
    clock.now = 10.0
    t.exit()
    clock.now = 12.0
    t.enter("d")            # d: 12..13, a second top-level span
    clock.now = 13.0
    t.exit()
    assert t.total == {"a": 10.0, "b": 5.0, "c": 3.0, "d": 1.0}
    assert t.self_time == {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert t.calls == {"a": 1, "b": 1, "c": 2, "d": 1}
    assert t.covered == 11.0


def test_recursive_span_counts_its_outermost_duration_once():
    clock = FakeClock()
    t = spans.Tracer(clock)
    t.enter("r")
    clock.now = 1.0
    t.enter("r")
    clock.now = 3.0
    t.exit()
    clock.now = 4.0
    t.exit()
    assert t.total["r"] == 4.0
    assert t.self_time["r"] == 4.0
    assert t.calls["r"] == 2


def test_wrappers_replace_every_alias_and_undo():
    data = synth_generate(4, seed=1)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        # harness: `from .dataflow import analyze`, `from .parser import parse_function`;
        # model: `from .embedding import encode`.
        for alias in (harness.analyze, harness.parse_function, model.encode):
            assert hasattr(alias, "__wrapped__")
        harness.oracle_label(data[0].cfg)
    finally:
        uninstall()
    assert not hasattr(harness.analyze, "__wrapped__")
    assert not hasattr(model.encode, "__wrapped__")
    for name in ("harness.oracle_label", "dataflow.analyze", "dataflow.compute_gen_kill",
                 "dataflow.solve", "cfg.Cfg.reverse_postorder"):
        assert tracer.calls[name] == 1, name
    assert tracer.counts["cfg.adjacency_calls"] > 0
    # The name imported into this module before install was not rebound.
    assert oracle_label is harness.oracle_label


def test_collector_runs_show_as_gc_spans():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.enter("outer")
        gc.collect()
        tracer.exit()
    finally:
        uninstall()
    assert tracer.calls["gc.collect"] >= 1
    assert tracer.counts["gc.gen2_collections"] >= 1
    assert tracer.self_time["outer"] <= tracer.total["outer"] - tracer.self_time["gc.collect"] + 1e-9


def test_a_layer_without_spans_fails_loudly():
    tracer = spans.Tracer()
    tracer.enter("parser.parse_function")
    tracer.exit()
    with pytest.raises(spans.MissingSpans, match="cfg"):
        spans.layer_metrics(tracer, 1.0, 1.0)
