import random

import pytest

from defreach.dataflow import MAX_TRACE_ROUNDS, analyze, bit_string, compute_gen_kill, solve, trace
from defreach.harness import _null_definition, oracle_label, synth_generate
from defreach.parser import parse_function

from conftest import (
    FIG1_SRC,
    brute_gen_kill,
    gen_by_variable,
    naive_solve,
    pairwise_label,
    random_cfg,
    with_nulls_and_derefs,
)
from test_large_functions import pinned_cfgs

# Per-round OUT rows for statement nodes v1..v4 (graph ids 1..4).
TABLE2 = [
    ["000", "000", "000", "000"],
    ["100", "000", "010", "001"],
    ["100", "100", "010", "011"],
    ["100", "100", "010", "111"],
]


@pytest.fixture
def fig1_cfg():
    return parse_function(FIG1_SRC)


class TestGenKill:
    def test_fig1(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        assert [(d.node, d.variable) for d in table[:2]] == [(1, "str"), (3, "str")]
        assert table[2].node == 4  # anonymous definition at the dereference
        bits = [(bit_string(g, 3), bit_string(k, 3)) for g, k in zip(state.gen, state.kill)]
        assert bits[1] == ("100", "010") and bits[3] == ("010", "100") and bits[4] == ("001", "000")
        assert state.gen[2] == 0 and state.kill[2] == 0

    def test_no_definitions(self):
        cfg = parse_function("void f(int n) { return; }")
        table, state = compute_gen_kill(cfg)
        assert len(table) == 0 and bit_string(0, len(table)) == ""
        assert not any(state.gen) and not any(state.kill)

    def test_two_defs_same_variable(self):
        cfg = parse_function("void f() { int x = 1; int y = 2; x = 3; }")
        table, state = compute_gen_kill(cfg)
        x_defs = [d for d in table if d.variable == "x"]
        assert len(x_defs) == 2
        for d in x_defs:
            other = next(e for e in x_defs if e is not d)
            assert state.kill[d.node] == 1 << other.def_id
        (y_def,) = (d for d in table if d.variable == "y")
        assert state.kill[y_def.node] == 0

    @pytest.mark.parametrize("deref_defines", [False, True])
    def test_definition_i_has_id_i(self, deref_defines):
        # what makes len(definitions) the width of every mask
        for e in synth_generate(60, seed=3):
            definitions, state = compute_gen_kill(e.cfg, deref_defines=deref_defines)
            assert all(d.def_id == i for i, d in enumerate(definitions))
            assert all(g < 1 << len(definitions) for g in state.gen)

    @pytest.mark.parametrize("deref_defines", [False, True])
    def test_variable_masks_or_the_gen_of_their_definitions(self, deref_defines):
        rng = random.Random(9)
        cfgs = [e.cfg for e in synth_generate(100, seed=2)]
        cfgs += [with_nulls_and_derefs(rng, random_cfg(rng)) for _ in range(100)]
        for cfg in cfgs:
            _, state = compute_gen_kill(cfg, deref_defines=deref_defines)
            assert state.by_variable == gen_by_variable(cfg, state.gen, deref_defines)

    def test_matches_brute_force_grouping(self):
        rng = random.Random(5)
        for _ in range(50):
            cfg = random_cfg(rng)
            table, state = compute_gen_kill(cfg)
            defs, gen, kill = brute_gen_kill(cfg)
            assert [(d.def_id, d.node, d.variable) for d in table] == defs
            for v in range(len(cfg.nodes)):
                assert set_of(state.gen[v]) == gen[v]
                assert set_of(state.kill[v]) == kill[v]


def set_of(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class TestSolve:
    def test_fig1_fixpoint(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        solve(fig1_cfg, state)
        assert [bit_string(state.out[v], 3) for v in (1, 2, 3, 4)] == ["100", "100", "010", "111"]

    def test_no_definitions_all_zero(self):
        cfg = parse_function("void f(int n) { return; }")
        table, state = compute_gen_kill(cfg)
        solve(cfg, state)
        assert not any(state.inb) and not any(state.out)

    def test_fixpoint_invariants(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        solve(fig1_cfg, state)
        for v in range(len(fig1_cfg.nodes)):
            assert state.gen[v] & ~state.out[v] == 0
            assert state.kill[v] & state.out[v] & ~state.gen[v] == 0
            inb = 0
            for u in fig1_cfg.predecessors(v):
                inb |= state.out[u]
            assert state.out[v] == state.gen[v] | (inb & ~state.kill[v])

    # the dense oracle takes about 25 ms on a 130-node graph and over a second
    # on a 1000-node one, so fewer large ones
    @pytest.mark.parametrize(
        "min_nodes,max_nodes,count",
        [(3, 20, 200), (3, 400, 12), (1000, 1200, 2)],
        ids=["20", "400", "1000-1200"],
    )
    def test_random_cfgs_match_naive_oracle(self, min_nodes, max_nodes, count):
        rng = random.Random(42)
        for _ in range(count):
            cfg = random_cfg(rng, max_nodes=max_nodes, max_vars=8, min_nodes=min_nodes)
            assert len(cfg.nodes) >= min_nodes
            table, state = compute_gen_kill(cfg)
            solve(cfg, state)
            _, gen, kill = brute_gen_kill(cfg)
            inb, out = naive_solve(cfg, gen, kill)
            for v in range(len(cfg.nodes)):
                assert set_of(state.out[v]) == out[v]
                assert set_of(state.inb[v]) == inb[v]

    def test_tracked_solve_is_the_full_solve_on_the_tracked_bits(self):
        # Each definition's bit is solved on its own and every definition,
        # tracked or not, kills the tracked ones of its variable, so tracking
        # a subset renumbers the full IN and OUT sets over that subset.
        rng = random.Random(11)
        corpus = [e.cfg for e in synth_generate(100, seed=2)]
        cfgs = [with_nulls_and_derefs(rng, random_cfg(rng, max_nodes=60)) for _ in range(100)]
        cfgs += corpus + pinned_cfgs()
        predicates = [_null_definition, lambda stmt: rng.random() < 0.5, lambda stmt: False]
        for cfg in cfgs:
            full_defs, full = compute_gen_kill(cfg)
            solve(cfg, full)
            for tracked in predicates:
                defs, state = compute_gen_kill(cfg, tracked=tracked)
                solve(cfg, state)
                nodes = {d.node for d in defs}
                kept = [d.def_id for d in full_defs if d.node in nodes]
                assert [(d.node, d.variable) for d in defs] == [full_defs[i][1:] for i in kept]

                def project(mask: int) -> int:
                    return sum(1 << j for j, i in enumerate(kept) if mask >> i & 1)

                assert state.inb == [project(m) for m in full.inb]
                assert state.out == [project(m) for m in full.out]
                width = 1 << len(defs)
                masks = [*state.gen, *state.kill, *state.by_variable.values(), *state.inb, *state.out]
                assert all(0 <= m < width for m in masks)
        for cfg in corpus:
            _, full = analyze(cfg)
            assert oracle_label(cfg) == pairwise_label(cfg, lambda d, v: full.inb[v] >> d & 1)


class TestTrace:
    def test_fig1_reproduces_golden_table(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        snapshots = trace(fig1_cfg, state, 3)
        got = [[bit_string(snap[v], 3) for v in (1, 2, 3, 4)] for snap in snapshots]
        assert got == TABLE2

    def test_zero_rounds(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        (snap,) = trace(fig1_cfg, state, 0)
        assert not any(snap)

    def test_negative_rounds_rejected(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        with pytest.raises(ValueError):
            trace(fig1_cfg, state, -1)

    def test_rounds_bounded(self, fig1_cfg):
        table, state = compute_gen_kill(fig1_cfg, deref_defines=True)
        snapshots = trace(fig1_cfg, state, MAX_TRACE_ROUNDS)  # the bound itself is allowed
        assert len(snapshots) == MAX_TRACE_ROUNDS + 1
        assert snapshots[-1] == snapshots[len(fig1_cfg.nodes) + 1]  # the fixpoint, repeated
        with pytest.raises(ValueError, match=f"rounds must be <= {MAX_TRACE_ROUNDS}, got {MAX_TRACE_ROUNDS + 1}"):
            trace(fig1_cfg, state, MAX_TRACE_ROUNDS + 1)

    def test_monotone_and_stable_and_matches_solve(self):
        rng = random.Random(3)
        for _ in range(60):
            cfg = random_cfg(rng)
            table, state = compute_gen_kill(cfg)
            rounds = len(cfg.nodes) + 2  # past worst-case convergence
            snaps = trace(cfg, state, rounds)
            for r in range(1, len(snaps)):
                for v in range(len(cfg.nodes)):
                    assert snaps[r - 1][v] & ~snaps[r][v] == 0  # may-analysis grows
            assert snaps[-1] == snaps[-2]  # one sweep past the fixpoint changes nothing
            solve(cfg, state)
            assert snaps[-1] == state.out
