"""The benchmark's own arithmetic: tail rule, self time, computed conv3 cost;
and that BENCHMARK.json and reference.json match the code.

Run with `python3 -m pytest perfbench/tests` from the repository root."""

import json
import threading
from itertools import product
from pathlib import Path

import pytest

import run
from instrument import per_layer_metrics, per_layer_names
from spans import Span, Tracer, op_roots, self_times
from stats import conv3_cost, tail, union_length

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile --------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert tail(range(10)) == (None, None, 10)
    assert tail(range(11)) == (0.0, 0.0, 11)


@pytest.mark.parametrize("n, value, pct", [(21, 10.0, 50.0), (101, 90.0, 90.0),
                                           (1001, 990.0, 99.0)])
def test_tail_is_highest_percentile_with_ten_beyond(n, value, pct):
    samples = list(range(n))[::-1]  # order must not matter
    got_value, got_pct, got_n = tail(samples)
    assert (got_value, got_n) == (value, n)
    assert got_pct == pytest.approx(pct)
    assert sum(1 for s in samples if s > got_value) == 10


# -- self time ---------------------------------------------------------------

def _span(sid, start, end, parent=None, thread=1, name="x"):
    return Span(sid, name, start, parent, thread, end)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 7), (4, 4)]) == 5


def test_self_time_nested():
    spans = [_span(1, 0, 10), _span(2, 1, 3, 1), _span(3, 4, 8, 1), _span(4, 5, 6, 3)]
    st = self_times(spans)
    assert st == {1: 4, 2: 2, 3: 3, 4: 1}


def test_self_time_parallel_children_cover_once():
    # two worker threads under one call, overlapping in [3, 6]
    spans = [_span(1, 0, 10), _span(2, 1, 6, 1, thread=2), _span(3, 3, 9, 1, thread=3)]
    assert self_times(spans)[1] == 2
    # a child running past its parent is clipped
    spans = [_span(1, 0, 4), _span(2, 2, 7, 1, thread=2)]
    assert self_times(spans)[1] == 2


def test_worker_threads_do_not_nest_into_each_other():
    tracer = Tracer()
    both_open = threading.Barrier(2, timeout=10)
    with tracer.span("call") as call:
        tracer.ambient = call

        def worker():
            with tracer.span("cube") as cube:
                both_open.wait()
                with tracer.span("op") as op:
                    assert op.parent == cube.id

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        tracer.ambient = None
    cubes = [s for s in tracer.spans if s.name == "cube"]
    ops = [s for s in tracer.spans if s.name == "op"]
    assert [c.parent for c in cubes] == [call.id, call.id]
    assert {c.thread for c in cubes} == {o.thread for o in ops}
    assert sorted(o.parent for o in ops) == sorted(c.id for c in cubes)
    assert {s.name for s in tracer.closed()} == {"call", "cube", "op"}


def test_op_roots_and_per_op_metrics():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)
    for _ in range(2):
        with tracer.span("train.step"):
            with tracer.span("functional.conv3", level=0, flops=2e9, im2col_bytes=3e6):
                pass
            with tracer.span("autograd.backward"):
                with tracer.span("functional.conv3.adj", level=0):
                    pass
    with tracer.span("train.eval"):
        with tracer.span("functional.conv3", level=0, flops=1e9, im2col_bytes=1e6):
            pass
    spans = tracer.closed()
    roots = op_roots(spans, ("train.step",))
    assert len(set(roots.values())) == 2
    assert all(s.name != "train.eval" for s in spans if s.id in roots)
    m = per_layer_metrics(spans, "train.step", 2)
    # every span opens and closes on one clock tick each
    assert m["functional.conv3.L0.fwd_s"] == 1
    assert m["functional.conv3.L0.adj_s"] == 1
    assert m["functional.conv3.gflop"] == 2.0  # eval's conv is outside the steps
    assert m["autograd.backward_s"] == 3 and m["autograd.self_s"] == 2
    assert m["train.self_s"] == 7 - 1 - 3
    assert m["train.eval_s"] == 3 / 2
    # the step's own self time (7 - 1 - 3) is glue no layer wrapper covers
    assert m["trace.accounted_s"] == 1 + 2 + 1
    assert m["trace.unattributed_s"] == 3


# -- computed conv3 cost ---------------------------------------------------------

def _conv3_cost_by_loops(x_shape, w_shape, stride, padding):
    """Count multiply-adds and im2col entries one output voxel at a time."""
    b, ci, d, m, n = x_shape
    co, _, k = w_shape[:3]
    outs = [range(0, e + 2 * padding - k + 1, stride) for e in (d, m, n)]
    macs = cols = 0
    for _ in product(range(b), *outs):
        cols += ci * k ** 3
        macs += co * ci * k ** 3
    return 2 * macs, cols


@pytest.mark.parametrize("x_shape, w_shape, stride, padding", [
    ((4, 1, 16, 8, 8), (4, 1, 3, 3, 3), 1, 1),
    ((2, 4, 6, 6, 4), (8, 4, 3, 3, 3), 1, 1),
    ((1, 3, 8, 8, 8), (2, 3, 3, 3, 3), 2, 1),
    ((2, 4, 4, 4, 4), (2, 4, 1, 1, 1), 1, 0),
])
def test_conv3_cost_matches_loop_count(x_shape, w_shape, stride, padding):
    flops, cols = _conv3_cost_by_loops(x_shape, w_shape, stride, padding)
    assert conv3_cost(x_shape, w_shape, stride, padding, 4) == (flops, 4 * cols)


def test_conv3_cost_desk_full_resolution():
    # DIDn enc1.block2 at batch 4 of 16x64x64: the ROADMAP's 113 MB im2col copy
    flops, nbytes = conv3_cost((4, 4, 16, 64, 64), (4, 4, 3, 3, 3))
    assert nbytes == 4 * 4 * 27 * 65536 * 4 == 113_246_208
    assert flops == 2 * 4 * 4 * 4 * 27 * 65536


# -- the benchmark definition matches the code ------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name != "wavelet-banks"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert len(per_layer_names()) <= 128


def test_reference_table_covers_every_input_set():
    import workloads

    table = json.loads(workloads.REFERENCE.read_text())
    sets = {str(i) for i in range(workloads.REFERENCE_SEEDS)}
    for name in ("train-didn-desk", "train-pu-paper", "segment-didn"):
        assert set(table[name]) == sets
    for seed in (0, 31, 32, 12345, 2**31 - 1):
        assert str(workloads.input_seed(seed)) in sets
