import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wavecube import _blas
from wavecube.arch import build, paper_spec
from wavecube.errors import ShapeMismatchError
from wavecube.nn import GradientTape
from wavecube.pipeline import assemble, iou, partition, segment_volume

rng = np.random.default_rng(41)


def test_partition_two_cubes_along_z():
    grid, cubes = partition(np.zeros((64, 128, 128), dtype=np.float32), (32, 128, 128))
    assert [o[0] for o in grid.origins] == [0, 32]
    assert len(cubes) == 2


def test_partition_pads_to_multiples():
    grid, cubes = partition(np.zeros((40, 130, 128), dtype=np.float32), (32, 128, 128))
    assert grid.padded_extents == (64, 256, 128)
    assert len(cubes) == 4


def test_partition_exact_cube_no_padding():
    grid, cubes = partition(np.zeros((32, 128, 128), dtype=np.float32), (32, 128, 128))
    assert grid.padded_extents == (32, 128, 128)
    assert len(cubes) == 1


def test_partition_views_interior_cubes_and_copies_edge_cubes():
    vol = rng.random((40, 64, 50)).astype(np.float32)
    grid, cubes = partition(vol, (16, 32, 32))
    for origin, cube in cubes:
        interior = all(o + c <= e for o, c, e in zip(origin, grid.cube_shape, vol.shape))
        assert np.shares_memory(cube, vol) == interior, origin
        window = vol[origin[0]:origin[0] + 16, origin[1]:origin[1] + 32,
                     origin[2]:origin[2] + 32]
        zero_padded = np.pad(window, [(0, c - w) for c, w in zip(cube.shape, window.shape)])
        assert cube.shape == grid.cube_shape and cube.tobytes() == zero_padded.tobytes()
    assert sum(np.shares_memory(c, vol) for _, c in cubes) == 2 * 2 * 1


def test_partition_rejects_bad_cube_shape():
    with pytest.raises(ValueError):
        partition(np.zeros((32, 32, 32)), (30, 32, 32))


def test_assemble_inverts_partition():
    labels = (rng.random((40, 50, 70)) < 0.5).astype(np.uint8)
    grid, cubes = partition(labels, (16, 32, 32))
    back = assemble(grid, cubes)
    assert np.array_equal(back, labels)


def test_assemble_order_independent():
    labels = (rng.random((20, 30, 30)) < 0.5).astype(np.uint8)
    grid, cubes = partition(labels, (16, 16, 16))
    shuffled = list(reversed(cubes))
    assert np.array_equal(assemble(grid, shuffled), labels)


def test_assemble_missing_and_extra_cubes():
    labels = np.zeros((32, 32, 32), dtype=np.uint8)
    grid, cubes = partition(labels, (16, 16, 16))
    with pytest.raises(ShapeMismatchError):
        assemble(grid, cubes[:-1])
    with pytest.raises(ShapeMismatchError):
        assemble(grid, cubes + [((99, 0, 0), cubes[0][1])])
    bad = [(o, c[:8]) for o, c in cubes]
    with pytest.raises(ShapeMismatchError):
        assemble(grid, bad)


def test_partition_assemble_identity_fuzz():
    for seed in range(50):
        r = np.random.default_rng(seed)
        extents = tuple(int(r.integers(1, 70)) for _ in range(3))
        vol = (r.random(extents) * 100).astype(np.float32)
        grid, cubes = partition(vol, (16, 16, 16))
        assert np.array_equal(assemble(grid, cubes), vol)


# -- segmentation -----------------------------------------------------------------

def _bias_network(bias=(1.0, -1.0)):
    """All-zero parameters except a head bias: constant class preference."""
    net = build(paper_spec("PU"), seed=0)
    for _, t in net.named_parameters():
        t.data[...] = 0.0
    net.head.bias.data[:] = bias
    return net


def test_segment_constant_background_network():
    net = _bias_network((1.0, -1.0))  # background wins everywhere
    result = segment_volume(rng.random((20, 40, 40)).astype(np.float32), net,
                            (16, 32, 32))
    assert result.labels.shape == (20, 40, 40)
    assert result.labels.sum() == 0
    assert result.provenance["arch"] == "PU"


def test_segment_argmax_tie_resolves_to_background():
    net = _bias_network((0.5, 0.5))  # equal logits everywhere
    result = segment_volume(np.zeros((16, 16, 16), dtype=np.float32), net,
                            (16, 16, 16))
    assert result.labels.sum() == 0


def test_segment_worker_count_invariance():
    net = build(paper_spec("PU"), seed=2)
    net.head.weight.data[...] = np.random.default_rng(1).standard_normal(
        net.head.weight.data.shape).astype(np.float32)
    vol = rng.random((20, 40, 40)).astype(np.float32)
    a = segment_volume(vol, net, (16, 32, 32), workers=1)
    b = segment_volume(vol, net, (16, 32, 32), workers=3)
    assert a.labels.tobytes() == b.labels.tobytes()


def test_segment_workers_share_one_output_under_frequent_thread_switches():
    # 4 workers on 2 cores write 60 cubes into one label array and one set
    # of pending origins; a lost or doubled write changes the labels
    net = build(paper_spec("PU"), seed=2)
    net.head.weight.data[...] = np.random.default_rng(1).standard_normal(
        net.head.weight.data.shape).astype(np.float32)
    vol = rng.random((40, 60, 70)).astype(np.float32)
    want = segment_volume(vol, net, (16, 16, 16), workers=1).labels
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = segment_volume(vol, net, (16, 16, 16), workers=4).labels
    finally:
        sys.setswitchinterval(interval)
    assert 0 < want.sum() < want.size and got.tobytes() == want.tobytes()


def test_segment_padding_neutrality():
    # a zero-biased network maps zero padding to background, so appending
    # explicit zero slabs then cropping equals segmenting the original
    net = build(paper_spec("PU"), seed=4)
    net.head.weight.data[...] = np.random.default_rng(3).standard_normal(
        net.head.weight.data.shape).astype(np.float32)
    net.head.bias.data[:] = (0.1, 0.0)
    vol = rng.random((16, 32, 32)).astype(np.float32)
    direct = segment_volume(vol, net, (16, 32, 32)).labels
    padded = np.zeros((20, 40, 40), dtype=np.float32)
    padded[:16, :32, :32] = vol
    via_pad = segment_volume(padded, net, (16, 32, 32)).labels[:16, :32, :32]
    assert np.array_equal(direct, via_pad)


def _traced_peak(fn) -> int:
    """tracemalloc's peak of `fn()` above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
@pytest.mark.parametrize("workers", [1, 2])
def test_segment_holds_the_labels_and_one_cube_forward_per_worker(workers):
    # no copy of the volume, list of cubes or list of cube labels is held:
    # each worker cuts its cube and writes its labels into the one output
    net = build(paper_spec("PU"), seed=2)
    vol = np.random.default_rng(2).random((64, 128, 128)).astype(np.float32)
    cube = np.ascontiguousarray(vol[:16, :32, :32])
    net.forward(cube[None, None], training=False)  # warm-up
    forward = _traced_peak(lambda: net.forward(cube[None, None], training=False))
    peak = _traced_peak(lambda: segment_volume(vol, net, (16, 32, 32), workers=workers))
    bound = vol.size + workers * 1.25 * forward  # uint8 labels
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_segment_retains_logits_when_asked():
    net = _bias_network()
    result = segment_volume(np.zeros((16, 16, 16), dtype=np.float32), net,
                            (16, 16, 16), retain_logits=True)
    assert set(result.cube_logits) == {(0, 0, 0)}
    assert result.cube_logits[(0, 0, 0)].shape == (2, 16, 16, 16)


def test_segment_labels_are_argmax_of_retained_logits():
    net = build(paper_spec("PU"), seed=6)
    net.head.weight.data[...] = np.random.default_rng(8).standard_normal(
        net.head.weight.data.shape).astype(np.float32)
    vol = rng.random((20, 40, 40)).astype(np.float32)
    result = segment_volume(vol, net, (16, 32, 32), workers=2, retain_logits=True)
    cubes = {o: np.argmax(lg, axis=0).astype(np.uint8) for o, lg in result.cube_logits.items()}
    expect = assemble(partition(vol, (16, 32, 32))[0], cubes)
    assert 0 < expect.sum() < expect.size
    assert result.labels.tobytes() == expect.tobytes()
    plain = segment_volume(vol, net, (16, 32, 32), workers=2)
    assert plain.cube_logits is None and plain.labels.tobytes() == expect.tobytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "2d"])
def test_segment_rejects_non_finite_or_non_3d_volume(bad):
    vol = np.zeros((16, 16, 16), dtype=np.float32)
    if bad == "2d":
        vol, err = vol[0], ShapeMismatchError
    else:
        vol[3, 4, 5], err = float(bad), ValueError
    with pytest.raises(err, match="non-finite" if bad != "2d" else "3D"):
        segment_volume(vol, _bias_network(), (16, 16, 16))


# -- BLAS thread cap -------------------------------------------------------------

OPENBLAS = _blas.openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS not found")


@pytest.fixture
def two_blas_threads():
    """The caller runs OpenBLAS on 2 threads; its own count is put back after."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


class _ProbeNetwork:
    """Records the BLAS thread count seen by each forward; `forward_hook`
    runs first and may block or raise."""

    spec = SimpleNamespace(dual_structure="probe", wavelet=None)

    def __init__(self, forward_hook=lambda: None):
        self.forward_hook = forward_hook
        self.seen = []

    def forward(self, x, training):
        self.forward_hook()
        self.seen.append(OPENBLAS[0]())
        return SimpleNamespace(data=np.zeros((1, 2) + x.shape[2:], dtype=np.float32))


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_segment_runs_one_blas_thread_and_restores(two_blas_threads, workers):
    net = _ProbeNetwork()
    result = segment_volume(np.zeros((32, 16, 16), dtype=np.float32), net, (16, 16, 16),
                            workers=workers)
    assert net.seen == [1, 1]
    assert result.provenance["blas_threads"] == 1
    assert two_blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_segment_restores_blas_threads_when_a_cube_raises(two_blas_threads, workers):
    def fail():
        raise ValueError("broken cube")

    with pytest.raises(ValueError, match="broken cube"):
        segment_volume(np.zeros((16, 16, 16), dtype=np.float32), _ProbeNetwork(fail),
                       (16, 16, 16), workers=workers)
    assert two_blas_threads() == 2


@needs_openblas
def test_concurrent_segments_restore_blas_threads_once(two_blas_threads):
    # both calls are inside the cap before the first leaves; the second
    # still runs on one thread after the first has returned
    both_in = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    first = _ProbeNetwork(both_in.wait)
    second = _ProbeNetwork(lambda: (both_in.wait(), first_done.wait(timeout=30)))
    errors = []

    def call(net, done=None):
        try:
            segment_volume(np.zeros((16, 16, 16), dtype=np.float32), net, (16, 16, 16))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    threads = [threading.Thread(target=call, args=(first, first_done)),
               threading.Thread(target=call, args=(second,))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert first_done.is_set()
    assert first.seen == [1] and second.seen == [1]
    assert two_blas_threads() == 2


@needs_openblas
def test_segment_labels_independent_of_workers_with_blas_threads(two_blas_threads):
    net = build(paper_spec("PU"), seed=5)
    net.head.weight.data[...] = np.random.default_rng(6).standard_normal(
        net.head.weight.data.shape).astype(np.float32)
    vol = rng.random((20, 40, 40)).astype(np.float32)
    labels = [segment_volume(vol, net, (16, 32, 32), workers=w).labels.tobytes()
              for w in (1, 2, 4)]
    assert labels[0] == labels[1] == labels[2]
    assert two_blas_threads() == 2


def test_segment_without_openblas_reports_unknown(monkeypatch):
    monkeypatch.setattr(_blas, "openblas", lambda: None)
    net = _bias_network((-1.0, 1.0))  # foreground wins everywhere
    result = segment_volume(np.zeros((16, 16, 16), dtype=np.float32), net, (16, 16, 16),
                            workers=2)
    assert result.labels.sum() == 16 ** 3
    assert result.provenance["blas_threads"] == "unknown"


class _ShapeDtypeError(MemoryError):
    """Built from (shape, dtype), not from a message, as numpy's
    out-of-memory `_ArrayMemoryError` is."""

    def __init__(self, shape, dtype):
        super().__init__(shape, dtype)
        self.shape, self.dtype = shape, dtype


class _FailingNetwork:
    """Raises `exc` on a cube that holds a non-zero voxel."""

    spec = SimpleNamespace(dual_structure="failing", wavelet=None)

    def __init__(self, exc):
        self.exc = exc

    def forward(self, x, training):
        if x.any():
            raise self.exc
        return SimpleNamespace(data=np.zeros((1, 2) + x.shape[2:], dtype=np.float32))


@pytest.mark.parametrize("workers", [1, 2])
def test_segment_names_the_failing_cube_and_keeps_its_error_type(workers):
    vol = np.zeros((32, 16, 16), dtype=np.float32)
    vol[20, 3, 3] = 1.0
    with pytest.raises(ValueError, match=r"^cube at origin \(16, 0, 0\): broken cube$"):
        segment_volume(vol, _FailingNetwork(ValueError("broken cube")), (16, 16, 16),
                       workers=workers)
    # a type that takes no message alone used to turn into a TypeError
    exc = _ShapeDtypeError((1 << 40,), np.dtype(np.float32))
    with pytest.raises(_ShapeDtypeError) as err:
        segment_volume(vol, _FailingNetwork(exc), (16, 16, 16), workers=workers)
    assert err.value is exc and err.value.shape == (1 << 40,)
    if hasattr(exc, "add_note"):
        assert "cube at origin (16, 0, 0)" in exc.__notes__


# -- IoU ----------------------------------------------------------------------------

def test_iou_identical_volumes():
    v = (rng.random((8, 8, 8)) < 0.4).astype(np.uint8)
    assert iou(v, v) == (1.0, 1.0, 1.0)


def test_iou_all_background_prediction():
    truth = np.zeros((8, 8, 8), dtype=np.uint8)
    truth[:2] = 1
    pred = np.zeros_like(truth)
    bg, fg, mean = iou(pred, truth)
    assert fg == 0.0
    assert 0 < bg < 1


def test_iou_shifted_cube_overlap():
    # truth: 2x2x2 cube (8 voxels); pred: shifted to overlap exactly 4
    truth = np.zeros((8, 8, 8), dtype=np.uint8)
    truth[2:4, 2:4, 2:4] = 1
    pred = np.zeros_like(truth)
    pred[2:4, 2:4, 3:5] = 1
    bg, fg, mean = iou(pred, truth)
    assert fg == pytest.approx(4 / 12)


def test_iou_absent_class_scores_one():
    a = np.ones((4, 4, 4), dtype=np.uint8)
    b = np.ones((4, 4, 4), dtype=np.uint8)
    bg, fg, mean = iou(a, b)
    assert bg == 1.0 and fg == 1.0 and mean == 1.0


def test_iou_symmetry():
    a = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
    b = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
    assert iou(a, b) == iou(b, a)
    if not np.array_equal(a, b):
        assert iou(a, b)[2] < 1.0


def test_iou_extent_mismatch():
    with pytest.raises(ShapeMismatchError):
        iou(np.zeros((4, 4, 4), dtype=np.uint8), np.zeros((4, 4, 8), dtype=np.uint8))


@pytest.mark.parametrize("workers", [1, 2])
def test_segment_records_nothing_on_the_callers_tape(workers):
    # cubes always run on pool threads, whose tape stack is their own
    net = build(paper_spec("DIDn", "haar"), seed=5)
    with GradientTape() as tape:
        segment_volume(np.zeros((16, 16, 16), dtype=np.float32), net, (16, 16, 16),
                       workers=workers)
    assert len(tape) == 0


def test_segment_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers"):
        segment_volume(np.zeros((16, 16, 16), dtype=np.float32),
                       build(paper_spec("PU"), seed=5), (16, 16, 16), workers=0)


@pytest.mark.parametrize("workers", [2.5, True, "2"])
def test_segment_rejects_a_worker_count_that_is_not_an_integer(workers):
    with pytest.raises(ValueError, match="workers must be an integer"):
        segment_volume(np.zeros((16, 16, 16), dtype=np.float32),
                       build(paper_spec("PU"), seed=5), (16, 16, 16), workers=workers)


@pytest.mark.parametrize("cube_shape", [(16, 16), (16, 16, 16, 16), (16.0, 16, 16), (0, 16, 16)])
def test_segment_rejects_a_cube_shape_that_is_not_three_extents(cube_shape):
    with pytest.raises(ValueError, match="cube_shape must be 3 positive integer extents"):
        segment_volume(np.zeros((16, 16, 16), dtype=np.float32),
                       build(paper_spec("PU"), seed=5), cube_shape)
