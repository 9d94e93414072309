import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecube.data import (
    PhantomConfig,
    SwcMorphology,
    SwcNode,
    cut_cubes,
    generate_phantom,
    parse_swc,
    rasterize,
    read_volume,
    serialize_swc,
    write_volume,
)
from wavecube.data.cubes import _RETRY_FACTOR
from wavecube.errors import (
    BadMagicError,
    CycleError,
    DanglingParentError,
    DuplicateNodeError,
    SwcFormatError,
    TruncatedPayloadError,
)
from wavecube.pipeline import partition

rng = np.random.default_rng(17)


# -- NVOL container ------------------------------------------------------------

def test_volume_roundtrip_float(tmp_path):
    v = rng.standard_normal((4, 6, 8)).astype(np.float32)
    path = tmp_path / "a.nvol"
    write_volume(path, v)
    back = read_volume(path)
    assert back.dtype == np.float32
    assert back.tobytes() == v.tobytes()


def test_volume_roundtrip_labels(tmp_path):
    v = (rng.random((3, 5, 7)) < 0.3).astype(np.uint8)
    path = tmp_path / "l.nvol"
    write_volume(path, v)
    back = read_volume(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, v)


def test_volume_bad_magic(tmp_path):
    path = tmp_path / "x.nvol"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_volume_truncated(tmp_path):
    path = tmp_path / "t.nvol"
    write_volume(path, np.zeros((2, 2, 2), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
def test_volume_read_holds_the_payload_once(tmp_path):
    # the payload is read straight into the array: no copy of the file's
    # bytes, nor of the payload sliced from them, is held beside it
    v = rng.standard_normal((16, 128, 128)).astype(np.float32)
    path = tmp_path / "big.nvol"
    write_volume(path, v)
    tracemalloc.start()
    try:
        back = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == v.tobytes()
    assert peak <= 1.1 * v.nbytes, peak / v.nbytes


# -- SWC parsing -----------------------------------------------------------------

def test_parse_single_root():
    m = parse_swc("1 2 10.0 20.0 5.0 1.5 -1\n")
    assert len(m) == 1
    node = m.nodes[0]
    assert (node.x, node.y, node.z, node.radius) == (10.0, 20.0, 5.0, 1.5)
    assert node.parent_id == -1


def test_parse_comments_only():
    m = parse_swc("# comment\n#another\n\n")
    assert len(m) == 0


def test_parse_errors():
    with pytest.raises(SwcFormatError) as err:
        parse_swc("1 2 3 4\n")
    assert "line 1" in str(err.value)
    with pytest.raises(SwcFormatError):
        parse_swc("1 2 aa 4 5 6 -1\n")
    with pytest.raises(DuplicateNodeError):
        parse_swc("1 2 0 0 0 1 -1\n1 2 1 1 1 1 -1\n")
    with pytest.raises(DanglingParentError) as err:
        parse_swc("1 2 0 0 0 1 99\n")
    assert "99" in str(err.value)
    with pytest.raises(CycleError):
        SwcMorphology([SwcNode(1, 2, 0, 0, 0, 1, 2), SwcNode(2, 2, 1, 1, 1, 1, 1)])


@pytest.mark.parametrize("record", [
    "2 2 nan 8.0 8.0 2.0 1", "2 2 8.0 inf 8.0 2.0 1", "2 2 8.0 8.0 -inf 2.0 1",
    "2 2 8.0 8.0 8.0 nan 1", "2 2 8.0 8.0 8.0 -2.0 1", "2 2 8.0 8.0 8.0 0.0 1",
])
def test_parse_rejects_non_finite_values_and_non_positive_radii(record):
    with pytest.raises(SwcFormatError) as err:
        parse_swc(f"# two nodes\n1 2 4.0 4.0 4.0 1.0 -1\n{record}\n")
    assert str(err.value).startswith("line 3:") and record in str(err.value)


def test_parse_serialize_roundtrip():
    text = "\n".join([
        "1 1 0.25 1.125 2.0 1.75 -1",
        "2 2 3.4028 1.0 2.0 0.5 1",
        "3 2 5.0 1.0 2.7182818284590455 0.25 2",
    ])
    m1 = parse_swc(text)
    m2 = parse_swc(serialize_swc(m1))
    assert m1.nodes == m2.nodes


# -- rasterization ---------------------------------------------------------------

def test_sphere_radius2_labels_exactly_33_voxels():
    # lattice-count oracle: points with |p|^2 <= 4 around the center:
    # 1 center + 6 axis (d^2=1) + 12 diagonal (d^2=2) + 8 corner (d^2=3)
    # + 6 axis (d^2=4) = 33
    m = SwcMorphology([SwcNode(1, 1, 8.0, 8.0, 8.0, 2.0, -1)])
    labels = rasterize(m, (16, 16, 16))
    assert int(labels.sum()) == 33


def test_empty_morphology_all_zero():
    labels = rasterize(SwcMorphology([]), (8, 8, 8))
    assert labels.sum() == 0
    assert labels.shape == (8, 8, 8)


def test_capsule_count_matches_analytic_volume():
    # axis-aligned segment: volume = pi r^2 L + 4/3 pi r^3 within +-15%;
    # placed at a generic sub-voxel offset (exact lattice alignment is a
    # measure-zero worst case for thin tubes)
    r, length = 1.5, 20.0
    m = SwcMorphology([
        SwcNode(1, 2, 20.3, 30.15, 8.35, r, -1),
        SwcNode(2, 2, 20.3 + length, 30.15, 8.35, r, 1),
    ])
    labels = rasterize(m, (16, 64, 64))
    expect = math.pi * r * r * length + 4.0 / 3.0 * math.pi * r ** 3
    assert abs(int(labels.sum()) - expect) / expect < 0.15


def test_rasterize_monotone_in_radius():
    nodes = [SwcNode(1, 2, 5.0, 10.0, 7.0, 1.2, -1),
             SwcNode(2, 2, 12.0, 20.0, 9.0, 2.0, 1)]
    small = rasterize(SwcMorphology(nodes), (16, 32, 32))
    grown = [SwcNode(n.id, n.type_code, n.x, n.y, n.z, n.radius + 0.7, n.parent_id)
             for n in nodes]
    big = rasterize(SwcMorphology(grown), (16, 32, 32))
    assert np.all(big >= small)


def test_rasterize_clips_outside_geometry():
    m = SwcMorphology([SwcNode(1, 1, 100.0, 100.0, 100.0, 3.0, -1)])
    labels = rasterize(m, (8, 8, 8))
    assert labels.sum() == 0


def test_rasterize_scale_divides_coordinates():
    # node at physical (x=7, y=7, z=2) with voxel size (1, 0.35, 0.35)
    m = SwcMorphology([SwcNode(1, 1, 7.0, 7.0, 2.0, 1.0, -1)])
    labels = rasterize(m, (8, 32, 32), scale=(1.0, 0.35, 0.35))
    assert labels[2, 20, 20] == 1


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_rasterize_rejects_a_scale_that_is_not_finite_and_positive(bad):
    # zero divides by zero; a negative or NaN size silently labels nothing
    m = SwcMorphology([SwcNode(1, 1, 7.0, 7.0, 2.0, 1.0, -1)])
    with pytest.raises(ValueError, match="finite positive"):
        rasterize(m, (8, 32, 32), scale=(1.0, bad, 1.0))


@pytest.mark.parametrize("node, problem", [
    (SwcNode(3, 2, math.nan, 4.0, 4.0, 1.0, -1), "coordinates and radius must be finite"),
    (SwcNode(3, 2, 4.0, 4.0, math.inf, 1.0, -1), "coordinates and radius must be finite"),
    (SwcNode(3, 2, 4.0, 4.0, 4.0, -1.0, -1), "radius must be > 0"),
    (SwcNode(3, 2, 4.0, 4.0, 4.0, 0.0, -1), "radius must be > 0"),
])
def test_rasterize_rejects_a_node_that_parse_swc_would(node, problem):
    # a NaN coordinate used to fail inside numpy, and a negative radius drew
    # an all-zero volume without a word
    root = SwcNode(1, 1, 2.0, 2.0, 2.0, 1.0, -1)
    node = SwcNode(node.id, node.type_code, node.x, node.y, node.z, node.radius, 1)
    with pytest.raises(ValueError, match=rf"^node 3: {re.escape(problem)}"):
        rasterize(SwcMorphology([root, node]), (8, 8, 8))
    with pytest.raises(SwcFormatError, match=re.escape(problem)):
        parse_swc(serialize_swc(SwcMorphology([root, node])))


# -- cube cutting -----------------------------------------------------------------

def test_cut_pads_the_high_edge_with_zeros():
    v = np.ones((40, 130, 128))
    grid, cubes = partition(v, (32, 128, 128))
    assert grid.padded_extents == (64, 256, 128)
    cube = dict(cubes)[(32, 128, 0)]
    assert cube.shape == (32, 128, 128)
    assert cube[:8, :2].sum() == 8 * 2 * 128 and cube.sum() == 8 * 2 * 128
    assert sum(c.sum() for _, c in cubes) == v.sum()
    recs = cut_cubes(v, v.astype(np.uint8), (32, 128, 128), count=4, seed=1, min_foreground=0.0)
    for r in recs:
        inside = [min(e - o, c) for e, o, c in zip(v.shape, r.origin, (32, 128, 128))]
        assert r.image.shape == r.label.shape == (32, 128, 128)
        assert r.image.sum() == r.label.sum() == math.prod(inside), r.origin


@pytest.mark.parametrize("cube_shape", [(0, 128, 128), (-16, 32, 32)])
def test_cut_rejects_non_positive_extents(cube_shape):
    with pytest.raises(ValueError, match="cube extents must be positive"):
        cut_cubes(np.ones((40, 130, 128)), np.ones((40, 130, 128)), cube_shape)


@pytest.mark.parametrize("cube_shape", [(8, 16), (8, 16, 16, 4)])
def test_cut_rejects_a_cube_shape_of_another_rank(cube_shape):
    with pytest.raises(ValueError, match="does not fit a 3D volume"):
        cut_cubes(np.ones((20, 40, 40)), np.ones((20, 40, 40)), cube_shape)


def _reference_cut_cubes(image, labels, cube_shape, count, seed, min_foreground):
    """`cut_cubes` as it was built on whole padded copies of both volumes."""
    pads = [(0, -(-e // c) * c - e) for e, c in zip(image.shape, cube_shape)]
    image, labels = np.pad(image, pads), np.pad(labels, pads)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count * _RETRY_FACTOR):
        if len(out) == count:
            break
        o = tuple(int(rng.integers(0, e - c + 1)) for e, c in zip(image.shape, cube_shape))
        window = tuple(slice(a, a + c) for a, c in zip(o, cube_shape))
        if np.count_nonzero(labels[window]) / math.prod(cube_shape) >= min_foreground:
            out.append((o, image[window], labels[window]))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_cut_cubes_equal_cutting_a_padded_copy(seed):
    local = np.random.default_rng(seed)
    extents = tuple(int(e) for e in local.integers(9, 40, 3))
    img = local.standard_normal(extents).astype(np.float32)
    lbl = (local.random(extents) < 0.2).astype(np.uint8)
    got = cut_cubes(img, lbl, (8, 16, 16), count=6, seed=seed, min_foreground=0.1)
    want = _reference_cut_cubes(img, lbl, (8, 16, 16), 6, seed, 0.1)
    assert len(got) == len(want) > 0
    # some cube reaches past the high edge, where the padding is cut
    assert any(o + c > e for r in got for o, c, e in zip(r.origin, (8, 16, 16), extents))
    for r, (origin, image, label) in zip(got, want):
        assert r.origin == origin
        assert r.image.dtype == image.dtype and r.image.tobytes() == image.tobytes()
        assert r.label.dtype == label.dtype and r.label.tobytes() == label.tobytes()


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
def test_cut_cubes_never_pads_a_whole_volume():
    # a 40 x 130 x 130 volume pads to 64 x 256 x 256; cutting reads only the
    # cubes it draws, so its peak is the records plus a cube or two
    img = np.ones((40, 130, 130), dtype=np.float32)
    lbl = np.ones(img.shape, dtype=np.uint8)
    tracemalloc.start()
    try:
        recs = cut_cubes(img, lbl, (32, 128, 128), count=2, seed=0, min_foreground=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(r.image.nbytes + r.label.nbytes for r in recs)
    assert peak < kept + 2 * 32 * 128 * 128 * 5, (peak, kept)


def test_cut_exact_size_volume_origin_zero():
    img = rng.standard_normal((8, 16, 16)).astype(np.float32)
    lbl = np.ones((8, 16, 16), dtype=np.uint8)
    records = cut_cubes(img, lbl, (8, 16, 16), count=1, seed=5, min_foreground=0.0)
    assert len(records) == 1
    assert records[0].origin == (0, 0, 0)
    assert np.array_equal(records[0].image, img)


def test_cut_same_seed_same_origins():
    img = rng.standard_normal((16, 32, 32)).astype(np.float32)
    lbl = (rng.random((16, 32, 32)) < 0.2).astype(np.uint8)
    a = cut_cubes(img, lbl, (8, 16, 16), count=5, seed=9, min_foreground=0.0)
    b = cut_cubes(img, lbl, (8, 16, 16), count=5, seed=9, min_foreground=0.0)
    assert [r.origin for r in a] == [r.origin for r in b]


def test_cut_exhaustion_returns_empty(caplog):
    img = np.zeros((8, 16, 16), dtype=np.float32)
    lbl = np.zeros((8, 16, 16), dtype=np.uint8)
    with caplog.at_level(logging.WARNING):
        records = cut_cubes(img, lbl, (8, 16, 16), count=3, seed=0, min_foreground=1.0)
    assert records == []
    assert any("achieved 0 of 3" in rec.getMessage() for rec in caplog.records)


def test_cut_origins_within_bounds_fuzz():
    img = rng.standard_normal((20, 40, 40)).astype(np.float32)
    lbl = np.ones((20, 40, 40), dtype=np.uint8)
    for seed in range(1000):
        recs = cut_cubes(img, lbl, (8, 16, 16), count=1, seed=seed, min_foreground=0.0)
        oz, oy, ox = recs[0].origin
        # padded volume is 24 x 48 x 48
        assert 0 <= oz <= 24 - 8 and 0 <= oy <= 48 - 16 and 0 <= ox <= 48 - 16


def test_cut_respects_min_foreground():
    lbl = np.zeros((8, 32, 32), dtype=np.uint8)
    lbl[:, :16, :] = 1  # half foreground on one side
    img = lbl.astype(np.float32)
    recs = cut_cubes(img, lbl, (8, 16, 16), count=4, seed=3, min_foreground=0.5)
    assert all(r.label.mean() >= 0.5 for r in recs)


# -- phantoms ---------------------------------------------------------------------

def test_phantom_noise_free_image_equals_labels():
    cfg = PhantomConfig(extents=(16, 32, 32), tube_count=2, seed=4)
    image, labels = generate_phantom(cfg)
    assert np.array_equal((image > 0.5).astype(np.uint8), labels)


def test_phantom_zero_tubes_all_background():
    image, labels = generate_phantom(PhantomConfig(extents=(8, 16, 16), tube_count=0))
    assert labels.sum() == 0
    assert np.all(image == 0.0)


def test_phantom_same_seed_bitwise_identical():
    cfg = PhantomConfig(extents=(16, 32, 32), tube_count=3, noise_sigma=0.3,
                        impulse_fraction=0.05, seed=12)
    a_img, a_lbl = generate_phantom(cfg)
    b_img, b_lbl = generate_phantom(cfg)
    assert a_img.tobytes() == b_img.tobytes()
    assert a_lbl.tobytes() == b_lbl.tobytes()


def test_phantom_labels_invariant_to_noise():
    base = dict(extents=(16, 32, 32), tube_count=3, seed=23)
    _, clean = generate_phantom(PhantomConfig(**base))
    _, noisy = generate_phantom(PhantomConfig(**base, noise_sigma=0.5,
                                              impulse_fraction=0.1))
    assert np.array_equal(clean, noisy)


def test_phantom_gaps_zero_image_keep_labels():
    base = dict(extents=(16, 32, 32), tube_count=2, seed=8)
    img0, lbl0 = generate_phantom(PhantomConfig(**base))
    img1, lbl1 = generate_phantom(PhantomConfig(**base, gap_count=4, gap_length=6))
    assert np.array_equal(lbl0, lbl1)
    zeroed = (img0 == 1.0) & (img1 == 0.0)
    assert zeroed.sum() > 0


def test_phantom_impulse_fraction_changes_voxels():
    base = dict(extents=(16, 32, 32), tube_count=2, seed=8)
    img0, _ = generate_phantom(PhantomConfig(**base))
    img1, _ = generate_phantom(PhantomConfig(**base, impulse_fraction=0.05))
    changed = (img0 != img1).mean()
    assert 0.0 < changed <= 0.05 + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_phantom_binary_labels_property(seed):
    cfg = PhantomConfig(extents=(8, 16, 16), tube_count=2, seed=seed)
    image, labels = generate_phantom(cfg)
    assert set(np.unique(labels)) <= {0, 1}
    assert image.shape == labels.shape == (8, 16, 16)
