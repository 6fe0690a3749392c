import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deepnarrow.activations import get_activation
from deepnarrow.core import (JSON_CHUNK, MAX_SAMPLE_POINTS, AffineArrays, CompactBox,
                             ComplexAffineMap, Cvnn, GridSpec, cvnn_from_json, cvnn_to_json, depth_of, eval_affine,
                             eval_cvnn, eval_cvnns, fuse_affine, hidden_widths, max_coeff,
                             sample_box, width_of)
from deepnarrow.errors import DimensionMismatch, EvaluationFailure

from conftest import random_affine, random_points, random_shallow


def test_eval_affine_identity():
    amap = ComplexAffineMap([[1]], [0])
    assert eval_affine(amap, np.array([3 + 4j]))[0] == 3 + 4j


def test_eval_affine_rotation_plus_bias():
    amap = ComplexAffineMap([[1j]], [1])
    assert eval_affine(amap, np.array([1 + 0j]))[0] == 1 + 1j


def test_eval_affine_row_sum():
    # hand arithmetic: 1*2 + 1*3i - 1 = 1 + 3i
    amap = ComplexAffineMap([[1, 1]], [-1])
    assert eval_affine(amap, np.array([2 + 0j, 3j]))[0] == 1 + 3j


def test_eval_affine_dim_mismatch():
    amap = ComplexAffineMap([[1, 1]], [0])
    with pytest.raises(DimensionMismatch):
        eval_affine(amap, np.array([1 + 0j]))


def test_affine_rejects_nonfinite():
    with pytest.raises(ValueError):
        ComplexAffineMap([[np.inf]], [0])
    with pytest.raises(ValueError):
        ComplexAffineMap([[1]], [np.nan * 1j])
    # a complex entry is finite iff both of its parts are
    for bad in (complex(np.inf, 0), complex(-np.inf, 1), complex(np.nan, 0),
                complex(0, np.inf), complex(1, -np.inf), complex(0, np.nan)):
        with pytest.raises(ValueError, match="non-finite entries in affine matrix"):
            ComplexAffineMap(np.array([[1, bad], [0, 1]]), [0, 0])
        with pytest.raises(ValueError, match="non-finite entries in affine bias"):
            ComplexAffineMap(np.eye(2), np.array([0, bad]))
    ComplexAffineMap([[complex(1e308, -1e308)]], [complex(-1e308, 5e-324)])


def test_affine_is_immutable():
    amap = ComplexAffineMap([[1.0]], [0.0])
    with pytest.raises(ValueError):
        amap.matrix[0, 0] = 2.0


def test_eval_cvnn_identity_net():
    ident = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    eye = ComplexAffineMap(np.eye(2), np.zeros(2))
    net = Cvnn((eye, eye), ident.activation_id)
    zs = random_points(np.random.default_rng(0), 20, 2)
    assert np.allclose(eval_cvnn(net, zs, ident.fn), zs)


def test_eval_cvnn_real_affine_activation_gives_real_affine_map(rng):
    # composition of R-affine maps is R-affine: exact identity over real
    # convex/affine combinations
    spec = get_activation("r_affine", {"a": 2, "b": 1, "c": 1})
    net = Cvnn(
        (random_affine(rng, 4, 2), random_affine(rng, 3, 4), random_affine(rng, 2, 3)),
        spec.activation_id)
    x = random_points(rng, 1, 2)[0]
    y = random_points(rng, 1, 2)[0]
    for alpha in (-1.0, 0.25, 0.5, 2.0):
        lhs = eval_cvnn(net, alpha * x + (1 - alpha) * y, spec.fn)
        rhs = alpha * eval_cvnn(net, x, spec.fn) + (1 - alpha) * eval_cvnn(net, y, spec.fn)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_fuse_affine_identity_absorption(rng):
    m = random_affine(rng, 3, 3)
    eye = ComplexAffineMap(np.eye(3), np.zeros(3))
    for fused in (fuse_affine(eye, m), fuse_affine(m, eye)):
        assert np.allclose(fused.matrix, m.matrix)
        assert np.allclose(fused.bias, m.bias)


def test_fuse_affine_matches_sequential_eval(rng):
    a = random_affine(rng, 3, 2)
    b = random_affine(rng, 2, 4)
    fused = fuse_affine(a, b)
    zs = random_points(rng, 100, 4)
    want = eval_affine(a, eval_affine(b, zs))
    got = eval_affine(fused, zs)
    assert np.max(np.abs(want - got)) < 1e-12


def test_fuse_affine_dim_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        fuse_affine(random_affine(rng, 3, 2), random_affine(rng, 3, 4))


def test_width_depth_single_hidden(rng):
    card = get_activation("cardioid")
    net = random_shallow(rng, 2, 1, 5, card.activation_id)
    assert width_of(net) == 5
    assert depth_of(net) == 2
    assert hidden_widths(net) == (5,)


def test_width_counts_input_output_dims(rng):
    card = get_activation("cardioid")
    net = random_shallow(rng, 7, 1, 3, card.activation_id)
    assert width_of(net) == 7


def test_sample_box_lattice_corners():
    box = CompactBox.square(1, 1.0)
    pts = sample_box(box, GridSpec(3))
    assert pts.shape == (9, 1)
    vals = set(np.round(pts[:, 0], 12))
    for corner in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
        assert corner in vals


def _meshgrid_lattice(box, spec):
    """The lattice built from meshgrid copies of the 2n axes."""
    axes = [np.linspace(lo, hi, spec.points_per_axis)[::spec.stride]
            for re_lo, re_hi, im_lo, im_hi in box.intervals
            for lo, hi in ((re_lo, re_hi), (im_lo, im_hi))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mesh[2 * j].ravel() + 1j * mesh[2 * j + 1].ravel()
                     for j in range(box.n)], axis=1)


@pytest.mark.parametrize("box", [
    CompactBox.square(1, 1.0),
    CompactBox.square(2, 1.0),
    CompactBox(((-1.0, 2.0, -0.5, 0.25),)),
    CompactBox(((-1.0, 2.0, -0.5, 0.25), (0.1, 0.3, -3.0, -1.0))),
], ids=["square-1", "square-2", "box-1", "box-2"])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_sample_box_equals_the_meshgrid_lattice_bit_for_bit(box, stride):
    for points in (2, 7, 18):
        spec = GridSpec(points, stride)
        want = _meshgrid_lattice(box, spec)
        got = sample_box(box, spec)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sample_box_degenerate():
    box = CompactBox(((0.5, 0.5, -0.25, -0.25),))
    pts = sample_box(box, GridSpec(3))
    assert np.all(pts == 0.5 - 0.25j)


@pytest.mark.parametrize("n, points_per_axis", [(1, 2049), (2, 46), (3, 13), (3, 18)])
def test_sample_box_refuses_grids_above_budget_before_allocating(n, points_per_axis):
    import tracemalloc

    count = points_per_axis ** (2 * n)
    assert count > MAX_SAMPLE_POINTS
    box = CompactBox.square(n, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{count} points \\({count * n * 16} bytes"):
            sample_box(box, GridSpec(points_per_axis))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sample_box_accepts_the_largest_grids_in_use():
    # 21^4 (an n = 2 fit grid) is the largest grid the tests and the benchmark
    # sample; the n = 2 verification lattice is 18^4
    assert sample_box(CompactBox.square(2, 1.0), GridSpec(21)).shape == (21 ** 4, 2)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1)
    with pytest.raises(ValueError):
        GridSpec(3, stride=0)
    with pytest.raises(ValueError):
        CompactBox(((1.0, 0.0, 0.0, 1.0),))


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", range(4))
def test_compact_box_refuses_a_bound_that_is_not_finite(bound, slot):
    """A NaN bound passed the lo <= hi check, and an infinite one sampled a
    lattice of NaN and infinite points."""
    iv = [-1.0, 1.0, -1.0, 1.0]
    iv[slot] = bound
    with pytest.raises(ValueError, match="box bounds must be finite"):
        CompactBox(((0.0, 1.0, 0.0, 1.0), tuple(iv)))


def test_serialization_round_trip_bit_exact(rng):
    spec = get_activation("modrelu", {"b": -1.0})
    net = Cvnn((random_affine(rng, 4, 2), random_affine(rng, 4, 4),
                random_affine(rng, 1, 4)), spec.activation_id)
    text = cvnn_to_json(net)
    back = cvnn_from_json(text)
    assert width_of(back) == width_of(net)
    assert depth_of(back) == depth_of(net)
    for a, b in zip(net.affine_maps, back.affine_maps):
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.bias, b.bias)
    assert back.activation == net.activation
    # byte-stable re-serialization
    assert cvnn_to_json(back) == text


def test_serialization_schema_fields(rng):
    spec = get_activation("cardioid")
    net = random_shallow(rng, 2, 1, 3, spec.activation_id)
    doc = json.loads(cvnn_to_json(net))
    assert doc["input_dim"] == 2 and doc["output_dim"] == 1
    assert doc["activation"]["name"] == "cardioid"
    first = doc["affine_maps"][0]
    assert first["rows"] == 3 and first["cols"] == 2
    assert len(first["matrix"]) == 6 and len(first["matrix"][0]) == 2
    assert len(first["bias"]) == 3


def _whole_document(net):
    """The network's JSON document built whole and dumped by one call."""
    maps = [{"rows": a.out_dim, "cols": a.in_dim,
             "matrix": [[float(x.real), float(x.imag)] for x in a.matrix.ravel()],
             "bias": [[float(x.real), float(x.imag)] for x in a.bias]} for a in net.affine_maps]
    params = {k: [v.real, v.imag] if isinstance(v, complex) else v
              for k, v in net.activation.params}
    doc = {"input_dim": net.input_dim, "output_dim": net.output_dim,
           "activation": {"name": net.activation.name, "params": params},
           "affine_maps": maps}
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("square_runs", [(5,), (2 * JSON_CHUNK + 5,),
                                         (JSON_CHUNK - 2, JSON_CHUNK)])
def test_chunked_json_is_one_dump_of_the_whole_document(rng, square_runs):
    """The maps dumped a chunk at a time and spliced in give the text of one
    json.dumps of the whole document: for one chunk, for a run longer than
    two chunks, and for chunks that end at a run's end and inside a run;
    the activation's params are complex.  The text reads back to the
    network and writes itself again."""
    spec = get_activation("r_affine", {"a": 2 - 0.5j, "b": 0.25j, "c": -1})
    maps, width = [], 2
    for k, length in enumerate(square_runs):
        maps.append(random_affine(rng, 3 + k, width))
        width = 3 + k
        maps += [random_affine(rng, width, width) for _ in range(length)]
    maps.append(random_affine(rng, 1, width))
    lengths = [n for length in square_runs for n in (1, length)] + [1]
    net = Cvnn(maps, spec.activation_id)
    assert [len(m) for m, _ in net.runs] == list(lengths)
    text = cvnn_to_json(net)
    assert text == _whole_document(net)
    back = cvnn_from_json(text)
    assert back.activation == net.activation
    assert all(a.tobytes() == b.tobytes()
               for (ma, ba), (mb, bb) in zip(net.runs, back.runs) for a, b in ((ma, mb), (ba, bb)))
    assert cvnn_to_json(back) == text


def test_chunked_json_of_a_deep_network_traces_under_a_megabyte_and_a_half():
    """The NonPoly_NMplus1 network of a 1,000-layer program (depth 1,001,
    width 3, 287 kB of text) is written holding the text, its chunks and
    the lists of one chunk, not the lists of every map."""
    import tracemalloc

    from deepnarrow.lowering import lower
    from deepnarrow.register import shallow_to_register

    card = get_activation("cardioid")
    program = shallow_to_register(random_shallow(np.random.default_rng(0), 1, 1, 1000,
                                                 card.activation_id))
    net = lower(program, card, "NonPoly_NMplus1", 1e-3)
    assert (depth_of(net), width_of(net)) == (1001, 3)
    text = cvnn_to_json(net)
    tracemalloc.start()
    try:
        assert cvnn_to_json(net) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_eval_cvnn_identity_block_net():
    # a depth-2 net built from the width-1 identity localization at z0 = 1:
    # pre z -> 1 + h z, post w -> (w - card(1)) / h
    from deepnarrow.blocks import identity_block
    from deepnarrow.wirtinger import ToleranceProfile, point_row

    card = get_activation("cardioid")
    net = identity_block(point_row(card, 1.0, ToleranceProfile(), "d"), 1e-3).to_cvnn(card)
    pts = sample_box(CompactBox.square(1, 1.0), GridSpec(9))
    err = np.max(np.abs(eval_cvnn(net, pts, card.fn) - pts))
    assert err < 1e-2


def test_cvnn_dimension_chain_enforced(rng):
    card = get_activation("cardioid")
    with pytest.raises(DimensionMismatch):
        Cvnn((random_affine(rng, 3, 2), random_affine(rng, 1, 4)), card.activation_id)
    with pytest.raises(DimensionMismatch):
        Cvnn((random_affine(rng, 3, 2),), card.activation_id)


# ---------------------------------------------------------------------------
# Networks held as runs of stacked maps, evaluated together
# ---------------------------------------------------------------------------


def _eval_map_by_map(net, z, fn):
    """The forward pass one map at a time: the reference the batched pass
    must equal bit for bit."""
    cur = np.asarray(z, dtype=np.complex128)
    maps = net.affine_maps
    with np.errstate(over="ignore", invalid="ignore"):
        for k, amap in enumerate(maps):
            cur = cur @ amap.matrix.T
            cur += amap.bias
            if k < len(maps) - 1:
                cur = np.asarray(fn(cur), dtype=np.complex128)
                if not np.all(np.isfinite(cur)):
                    return k
    return cur


#: cardioid, but inf wherever the real part is above 1e6: a network whose
#: preactivation goes there at some layer fails from that layer on.
_CARD = get_activation("cardioid")


def _card_or_inf(z):
    return np.where(z.real > 1e6, np.inf, _CARD.fn(z))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4),
       dims=st.lists(st.integers(1, 4), min_size=3, max_size=7),
       points=st.integers(1, 40), bad=st.integers(-1, 3), data=st.data())
def test_batched_pass_equals_each_network_alone(seed, count, dims, points, bad, data):
    """eval_cvnns over H networks of one shape gives, for every network, the
    values of the map-by-map pass bit for bit.  A network whose activation
    goes non-finite gets inf values, the others are unchanged, and on its
    own it raises the EvaluationFailure that names the map."""
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(count):
        maps = [random_affine(rng, out, inp, 0.5) for inp, out in zip(dims, dims[1:])]
        nets.append(Cvnn(maps, _CARD.activation_id))
    fail_at = None
    if 0 <= bad < count:
        fail_at = data.draw(st.integers(0, len(dims) - 3), label="fail_at")
        maps = list(nets[bad].affine_maps)
        maps[fail_at] = AffineArrays(maps[fail_at].matrix, maps[fail_at].bias + 1e8)
        nets[bad] = Cvnn(maps, _CARD.activation_id)
    zs = random_points(rng, points, dims[0])
    values, failed_at = eval_cvnns(nets, zs, _card_or_inf)
    assert values.shape == (count, points, dims[-1])
    for k, net in enumerate(nets):
        want = _eval_map_by_map(net, zs, _card_or_inf)
        if k == bad:
            assert want == fail_at and failed_at[k] == fail_at
            assert np.all(values[k] == np.inf)
            with pytest.raises(EvaluationFailure,
                               match=f"non-finite values after affine map {fail_at}$"):
                eval_cvnn(net, zs, _card_or_inf)
        else:
            assert failed_at[k] == -1
            assert values[k].tobytes() == want.tobytes()
            assert eval_cvnn(net, zs, _card_or_inf).tobytes() == want.tobytes()
    # each network's own points, as an (H, N, in) batch
    per_net = np.stack([random_points(rng, points, dims[0]) for _ in nets])
    values, _ = eval_cvnns(nets, per_net, _card_or_inf)
    for k, net in enumerate(nets):
        if k != bad:
            assert values[k].tobytes() == _eval_map_by_map(net, per_net[k], _card_or_inf).tobytes()


def _exp_re_or_zero(z):
    """exp(Re z), and 0 at a non-finite z, as exp sends a real part of -inf
    to 0 (how a matmul carries inf on, to -inf or NaN, depends on the BLAS
    kernel)."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(z), np.exp(z.real), 0).astype(np.complex128)


def test_failure_is_caught_at_its_map_when_later_values_are_finite_again(rng):
    """One network's activation overflows to inf after map 1, and its next
    activation call is finite again (0) on whatever map 2 makes of inf: a
    finiteness test that ran only at some later map would miss the failure.
    failed_at still names map 1, and the other network keeps its bits."""
    exp_re = get_activation("exp_re")
    good = [random_affine(rng, 2, 2, 0.5) for _ in range(3)] + [random_affine(rng, 1, 2, 0.5)]
    bad = list(good)
    bad[1] = AffineArrays(good[1].matrix, good[1].bias + np.array([1000.0, 0.0]))
    nets = [Cvnn(good, exp_re.activation_id), Cvnn(bad, exp_re.activation_id)]
    zs = random_points(rng, 30, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(_exp_re_or_zero(bad[2].matrix @ np.array([np.inf, 1.0]))).all()
    values, failed_at = eval_cvnns(nets, zs, _exp_re_or_zero)
    assert failed_at.tolist() == [-1, 1]
    assert np.all(values[1] == np.inf)
    want = _eval_map_by_map(nets[0], zs, _exp_re_or_zero)
    assert values[0].tobytes() == want.tobytes()
    assert eval_cvnn(nets[0], zs, _exp_re_or_zero).tobytes() == want.tobytes()
    assert _eval_map_by_map(nets[1], zs, _exp_re_or_zero) == 1
    with pytest.raises(EvaluationFailure, match="non-finite values after affine map 1$"):
        eval_cvnn(nets[1], zs, _exp_re_or_zero)


def test_a_sum_of_squares_that_overflows_from_finite_values_is_no_failure(rng):
    """Activation outputs near 1e200 are finite, but their sum of squared
    moduli overflows, so the one-dot test of the layer sends them to the
    per-network test.  That test finds nothing: failed_at stays -1 and the
    values are the map-by-map pass's, for the network alone and stacked
    with one whose activation does go non-finite (after map 1)."""
    big = [AffineArrays(random_affine(rng, 3, 1, 0.5).matrix, np.full(3, 1e200 + 0j)),
           random_affine(rng, 3, 3, 0.5), random_affine(rng, 1, 3, 0.5)]
    failing = list(big)
    failing[1] = AffineArrays(np.full((3, 3), 1e200 + 0j), big[1].bias)
    big, failing = (Cvnn(maps, _CARD.activation_id) for maps in (big, failing))
    zs = random_points(rng, 20, 1)
    hidden = _CARD.fn(eval_affine(big.affine_maps[0], zs))
    assert np.isfinite(hidden).all() and not np.isfinite(np.vdot(hidden, hidden))
    want = _eval_map_by_map(big, zs, _CARD.fn)
    assert np.isfinite(want).all()
    assert _eval_map_by_map(failing, zs, _CARD.fn) == 1
    values, failed_at = eval_cvnns((big,), zs, _CARD.fn)
    assert failed_at.tolist() == [-1]
    assert values[0].tobytes() == want.tobytes()
    assert eval_cvnn(big, zs, _CARD.fn).tobytes() == want.tobytes()
    for nets, good in (((big, failing), 0), ((failing, big), 1)):
        values, failed_at = eval_cvnns(nets, zs, _CARD.fn)
        assert failed_at[good] == -1 and failed_at[1 - good] == 1
        assert values[good].tobytes() == want.tobytes()
        assert np.all(values[1 - good] == np.inf)


def test_a_deep_narrow_run_equals_the_map_by_map_pass():
    """One run of 600 width-3 maps, the shape of a NonPoly_NMplus1 network,
    gives the map-by-map pass's values bit for bit: alone, stacked with two
    other networks, and through eval_cvnn on one point and on one row (each
    against the map-by-map pass on that (1, in) row)."""
    rng = np.random.default_rng(7)
    nets = []
    for _ in range(3):
        # unitary maps scaled by 2 keep the values near 1 and apart from point to point
        unitary = np.linalg.qr(rng.standard_normal((600, 3, 3))
                               + 1j * rng.standard_normal((600, 3, 3)))[0]
        run = AffineArrays(2.0 * unitary, 0.1 * random_points(rng, 600, 3))
        nets.append(Cvnn([random_affine(rng, 3, 1), run, random_affine(rng, 1, 3)],
                         _CARD.activation_id))
    assert [m.shape for m, _ in nets[0].runs] == [(1, 3, 1), (600, 3, 3), (1, 1, 3)]
    zs = random_points(rng, 40, 1)
    wants = [_eval_map_by_map(net, zs, _CARD.fn) for net in nets]
    assert len(np.unique(wants[0])) == len(zs)
    stacked, failed_at = eval_cvnns(nets, zs, _CARD.fn)
    assert failed_at.tolist() == [-1] * 3
    for net, want, values in zip(nets, wants, stacked):
        assert values.tobytes() == want.tobytes()
        assert eval_cvnns((net,), zs, _CARD.fn)[0][0].tobytes() == want.tobytes()
        assert eval_cvnn(net, zs, _CARD.fn).tobytes() == want.tobytes()
        one_row = _eval_map_by_map(net, zs[:1], _CARD.fn)
        assert eval_cvnn(net, zs[:1], _CARD.fn).tobytes() == one_row.tobytes()
        assert eval_cvnn(net, zs[0], _CARD.fn).tobytes() == one_row[0].tobytes()


@pytest.mark.parametrize("count", [1, 3])
def test_one_activation_call_per_hidden_layer(rng, count):
    """A pass over H networks calls the activation once per hidden layer,
    on that layer's values of all H networks, and not after the last map."""
    dims = (2, 3, 4, 4, 4, 5, 1)
    nets = [Cvnn([random_affine(rng, out, inp, 0.5) for inp, out in zip(dims, dims[1:])],
                 _CARD.activation_id) for _ in range(count)]
    zs = random_points(rng, 9, 2)
    shapes = []

    def counting(z):
        shapes.append(z.shape)
        return _CARD.fn(z)

    eval_cvnns(nets, zs, counting)
    lead = () if count == 1 else (count,)
    assert len(shapes) == depth_of(nets[0]) - 1
    assert shapes == [lead + (len(zs), width) for width in hidden_widths(nets[0])]


def test_batched_pass_refuses_mismatched_shapes(rng):
    a = random_shallow(rng, 2, 1, 3, _CARD.activation_id)
    b = random_shallow(rng, 2, 1, 4, _CARD.activation_id)
    with pytest.raises(DimensionMismatch):
        eval_cvnns([a, b], random_points(rng, 5, 2))
    for z in (random_points(rng, 5, 3), np.zeros((3, 5, 2)), np.zeros(2)):
        with pytest.raises(DimensionMismatch):
            eval_cvnns([a, a], z)


def test_runs_group_consecutive_maps_of_one_shape(rng):
    maps = [random_affine(rng, 3, 2)] + [random_affine(rng, 3, 3) for _ in range(4)]
    maps += [random_affine(rng, 1, 3)]
    net = Cvnn(maps, _CARD.activation_id)
    assert [m.shape for m, _ in net.runs] == [(1, 3, 2), (4, 3, 3), (1, 1, 3)]
    assert depth_of(net) == 6 and hidden_widths(net) == (3,) * 5
    assert max_coeff(net) == max(float(np.max(np.abs(a.matrix))) for a in maps)
    for a, b in zip(maps, net.affine_maps):
        assert a.matrix.tobytes() == b.matrix.tobytes() and a.bias.tobytes() == b.bias.tobytes()
    with pytest.raises(ValueError):
        net.runs[1][0][0, 0, 0] = 0
    # bare stacks form the same runs, each checked once for non-finite entries
    stacked = AffineArrays(np.stack([a.matrix for a in maps[1:5]]),
                           np.stack([a.bias for a in maps[1:5]]))
    assert cvnn_to_json(Cvnn([maps[0], stacked, maps[5]], _CARD.activation_id)) == cvnn_to_json(net)
    bad = stacked.matrix.copy()
    bad[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite entries in affine run 1"):
        Cvnn([maps[0], stacked._replace(matrix=bad), maps[5]], _CARD.activation_id)
    # a run of several maps must chain to itself
    with pytest.raises(DimensionMismatch):
        Cvnn([random_affine(rng, 3, 2), random_affine(rng, 3, 2)], _CARD.activation_id)
