import numpy as np
import pytest

from deepnarrow.activations import available_activations, custom_activation, get_activation
from deepnarrow.blocks import (conj_block, id_conj_pair_block, identity_block, mul_block,
                               pair_block, routed_pair_block, square_block, mul_apply)
from deepnarrow.core import CompactBox, GridSpec, eval_cvnn, sample_box
from deepnarrow.errors import ConstructionError
from deepnarrow.wirtinger import ToleranceProfile, probe_atlas

from conftest import block_sup_error, block_values

PROF = ToleranceProfile()
BOX = CompactBox.square(1, 1.0)
GRID = GridSpec(9)
BIBOX = CompactBox.square(2, 1.0)
BIGRID = GridSpec(4)

T_ID = lambda zs: zs
T_CONJ = lambda zs: np.conj(zs)
T_PAIR = lambda zs: np.hstack([zs, np.conj(zs)])
T_ZZBAR = lambda zs: zs * np.conj(zs)
T_Z2 = lambda zs: zs**2
T_ZBAR2 = lambda zs: np.conj(zs) ** 2


def zbar_plus_zsq():
    # conj(z) + z^2: d = 2z (0 at the origin), dbar = 1
    return custom_activation(
        "zbar_plus_zsq", lambda z: np.conj(z) + z**2,
        analytic_first=lambda z0: (2 * z0, 1 + 0j),
        analytic_second=lambda z0: (2 + 0j, 0j, 0j))


def test_identity_block_exact_for_affine():
    ident = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    blk = identity_block(ident, 0.3 + 0.1j, 0.5, PROF)
    assert block_sup_error(blk, ident, T_ID, BOX, GRID) < 1e-12


def test_identity_block_cardioid_h_sweep_decreasing():
    card = get_activation("cardioid")
    errs = [block_sup_error(identity_block(card, 1.0, h, PROF), card, T_ID, BOX, GRID)
            for h in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_identity_block_preconditions():
    mr = get_activation("modrelu", {"b": -1})
    with pytest.raises(ConstructionError):
        identity_block(mr, 2.0, 1e-3, PROF)  # both derivatives nonzero there


def test_conj_block_exact_for_conjugation():
    conj = get_activation("r_affine", {"a": 0, "b": 1, "c": 0})
    blk = conj_block(conj, -0.2 + 0.4j, 0.25, PROF)
    assert block_sup_error(blk, conj, T_CONJ, BOX, GRID) < 1e-12


def test_conj_block_rejects_mixed_point():
    zb = get_activation("z_plus_zbar_sq")  # d = 1 everywhere
    with pytest.raises(ConstructionError):
        conj_block(zb, 0.5 + 0.5j, 1e-3, PROF)


def test_conj_block_zbar_plus_zsq_at_origin():
    spec = zbar_plus_zsq()
    blk = conj_block(spec, 0.0, 1e-3, PROF)
    assert block_sup_error(blk, spec, T_CONJ, BOX, GRID) < 1e-2


def test_pair_block_exact_for_z_plus_zbar():
    spec = get_activation("r_affine", {"a": 1, "b": 1, "c": 0})
    blk = pair_block(spec, 0.0, 0.5, PROF)
    assert block_sup_error(blk, spec, T_PAIR, BOX, GRID) <= 1e-12


def test_pair_block_modrelu_sweep_decreasing():
    mr = get_activation("modrelu", {"b": -1})
    errs = []
    for h in (1e-1, 1e-2, 1e-3):
        blk = pair_block(mr, 2.0, h, PROF)
        pts = sample_box(BOX, GRID)
        got = block_values(blk, mr, pts)
        want = T_PAIR(pts)
        comp = np.max(np.abs(got - want), axis=0)
        errs.append(comp)
    errs = np.array(errs)
    assert np.all(errs[1] < errs[0]) and np.all(errs[2] < errs[1])


def test_pair_block_re_square():
    rs = get_activation("re_square")
    blk = pair_block(rs, 1.0, 1e-3, PROF)
    assert block_sup_error(blk, rs, T_PAIR, BOX, GRID) < 1e-2


def test_id_conj_pair_routes_to_pair_for_re_square():
    rs = get_activation("re_square")
    blk = id_conj_pair_block(rs, PROF, 1e-3)
    assert len(blk.z0) == 1  # single-point pair route
    assert block_sup_error(blk, rs, T_PAIR, BOX, GRID) < 1e-2


def test_id_conj_pair_routes_to_pair_for_z_plus_zbar_sq():
    # points with both derivatives nonzero exist (d = 1, dbar = 2 conj z), so
    # the single-point pair block is used; the two-point branch stays reserved
    # for activations whose derivative patterns never overlap
    zb = get_activation("z_plus_zbar_sq")
    blk = id_conj_pair_block(zb, PROF, 1e-3)
    assert len(blk.z0) == 1
    assert block_sup_error(blk, zb, T_PAIR, BOX, GRID) < 1e-2


def test_id_conj_pair_two_point_construction():
    # z cos(pi RE z): lone-d at the origin, lone-dbar near 0.343 on the real
    # axis; restrict the probe grid to those points so the two-point branch
    # actually fires
    def fn(z):
        return z * np.cos(np.pi * np.real(z))

    spec = custom_activation("zcos", fn)
    # root of cos(pi x) - x pi sin(pi x)/2 = 0 via bisection (d = 0 there)
    lo, hi = 0.3, 0.4
    g = lambda x: np.cos(np.pi * x) - x * np.pi * np.sin(np.pi * x) / 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    x_star = (lo + hi) / 2
    prof = ToleranceProfile(probe_box=CompactBox(((-x_star, x_star, 0.0, 0.0),)),
                            probe_grid=GridSpec(3))
    blk = id_conj_pair_block(spec, prof, 1e-4)
    assert len(blk.z0) == 2
    small = CompactBox.square(1, 0.5)
    assert block_sup_error(blk, spec, T_PAIR, small, GRID) < 1e-2


def test_id_conj_pair_rejects_affine():
    aff = get_activation("r_affine", {"a": 2, "b": 0, "c": 1})
    with pytest.raises(ConstructionError):
        id_conj_pair_block(aff, PROF, 1e-3)


@pytest.mark.parametrize("route", [
    (1 + 0j, 0j),        # both derivatives nonzero at 1, a lone d at 0
    (0j, 0j),            # a lone d where the conjugation block goes
    (1 + 0j, -1 + 1j),   # two points with both derivatives nonzero
    (0j,),               # the pair block at a lone-d point
])
def test_routed_pair_rejects_a_bad_route(route):
    # z + conj(z)^2: d = 1 everywhere, dbar = 2 conj(z)
    with pytest.raises(ConstructionError):
        routed_pair_block(get_activation("z_plus_zbar_sq"), route, 1e-3, PROF)


@pytest.mark.parametrize("name", [*available_activations(),
                                  *(f"conj:{n}" for n in available_activations())])
def test_first_order_blocks_build_exactly_on_their_atlas_pattern(name):
    """identity, conjugation and pair blocks build where the atlas pattern is
    d, dbar and both respectively, and raise ConstructionError elsewhere."""
    spec = get_activation(name)
    atlas = probe_atlas(spec, PROF)
    for i in range(len(atlas)):
        z0 = atlas.first(i)[0]
        for build, pattern in ((identity_block, "d"), (conj_block, "dbar"),
                               (pair_block, "both")):
            if atlas.pattern(i) == pattern:
                assert build(spec, z0, 1e-3, PROF).z0 == (z0,)
            else:
                with pytest.raises(ConstructionError):
                    build(spec, z0, 1e-3, PROF)


def test_square_block_selection_and_exactness():
    rs = get_activation("re_square")
    blk, which = square_block(rs, 0.0, 0.7, PROF)
    assert which == "zzbar"
    assert block_sup_error(blk, rs, T_ZZBAR, BOX, GRID) < 1e-10

    zsq = custom_activation("zsq", lambda z: z**2,
                            analytic_second=lambda z0: (2 + 0j, 0j, 0j))
    blk, which = square_block(zsq, 0.0, 0.7, PROF)
    assert which == "z2"
    assert block_sup_error(blk, zsq, T_Z2, BOX, GRID) < 1e-10

    zb = get_activation("z_plus_zbar_sq")
    blk, which = square_block(zb, 0.0, 0.7, PROF)
    assert which == "zbar2"
    assert blk.width == 4  # two live neurons plus two zero pads
    assert block_sup_error(blk, zb, T_ZBAR2, BOX, GRID) < 1e-10


def test_square_block_rejects_affine():
    aff = get_activation("r_affine", {"a": 1, "b": 1, "c": 0})
    with pytest.raises(ConstructionError):
        square_block(aff, 0.5, 1e-2, PROF)


def test_polarization_identity_numeric():
    # (1/4+i/4)|z+w|^2 + (-1/4+i/4)|z-w|^2 - (i/2)|z-iw|^2 == z conj(w)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = ((0.25 + 0.25j) * abs(z + w) ** 2
               + (-0.25 + 0.25j) * abs(z - w) ** 2
               - 0.5j * abs(z - 1j * w) ** 2)
        assert abs(lhs - z * np.conj(w)) < 1e-12
    # the spec's spot check: z=1, w=i gives -i
    lhs = ((0.25 + 0.25j) * abs(1 + 1j) ** 2 + (-0.25 + 0.25j) * abs(1 - 1j) ** 2
           - 0.5j * abs(1 - 1j * 1j) ** 2)
    assert abs(lhs - (-1j)) < 1e-12
    assert abs(lhs - 1 * np.conj(1j)) < 1e-12


def test_mul_block_re_square():
    rs = get_activation("re_square")
    blk, kind = mul_block(rs, 0.0, 1e-2, PROF)
    assert kind == "mul2" and blk.width == 12
    target = lambda zs: (zs[:, 0] * np.conj(zs[:, 1]))[:, None]
    assert block_sup_error(blk, rs, target, BIBOX, BIGRID) < 1e-2


def test_mul_block_z_plus_zbar_sq_exact():
    zb = get_activation("z_plus_zbar_sq")
    blk, kind = mul_block(zb, 0.0, 0.5, PROF)
    assert kind == "mul3" and blk.width == 8
    target = lambda zs: np.conj(zs[:, 0] * zs[:, 1])[:, None]
    assert block_sup_error(blk, zb, target, BIBOX, BIGRID) < 1e-10


def test_block_error_exact_block_is_zero():
    ident = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    blk = identity_block(ident, 0.0, 1.0, PROF)
    assert block_sup_error(blk, ident, T_ID, BOX, GRID) == 0.0


def test_block_error_monotone_in_h():
    card = get_activation("cardioid")
    e1 = block_sup_error(identity_block(card, 1.0, 1e-1, PROF), card, T_ID, BOX, GRID)
    e3 = block_sup_error(identity_block(card, 1.0, 1e-3, PROF), card, T_ID, BOX, GRID)
    assert e1 > e3


def test_pair_block_error_is_max_of_components():
    rs = get_activation("re_square")
    blk = pair_block(rs, 1.0, 1e-2, PROF)
    pts = sample_box(BOX, GRID)
    got = block_values(blk, rs, pts)
    want = T_PAIR(pts)
    comp_max = np.max(np.abs(got - want), axis=0)
    # Euclidean error of the pair at the worst point is at least the worst
    # single component and at most their quadrature sum
    err = block_sup_error(blk, rs, T_PAIR, BOX, GRID)
    assert err >= max(comp_max) - 1e-15
    assert err <= np.sqrt(np.sum(comp_max**2)) + 1e-15


# smooth catalog members and the blocks their derivative patterns afford
H_DECAY_CASES = [
    ("cardioid", {}, "identity", 1.0),
    ("modrelu", {"b": -1}, "pair", 2.0),
    ("re_square", {}, "pair", 1.0),
    ("exp_re", {}, "pair", 0.5),
    ("tanh_re", {}, "pair", 0.5),
    ("abs_square", {}, "pair", 1.0),
    ("exp_re", {}, "square", 0.0),
    ("tanh_re", {}, "square", 0.25),
    ("cardioid", {}, "square", 1.0),
]


@pytest.mark.parametrize("name,params,blockkind,z0", H_DECAY_CASES)
def test_h_decay(name, params, blockkind, z0):
    # error(h/2) <= 0.75 error(h) along a halving schedule until the float floor
    spec = get_activation(name, params)
    if blockkind == "identity":
        build = lambda h: identity_block(spec, z0, h, PROF)
        target = T_ID
    elif blockkind == "pair":
        build = lambda h: pair_block(spec, z0, h, PROF)
        target = T_PAIR
    else:
        which = square_block(spec, z0, 0.05, PROF)[1]
        build = lambda h: square_block(spec, z0, h, PROF)[0]
        target = {"zzbar": T_ZZBAR, "z2": T_Z2, "zbar2": T_ZBAR2}[which]
    errs = [block_sup_error(build(1e-1 * 2.0**-k), spec, target, BOX, GRID)
            for k in range(6)]
    for cur, nxt in zip(errs, errs[1:]):
        if cur < 1e-9:
            break
        assert nxt <= 0.75 * cur, errs


@pytest.mark.parametrize("name", ["re_square", "abs_square", "z_plus_zbar_sq"])
@pytest.mark.parametrize("h", [1.0, 0.3, 0.01])
def test_quadratic_exactness(name, h):
    # degree <= 2 polynomials in z, conj z have vanishing second remainder:
    # square and mul blocks are exact at any h
    spec = get_activation(name)
    blk, which = square_block(spec, 0.4 - 0.2j, h, PROF)
    target = {"zzbar": T_ZZBAR, "z2": T_Z2, "zbar2": T_ZBAR2}[which]
    assert block_sup_error(blk, spec, target, BOX, GRID) < 1e-10
    mblk, kind = mul_block(spec, 0.4 - 0.2j, h, PROF)
    mtarget = lambda zs: mul_apply(kind, zs[:, 0], zs[:, 1])[:, None]
    assert block_sup_error(mblk, spec, mtarget, BIBOX, BIGRID) < 1e-10


def test_conditioning_scale_recorded():
    card = get_activation("cardioid")
    rs = get_activation("re_square")
    for blk in (identity_block(card, 1.0, 1e-3, PROF),
                pair_block(rs, 1.0, 1e-3, PROF),
                square_block(rs, 0.0, 1e-2, PROF)[0],
                mul_block(rs, 0.0, 1e-2, PROF)[0]):
        actual = float(np.max(np.abs(blk.post.matrix)))
        assert actual / 10 <= blk.post_scale <= 10 * actual


def test_first_order_post_scale_grows_like_inverse_h():
    card = get_activation("cardioid")
    s1 = identity_block(card, 1.0, 1e-2, PROF).post_scale
    s2 = identity_block(card, 1.0, 1e-3, PROF).post_scale
    assert 5 <= s2 / s1 <= 20
    rs = get_activation("re_square")
    q1 = square_block(rs, 0.0, 1e-1, PROF)[0].post_scale
    q2 = square_block(rs, 0.0, 1e-2, PROF)[0].post_scale
    assert 50 <= q2 / q1 <= 200


def test_mul_error_bounded_by_weighted_square_errors():
    # triangle inequality over the polarization combination
    spec = get_activation("tanh_re")
    h = 1e-2
    mblk, kind = mul_block(spec, 0.25, h, PROF)
    sqblk, which = square_block(spec, 0.25, h, PROF)
    assert kind == "mul2" and which == "zzbar"
    combos = ((np.array([1, 1]), 0.25 + 0.25j),
              (np.array([1, -1]), -0.25 + 0.25j),
              (np.array([1, -1j]), -0.5j))
    pts = sample_box(BIBOX, BIGRID)
    bound = np.zeros(pts.shape[0])
    for row, coef in combos:
        u = pts @ row.astype(complex)
        got = block_values(sqblk, spec, u[:, None])[:, 0]
        bound += abs(coef) * np.abs(got - u * np.conj(u))
    target = pts[:, 0] * np.conj(pts[:, 1])
    mul_err = np.abs(block_values(mblk, spec, pts)[:, 0] - target)
    assert np.all(mul_err <= bound + 1e-12)


def test_block_to_cvnn_round_trip():
    card = get_activation("cardioid")
    blk = identity_block(card, 1.0, 1e-3, PROF)
    net = blk.to_cvnn(card)
    pts = sample_box(BOX, GRID)
    explicit = (card(pts @ blk.pre.matrix.T + blk.pre.bias) @ blk.post.matrix.T
                + blk.post.bias)
    assert np.max(np.abs(eval_cvnn(net, pts, card.fn) - explicit)) < 1e-15
