import numpy as np
import pytest

from deepnarrow.activations import available_activations, custom_activation, get_activation
from deepnarrow.blocks import (_SQUARE_TO_MUL, conj_block, id_conj_pair_block, identity_block,
                               mul_apply, mul_block, pair_block, square_block)
from deepnarrow.core import CompactBox, GridSpec, eval_cvnn, sample_box
from deepnarrow.errors import ConstructionError, StrategyMismatch
from deepnarrow.lowering import STRATEGIES, plan_lowering
from deepnarrow.wirtinger import ToleranceProfile, point_row, probe_atlas

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
SQUARE_TARGETS = {"zzbar": T_ZZBAR, "z2": T_Z2, "zbar2": T_ZBAR2}


def row(spec, z0, pattern):
    """The row of z0 for a block that needs ``pattern`` there."""
    return point_row(spec, z0, PROF, pattern)


def zbar_plus_zsq():
    # conj(z) + z^2: d = 2z (0 at the origin), dbar = 1
    return custom_activation(
        "zbar_plus_zsq", lambda z: np.conj(z) + z**2,
        analytic_first=lambda z0: (2 * z0, 1 + 0j),
        analytic_second=lambda z0: (2 + 0j, 0j, 0j))


def test_identity_block_exact_for_affine():
    ident = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    blk = identity_block(row(ident, 0.3 + 0.1j, "d"), 0.5)
    assert block_sup_error(blk, ident, T_ID, BOX, GRID) < 1e-12


def test_identity_block_cardioid_h_sweep_decreasing():
    card = get_activation("cardioid")
    errs = [block_sup_error(identity_block(row(card, 1.0, "d"), h), card, T_ID, BOX, GRID)
            for h in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_conj_block_exact_for_conjugation():
    conj = get_activation("r_affine", {"a": 0, "b": 1, "c": 0})
    blk = conj_block(row(conj, -0.2 + 0.4j, "dbar"), 0.25)
    assert block_sup_error(blk, conj, T_CONJ, BOX, GRID) < 1e-12


def test_conj_block_zbar_plus_zsq_at_origin():
    spec = zbar_plus_zsq()
    blk = conj_block(row(spec, 0.0, "dbar"), 1e-3)
    assert block_sup_error(blk, spec, T_CONJ, BOX, GRID) < 1e-2


def test_pair_block_exact_for_z_plus_zbar():
    spec = get_activation("r_affine", {"a": 1, "b": 1, "c": 0})
    blk = pair_block(row(spec, 0.0, "both"), 0.5)
    assert block_sup_error(blk, spec, T_PAIR, BOX, GRID) <= 1e-12


def test_pair_block_modrelu_sweep_decreasing():
    mr = get_activation("modrelu", {"b": -1})
    errs = []
    for h in (1e-1, 1e-2, 1e-3):
        blk = pair_block(row(mr, 2.0, "both"), h)
        pts = sample_box(BOX, GRID)
        got = block_values(blk, mr, pts)
        want = T_PAIR(pts)
        comp = np.max(np.abs(got - want), axis=0)
        errs.append(comp)
    errs = np.array(errs)
    assert np.all(errs[1] < errs[0]) and np.all(errs[2] < errs[1])


def test_pair_block_re_square():
    rs = get_activation("re_square")
    blk = pair_block(row(rs, 1.0, "both"), 1e-3)
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


def test_square_block_selection_and_exactness():
    """The square kind of a point is the first of ddbar > d2 > dbar2 that is
    nonzero there, and the square block of that kind is exact on a
    quadratic."""
    rs = get_activation("re_square")
    sq = row(rs, 0.0, "square")
    assert sq.kind == "zzbar"
    assert block_sup_error(square_block(sq, 0.7), rs, T_ZZBAR, BOX, GRID) < 1e-10

    zsq = custom_activation("zsq", lambda z: z**2,
                            analytic_second=lambda z0: (2 + 0j, 0j, 0j))
    sq = row(zsq, 0.0, "square")
    assert sq.kind == "z2"
    assert block_sup_error(square_block(sq, 0.7), zsq, T_Z2, BOX, GRID) < 1e-10

    zb = get_activation("z_plus_zbar_sq")
    sq = row(zb, 0.0, "square")
    assert sq.kind == "zbar2"
    blk = square_block(sq, 0.7)
    assert blk.width == 4  # two live neurons plus two zero pads
    assert block_sup_error(blk, zb, T_ZBAR2, BOX, GRID) < 1e-10


# -- refusals ----------------------------------------------------------------
# A block does arithmetic only.  Whether its point has what it needs is
# checked where the point's row is made: by ``point_row`` for a point given
# from outside (``sweep --z0``), by the plan for the lowering's points.


def test_identity_block_preconditions():
    mr = get_activation("modrelu", {"b": -1})
    with pytest.raises(ConstructionError, match="identity block needs"):
        row(mr, 2.0, "d")  # both derivatives nonzero there


def test_conj_block_rejects_mixed_point():
    zb = get_activation("z_plus_zbar_sq")  # d = 1 everywhere
    with pytest.raises(ConstructionError, match="conjugation block needs"):
        row(zb, 0.5 + 0.5j, "dbar")


@pytest.mark.parametrize("name", [*available_activations(),
                                  *(f"conj:{n}" for n in available_activations())])
def test_first_order_blocks_build_exactly_on_their_atlas_pattern(name):
    """At every atlas point, ``point_row`` gives the atlas's own row, bit for
    bit, for the pattern the atlas reads there, and refuses the other two;
    so identity, conjugation and pair blocks build exactly where the atlas
    pattern is d, dbar and both respectively."""
    spec = get_activation(name)
    atlas = probe_atlas(spec, PROF)
    for i in range(len(atlas)):
        z0 = atlas.row(i).z0
        for build, pattern in ((identity_block, "d"), (conj_block, "dbar"),
                               (pair_block, "both")):
            if atlas.pattern(i) == pattern:
                assert row(spec, z0, pattern) == atlas.row(i)
                assert build(atlas.row(i), 1e-3).z0 == (z0,)
            else:
                with pytest.raises(ConstructionError):
                    row(spec, z0, pattern)


@pytest.mark.parametrize("route", [
    (1 + 0j, 0j),        # both derivatives nonzero at 1, a lone d at 0
    (0j, 0j),            # a lone d where the conjugation block goes
    (1 + 0j, -1 + 1j),   # two points with both derivatives nonzero
    (0j,),               # the pair block at a lone-d point
])
def test_routed_pair_rejects_a_bad_route(route):
    """A one-point route needs both derivatives nonzero at its point, a
    two-point route a lone d and then a lone dbar; each route here has a
    point that lacks its pattern, and its row is refused.  The plan's routes
    come from ``ProbeAtlas.pair_route``, which picks by pattern.
    z + conj(z)^2: d = 1 everywhere, dbar = 2 conj(z)."""
    zb = get_activation("z_plus_zbar_sq")
    needs = ("both",) if len(route) == 1 else ("d", "dbar")
    with pytest.raises(ConstructionError):
        for z0, pattern in zip(route, needs):
            row(zb, z0, pattern)


def test_id_conj_pair_rejects_affine():
    """2 z + 1 is holomorphic: no point has a nonzero dbar, so the atlas has
    no pair route, and every strategy that crosses through a pair block is
    refused when it is planned.  exp has second derivatives, so its poly
    plans get as far as the pair route."""
    aff = get_activation("r_affine", {"a": 2, "b": 0, "c": 1})
    with pytest.raises(ConstructionError, match="no usable probe points for id/conj pair"):
        id_conj_pair_block(aff, PROF, 1e-3)
    for strategy in STRATEGIES[1:]:
        with pytest.raises((StrategyMismatch, ConstructionError)):
            plan_lowering(aff, strategy, PROF)
    with pytest.raises(ConstructionError, match="no usable probe points for id/conj pair"):
        plan_lowering(get_activation("exp"), "Poly_Wide_2N2Mplus12", PROF)


def test_square_block_rejects_affine():
    """z + conj z has no nonzero second derivative: its square row is
    refused at a given point, and no poly strategy plans over it."""
    aff = get_activation("r_affine", {"a": 1, "b": 1, "c": 0})
    with pytest.raises(ConstructionError, match="all second Wirtinger derivatives vanish"):
        row(aff, 0.5, "square")
    assert probe_atlas(aff, PROF).square_point() is None
    for strategy in ("Poly_Wide_2N2Mplus12", "Poly_Narrow_2N2Mplus5"):
        with pytest.raises(StrategyMismatch, match="R-affine"):
            plan_lowering(aff, strategy, PROF)


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
    sq = row(rs, 0.0, "square")
    blk = mul_block(sq, 1e-2)
    assert _SQUARE_TO_MUL[sq.kind] == "mul2" and blk.width == 12
    target = lambda zs: (zs[:, 0] * np.conj(zs[:, 1]))[:, None]
    assert block_sup_error(blk, rs, target, BIBOX, BIGRID) < 1e-2


def test_mul_block_z_plus_zbar_sq_exact():
    zb = get_activation("z_plus_zbar_sq")
    sq = row(zb, 0.0, "square")
    blk = mul_block(sq, 0.5)
    assert _SQUARE_TO_MUL[sq.kind] == "mul3" and blk.width == 8
    target = lambda zs: np.conj(zs[:, 0] * zs[:, 1])[:, None]
    assert block_sup_error(blk, zb, target, BIBOX, BIGRID) < 1e-10


def test_block_error_exact_block_is_zero():
    ident = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    blk = identity_block(row(ident, 0.0, "d"), 1.0)
    assert block_sup_error(blk, ident, T_ID, BOX, GRID) == 0.0


def test_block_error_monotone_in_h():
    card = get_activation("cardioid")
    e1 = block_sup_error(identity_block(row(card, 1.0, "d"), 1e-1), card, T_ID, BOX, GRID)
    e3 = block_sup_error(identity_block(row(card, 1.0, "d"), 1e-3), card, T_ID, BOX, GRID)
    assert e1 > e3


def test_pair_block_error_is_max_of_components():
    rs = get_activation("re_square")
    blk = pair_block(row(rs, 1.0, "both"), 1e-2)
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
        build = lambda h: identity_block(row(spec, z0, "d"), h)
        target = T_ID
    elif blockkind == "pair":
        build = lambda h: pair_block(row(spec, z0, "both"), h)
        target = T_PAIR
    else:
        sq = row(spec, z0, "square")
        build = lambda h: square_block(sq, h)
        target = SQUARE_TARGETS[sq.kind]
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
    sq = row(spec, 0.4 - 0.2j, "square")
    assert block_sup_error(square_block(sq, h), spec, SQUARE_TARGETS[sq.kind], BOX, GRID) < 1e-10
    mtarget = lambda zs: mul_apply(_SQUARE_TO_MUL[sq.kind], zs[:, 0], zs[:, 1])[:, None]
    mblk = mul_block(sq, h)
    assert block_sup_error(mblk, spec, mtarget, BIBOX, BIGRID) < 1e-10


def test_conditioning_scale_recorded():
    card = get_activation("cardioid")
    rs = get_activation("re_square")
    for blk in (identity_block(row(card, 1.0, "d"), 1e-3),
                pair_block(row(rs, 1.0, "both"), 1e-3),
                square_block(row(rs, 0.0, "square"), 1e-2),
                mul_block(row(rs, 0.0, "square"), 1e-2)):
        actual = float(np.max(np.abs(blk.post.matrix)))
        assert actual / 10 <= blk.post_scale <= 10 * actual


def test_first_order_post_scale_grows_like_inverse_h():
    card = get_activation("cardioid")
    s1 = identity_block(row(card, 1.0, "d"), 1e-2).post_scale
    s2 = identity_block(row(card, 1.0, "d"), 1e-3).post_scale
    assert 5 <= s2 / s1 <= 20
    rs = get_activation("re_square")
    q1 = square_block(row(rs, 0.0, "square"), 1e-1).post_scale
    q2 = square_block(row(rs, 0.0, "square"), 1e-2).post_scale
    assert 50 <= q2 / q1 <= 200


def test_mul_error_bounded_by_weighted_square_errors():
    # triangle inequality over the polarization combination
    spec = get_activation("tanh_re")
    h = 1e-2
    sq = row(spec, 0.25, "square")
    mblk, sqblk = mul_block(sq, h), square_block(sq, h)
    assert sq.kind == "zzbar"
    combos = ((np.array([1, 1]), 0.25 + 0.25j),
              (np.array([1, -1]), -0.25 + 0.25j),
              (np.array([1, -1j]), -0.5j))
    pts = sample_box(BIBOX, BIGRID)
    bound = np.zeros(pts.shape[0])
    for sel, coef in combos:
        u = pts @ sel.astype(complex)
        got = block_values(sqblk, spec, u[:, None])[:, 0]
        bound += abs(coef) * np.abs(got - u * np.conj(u))
    target = pts[:, 0] * np.conj(pts[:, 1])
    mul_err = np.abs(block_values(mblk, spec, pts)[:, 0] - target)
    assert np.all(mul_err <= bound + 1e-12)


def test_block_to_cvnn_round_trip():
    card = get_activation("cardioid")
    blk = identity_block(row(card, 1.0, "d"), 1e-3)
    net = blk.to_cvnn(card)
    pts = sample_box(BOX, GRID)
    explicit = (card(pts @ blk.pre.matrix.T + blk.pre.bias) @ blk.post.matrix.T
                + blk.post.bias)
    assert np.max(np.abs(eval_cvnn(net, pts, card.fn) - explicit)) < 1e-15
