import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import deepnarrow
from deepnarrow import core, lowering, wirtinger
from deepnarrow.activations import (available_activations, conjugate_activation, get_activation,
                                    scale_activation)
from deepnarrow.blocks import conj_block, identity_block
from deepnarrow.core import (ComplexAffineMap, depth_of, eval_cvnn, hidden_widths, max_coeff,
                             width_of)
from deepnarrow.errors import ConstructionError, EvaluationFailure, StrategyMismatch
from deepnarrow.lowering import (STRATEGIES, assemble_pieces, default_strategy,
                                 eval_pieces, lower, lower_pieces, plan_lowering,
                                 strategy_width_budget)
from deepnarrow.register import (FlushLayer, PolyZZbar, eval_register, poly_to_register,
                                 shallow_to_register)
from deepnarrow.verifier import DEFAULT_SWEEP_SCHEDULE, named_target, sup_error
from deepnarrow.wirtinger import ToleranceProfile, classify_activation, point_row
from deepnarrow.core import CompactBox, GridSpec, cvnn_from_json, cvnn_to_json

from conftest import LOWERING_CASES, random_points, random_shallow

PROF = ToleranceProfile()

CARD = get_activation("cardioid")
CONJ_CARD = get_activation("conj:cardioid")
MODRELU = get_activation("modrelu", {"b": -1})
RE_SQ = get_activation("re_square")
ABS_SQ = get_activation("abs_square")
ZB = get_activation("z_plus_zbar_sq")
CONJ_ZB = get_activation("conj:z_plus_zbar_sq")
#: conj o (0.5+0.5j) cardioid: a lone dbar and no lone d, like conj:cardioid,
#: but it does not commute with conj, so ``lower`` follows each hidden layer
#: of sigma's network with a stage of conjugation blocks
ROTATED = conjugate_activation(scale_activation(CARD, 0.5 + 0.5j))


def _test_poly(n, m):
    """Representative polynomial components: a conjugated cross term plus a
    plain square, one per output."""
    comps = []
    for j in range(m):
        terms = [(1 + 0j, tuple(1 if i == 0 else 0 for i in range(n)),
                  tuple(1 if i == min(1, n - 1) and n > 1 else 0 for i in range(n))),
                 (0.5 - 0.25j, tuple(0 for _ in range(n)),
                  tuple(2 if i == j % n else 0 for i in range(n)))]
        comps.append(PolyZZbar(n, tuple(terms)))
    return comps


@pytest.mark.parametrize("case", LOWERING_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_width_budgets_hard(rng, case, n, m):
    strategy, spec = LOWERING_CASES[case]
    if strategy.startswith("NonPoly"):
        net = random_shallow(rng, n, m, 4, spec.activation_id)
        program = shallow_to_register(net)
    else:
        kind = plan_lowering(spec, strategy, PROF).mul_kind
        program = poly_to_register(_test_poly(n, m), kind)
    lowered = lower(program, spec, strategy, 1e-3, PROF)
    budget = strategy_width_budget(strategy, n, m)
    assert width_of(lowered) <= budget


def test_nonpoly_nmplus1_converges_to_program(rng):
    net = random_shallow(rng, 2, 1, 4, CARD.activation_id)
    program = shallow_to_register(net)
    box = CompactBox.square(2, 1.0)
    grid = GridSpec(4)
    ref = lambda zs: eval_register(program, zs, CARD.fn)
    errs = []
    for h in (1e-3, 1e-4, 1e-5, 1e-6):
        low = lower(program, CARD, "NonPoly_NMplus1", h, PROF)
        errs.append(sup_error(ref, lambda zs: eval_cvnn(low, zs, CARD.fn), box, grid))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] < 1e-3


def test_nonpoly_2n2m_converges(rng):
    net = random_shallow(rng, 1, 1, 4, MODRELU.activation_id)
    program = shallow_to_register(net)
    box = CompactBox.square(1, 1.0)
    ref = lambda zs: eval_register(program, zs, MODRELU.fn)
    errs = []
    for h in (1e-3, 1e-5):
        low = lower(program, MODRELU, "NonPoly_2N2Mplus1", h, PROF)
        errs.append(sup_error(ref, lambda zs: eval_cvnn(low, zs, MODRELU.fn),
                              box, GridSpec(9)))
    assert errs[1] < errs[0] and errs[1] < 1e-3


def test_nonpoly_conj_strategy(rng):
    # activation conj(cardioid) has a lone-dbar point and no lone-d point;
    # the program is fitted with sigma = cardioid, and the network is
    # cardioid's with every odd map conjugated
    net = random_shallow(rng, 1, 2, 3, CARD.activation_id)
    program = shallow_to_register(net)
    box = CompactBox.square(1, 1.0)
    ref = lambda zs: eval_register(program, zs, CARD.fn)
    errs = []
    for h in (1e-3, 1e-5):
        low = lower(program, CONJ_CARD, "NonPoly_NMplus1", h, PROF)
        assert width_of(low) <= 4
        errs.append(sup_error(ref, lambda zs: eval_cvnn(low, zs, CONJ_CARD.fn),
                              box, GridSpec(9)))
    assert errs[1] < errs[0] and errs[1] < 1e-3


@pytest.mark.parametrize("strategy,spec,hs,tol", [
    ("Poly_Wide_2N2Mplus12", ABS_SQ, (1e-2, 1e-4), 1e-3),
    ("Poly_Narrow_2N2Mplus5", RE_SQ, (1e-3, 1e-5), 1e-3),
    ("Poly_NMplus4", ZB, (1e-3, 1e-5), 1e-2),
    ("Poly_NMplus4", CONJ_ZB, (1e-3, 1e-5), 1e-2),
])
def test_poly_strategies_converge(strategy, spec, hs, tol):
    kind = plan_lowering(spec, strategy, PROF).mul_kind
    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (1 + 0j, (0,), (2,))))
    program = poly_to_register([p], kind)
    box = CompactBox.square(1, 1.0)
    ref = lambda zs: p(zs)[:, None]
    errs = []
    for h in hs:
        low = lower(program, spec, strategy, h, PROF)
        errs.append(sup_error(ref, lambda zs: eval_cvnn(low, zs, spec.fn),
                              box, GridSpec(11)))
    assert errs[-1] < errs[0]
    assert errs[-1] < tol


def test_lower_family_mismatch(rng):
    net = random_shallow(rng, 1, 1, 3, CARD.activation_id)
    program = shallow_to_register(net)
    with pytest.raises(StrategyMismatch):
        lower(program, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-3, PROF)
    p = poly_to_register([PolyZZbar(1, ((1, (1,), (0,)),))], "mul2")
    with pytest.raises(StrategyMismatch):
        lower(p, CARD, "NonPoly_NMplus1", 1e-3, PROF)
    with pytest.raises(StrategyMismatch):
        lower(p, CARD, "NoSuchStrategy", 1e-3, PROF)


def test_lower_mul_kind_mismatch():
    # re_square affords mul2; a program planned for mul1 must be refused
    p = poly_to_register([PolyZZbar(1, ((1, (2,), (0,)),))], "mul1")
    with pytest.raises(StrategyMismatch):
        lower(p, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-3, PROF)


def test_wrong_mul_kind_is_refused_before_any_block_is_built(monkeypatch):
    # abs_square affords mul2; the plan says so before any block exists
    p = poly_to_register([PolyZZbar(1, ((1, (2,), (0,)),))], "mul1")
    built = []
    for name in ("mul_block", "identity_block", "routed_pair_block"):
        build = getattr(lowering, name)
        monkeypatch.setattr(lowering, name,
                            lambda *a, _name=name, _build=build: built.append(_name) or _build(*a))
    with pytest.raises(StrategyMismatch, match="planned for mul1 but the activation affords mul2"):
        lower(p, ABS_SQ, "Poly_Narrow_2N2Mplus5", 1e-3, PROF)
    assert built == []


def test_lower_precondition_mismatch(rng):
    net = random_shallow(rng, 1, 1, 3, MODRELU.activation_id)
    program = shallow_to_register(net)
    # modrelu has no lone-derivative point: the width-(n+m+1) route must refuse
    with pytest.raises(StrategyMismatch):
        lower(program, MODRELU, "NonPoly_NMplus1", 1e-3, PROF)


def test_fusion_invariance(rng):
    # evaluating the unfused affine/stage chain equals the fused network
    net = random_shallow(rng, 2, 1, 3, CARD.activation_id)
    program = shallow_to_register(net)
    pieces = lower_pieces(program, CARD, "NonPoly_NMplus1", 1e-4, PROF)
    fused = assemble_pieces(pieces, CARD.activation_id)
    zs = random_points(rng, 60, 2)
    a = eval_pieces(pieces, CARD, zs)
    b = eval_cvnn(fused, zs, CARD.fn)
    assert np.max(np.abs(a - b)) < 1e-12 * (1 + np.max(np.abs(a)))

    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)),))
    program = poly_to_register([p], "mul2")
    pieces = lower_pieces(program, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-2, PROF)
    fused = assemble_pieces(pieces, RE_SQ.activation_id)
    zs = random_points(rng, 60, 1, scale=0.5)
    a = eval_pieces(pieces, RE_SQ, zs)
    b = eval_cvnn(fused, zs, RE_SQ.fn)
    # agreement is float-exact relative to the chain conditioning (the
    # unfused chain reorders sums whose terms scale like the post coefficients)
    kappa = max(float(np.max(np.abs(obj.post.matrix))) for obj in pieces
                if isinstance(obj, lowering.Stage))
    assert np.max(np.abs(a - b)) < 1e-12 * kappa * (1 + np.max(np.abs(a)))


def test_depth_reported_not_bounded():
    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)),))
    program = poly_to_register([p], "mul2")
    net = lower(program, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-3, PROF)
    # the init stage, then the product's 12 neurons, 3 to a layer: v is not
    # yet written, so the ladder gives its pair block to compute slots
    assert depth_of(net) == 6
    assert max_coeff(net) > 1


def test_hidden_widths_within_budget_per_layer():
    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (1 + 0j, (0,), (2,))))
    program = poly_to_register([p], "mul2")
    low = lower(program, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-4, PROF)
    assert max(hidden_widths(low)) <= strategy_width_budget("Poly_Narrow_2N2Mplus5", 1, 1)


@pytest.mark.parametrize("case, spec, roles", [
    ("Poly_Narrow_2N2Mplus5", RE_SQ, ["square", "pair"]),
    ("Poly_Wide_2N2Mplus12", RE_SQ, ["square", "pair"]),
    ("Poly_NMplus4", ZB, ["square", "identity", "pair"]),
    ("Poly_NMplus4", CONJ_ZB, ["square", "identity", "pair"]),
    ("NonPoly_NMplus1", CARD, ["identity"]),
    ("NonPoly_Conj_NMplus1", CONJ_CARD, ["identity"]),
    ("NonPoly_2N2Mplus1", MODRELU, ["pair"]),
    ("NonPoly_Conj_NMplus1", ROTATED, ["identity", "conjugation"]),
])
def test_each_block_built_at_its_h(monkeypatch, rng, case, spec, roles):
    """The identity, pair and conjugation blocks are built at h; the square
    block at sqrt(h), or at h under Poly_Wide_2N2Mplus12.  "conjugation" is
    the block of the stages that follow sigma's hidden layers where the
    activation does not commute with conj, built after sigma's network is
    assembled.  A conj sigma over an activation that commutes
    with conj builds sigma's blocks alone: the outputs' stage after an odd
    count of hidden layers (3 here, and 9 for the NMplus4 program) crosses
    the kit's identity blocks."""
    strategy = LOWERING_CASES[case][0]
    h = 1e-4
    built = []

    def recording(role, build):
        def wrapped(*args):
            built.append((role, args[-1]))
            return build(*args)
        return wrapped

    for role, name in [("identity", "identity_block"), ("pair", "routed_pair_block"),
                       ("square", "mul_block"), ("conjugation", "conj_block")]:
        monkeypatch.setattr(lowering, name, recording(role, getattr(lowering, name)))
    if strategy.startswith("NonPoly"):
        program = shallow_to_register(random_shallow(rng, 1, 1, 3, spec.activation_id))
    else:
        kind = plan_lowering(spec, strategy, PROF).mul_kind
        program = poly_to_register(_test_poly(1, 1), kind)
    lower(program, spec, strategy, h, PROF)
    square_h = h if strategy == "Poly_Wide_2N2Mplus12" else np.sqrt(h)
    assert built == [(role, square_h if role == "square" else h) for role in roles]


def test_default_strategy_mapping():
    # conj:cardioid's lone derivative is dbar: the verdict names the same
    # strategy, and the plan picks sigma = cardioid
    for spec, strategy in [(CARD, "NonPoly_NMplus1"), (CONJ_CARD, "NonPoly_NMplus1"),
                           (MODRELU, "NonPoly_2N2Mplus1"), (RE_SQ, "Poly_Narrow_2N2Mplus5"),
                           (ZB, "Poly_NMplus4")]:
        assert default_strategy(classify_activation(spec, PROF).verdict) == strategy
    with pytest.raises(StrategyMismatch):
        default_strategy("NonUniversalHolomorphic")


# ---------------------------------------------------------------------------
# Pieces are bare arrays; the assembled network's maps carry the checks
# ---------------------------------------------------------------------------


def _shallow_pieces(rng):
    program = shallow_to_register(random_shallow(rng, 1, 1, 3, CARD.activation_id))
    pieces = lower_pieces(program, CARD, "NonPoly_NMplus1", 1e-3, PROF)
    # init, the first program layer's stage, the 3 program layers' transitions
    # as one stack (the later layers cross the same stage), end
    assert [type(obj) for obj in pieces] == [lowering.AffineArrays, lowering.Stage,
                                             lowering.Layers, lowering.AffineArrays]
    assert pieces[2].stage is pieces[1]
    assert pieces[2].trans.matrix.shape == (3, 3, 3)
    assemble_pieces(pieces, CARD.activation_id)
    return pieces


def test_assemble_rejects_inf_in_a_transition_bias(rng):
    pieces = _shallow_pieces(rng)
    layers = pieces[2]
    bias = layers.trans.bias.copy()
    bias[1, 1] = np.inf           # between program layers 1 and 2: the reload of u
    pieces[2] = dataclasses.replace(layers, trans=layers.trans._replace(bias=bias))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        assemble_pieces(pieces, CARD.activation_id)


def test_assemble_rejects_inf_in_a_stage_post_matrix(rng):
    pieces = _shallow_pieces(rng)
    stage = pieces[1]             # the hidden stage every program layer crosses
    post = stage.post.matrix.copy()
    post[0, 0] = np.inf
    pieces[1] = dataclasses.replace(stage, post=stage.post._replace(matrix=post))
    pieces[2] = dataclasses.replace(pieces[2], stage=pieces[1])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        assemble_pieces(pieces, CARD.activation_id)


@pytest.mark.parametrize("case", list(LOWERING_CASES)[:3])
def test_lower_validates_only_network_and_block_maps(monkeypatch, rng, case):
    """One lower of a depth-L shallow program checks each run of the network
    for non-finite entries once, and constructs a ComplexAffineMap only for
    the blocks built at that h.  Under a conj sigma sigma's network is
    checked, once, before its odd maps are conjugated on copies of its runs,
    which are not checked again; its 25 layers are an odd count, so the
    output crosses one more stage, of the kit's identity blocks: that
    stage's entry map and its exit map are runs of their own, 4 runs in
    all, and no block is built for it."""
    strategy, spec = LOWERING_CASES[case]
    program = shallow_to_register(random_shallow(rng, 2, 1, 25, spec.activation_id))
    built, checked = [], []
    post_init = ComplexAffineMap.__post_init__
    check_run = core._check_run

    def counting(self):
        built.append(self)
        post_init(self)

    def counting_check(matrices, biases, k):
        checked.append(matrices)
        check_run(matrices, biases, k)

    kit_maps = []
    build_kit = lowering._build_kit

    def counting_kit(*args, **kwargs):
        start = len(built)
        kit = build_kit(*args, **kwargs)
        kit_maps.append(len(built) - start)
        return kit

    monkeypatch.setattr(ComplexAffineMap, "__post_init__", counting)
    monkeypatch.setattr(core, "_check_run", counting_check)
    monkeypatch.setattr(lowering, "_build_kit", counting_kit)
    net = lower(program, spec, strategy, 1e-3, PROF)
    parity = plan_lowering(spec, strategy, PROF).sigma is not spec
    assert depth_of(net) == 25 + 1 + parity
    # the first map, one run of every map between program layers, the last
    # map (under a parity, the last two)
    assert [len(m) for m, _ in net.runs] == [1, 24, 1] + [1] * parity
    assert len(checked) == 3 + parity
    if parity:
        # the checked runs are sigma's: the network's with every odd map conjugated
        sigma_maps = [m for run in checked for m in run]
        assert len(sigma_maps) == depth_of(net)
        for k, (a, m) in enumerate(zip(net.affine_maps, sigma_maps)):
            assert np.array_equal(a.matrix, m.conj() if k % 2 else m)
    else:
        assert all(a is m for a, (m, _) in zip(checked, net.runs))
    assert kit_maps == [2]        # one block: pre and post
    assert len(built) == kit_maps[0]


def _monomial(factors, n):
    """Exponents (z degrees, conj z degrees) of a product of variables
    indexed 0..2n-1 (z_1..z_n, then conj z_1..conj z_n)."""
    degrees = [factors.count(k) for k in range(2 * n)]
    return tuple(degrees[:n]), tuple(degrees[n:])


def _random_poly(draw, rng, n):
    """1-3 distinct monomials of total degree <= 2 with random coefficients."""
    factors = st.lists(st.integers(0, 2 * n - 1), max_size=2).map(sorted).map(tuple)
    keys = draw(st.lists(factors, min_size=1, max_size=3, unique=True))
    return PolyZZbar(n, tuple((complex(*rng.standard_normal(2)), *_monomial(list(k), n))
                              for k in keys))


def _assert_fused_equals_unfused(program, spec, strategy, h, zs, rng):
    """The fused network and the unfused chain differ by at most twice the
    fused network's float noise: the largest output change over 8 copies of
    it whose every activation input and output is scaled by 1 + u eps, u
    uniform in [-1, 1], a rounding difference of one unit in the last place.
    Fusing reorders sums whose terms scale like the post coefficients, up to
    h^-2, and the same cancellation amplifies that noise.  The inputs are
    jittered too because the affine maps, which fusion changes, round there
    (modrelu's dead zone outputs exact zeros).  When the unfused chain
    diverges to a non-finite value, the fused network must fail to evaluate.
    The chain is written against the plan's sigma, so both are evaluated
    with it."""
    pieces = lower_pieces(program, spec, strategy, h, PROF)
    act = plan_lowering(spec, strategy, PROF).sigma
    fused = assemble_pieces(pieces, act.activation_id)
    with np.errstate(over="ignore", invalid="ignore"):
        a = eval_pieces(pieces, act, zs)
    if not np.isfinite(a).all():
        with pytest.raises(EvaluationFailure):
            eval_cvnn(fused, zs, act.fn)
        return
    b = eval_cvnn(fused, zs, act.fn)
    eps = np.finfo(np.float64).eps
    ulp = lambda z: z * (1 + eps * rng.uniform(-1, 1, z.shape))
    jittered, _ = core.eval_cvnns((fused,) * 8, zs, lambda z: ulp(act.fn(ulp(z))))
    assert np.max(np.abs(a - b)) <= 2 * np.max(np.abs(jittered - b))


class _Draws:
    """Stands in for st.data() in an explicit example: replays fixed draws."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy, label=None):
        return next(self._values)


@settings(max_examples=100)
@given(case=st.sampled_from(list(LOWERING_CASES)), n=st.integers(1, 2), m=st.integers(1, 2),
       h=st.sampled_from((1e-2, 1e-3, 1e-4)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
# z^2 + z and z + z^2 at h = 1e-2: the lowered z_plus_zbar_sq chain grows by
# ~60x per map and is non-finite after map 49, fused and unfused alike
@example(case="Poly_NMplus4", n=1, m=2, h=1e-2, seed=493,
         data=_Draws([(0, 0), (0,)], [(0,), (0, 0)]))
def test_fused_equals_unfused_on_random_programs(case, n, m, h, seed, data):
    rng = np.random.default_rng(seed)
    strategy, spec = LOWERING_CASES[case]
    if strategy.startswith("NonPoly"):
        width = data.draw(st.integers(1, 6), label="width")
        program = shallow_to_register(random_shallow(rng, n, m, width, spec.activation_id))
    else:
        polys = [_random_poly(data.draw, rng, n) for _ in range(m)]
        program = poly_to_register(polys, plan_lowering(spec, strategy, PROF).mul_kind)
    zs = random_points(rng, 30, n, scale=0.5)
    _assert_fused_equals_unfused(program, spec, strategy, h, zs, rng)


def test_fused_equals_unfused_on_an_ill_conditioned_narrow_program():
    # c0 + c1 z at h = 1e-4: the largest stage post coefficient is kappa =
    # 2500, and fused and unfused differ by 1.65e-7, 16x a tolerance of
    # 1e-12 kappa (1 + max|a|) but within twice the measured float noise
    a, b = np.random.default_rng(187).standard_normal((2, 2))
    c0, c1 = a + 1j * b
    program = poly_to_register([PolyZZbar(1, ((c0, (0,), (0,)), (c1, (1,), (0,))))], "mul2")
    zs = random_points(np.random.default_rng(188), 30, 1, scale=0.5)
    _assert_fused_equals_unfused(program, RE_SQ, "Poly_Narrow_2N2Mplus5", 1e-4, zs,
                                 np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Stacked assembly and serialization against per-map references
# ---------------------------------------------------------------------------


def _assemble_map_by_map(pieces):
    """The chain fused one piece at a time, each transition of a Layers piece
    on its own: the reference the stacked assembly must equal bit for bit."""
    def fuse(a, b):
        return a.matrix @ b.matrix, a.matrix @ b.bias + a.bias

    chain = []
    for obj in pieces:
        if isinstance(obj, lowering.Layers):
            for k, (m, b) in enumerate(zip(*obj.trans)):
                chain += [obj.stage] if k else []
                chain.append(lowering.AffineArrays(m, b))
        else:
            chain.append(obj)
    pending, maps = None, []
    for obj in chain:
        if isinstance(obj, lowering.AffineArrays):
            pending = obj if pending is None else lowering.AffineArrays(*fuse(obj, pending))
        else:
            pre = obj.pre if pending is None else lowering.AffineArrays(*fuse(obj.pre, pending))
            maps.append(pre)
            pending = obj.post
    return maps + [pending]


def _case_program(case, n, m, seed, spec=None):
    """(program, strategy, activation) of a case, over spec in place of its
    activation where one is given: 5 random shallow layers, or _test_poly."""
    rng = np.random.default_rng(seed)
    strategy, case_spec = LOWERING_CASES[case]
    spec = spec or case_spec
    if strategy.startswith("NonPoly"):
        program = shallow_to_register(random_shallow(rng, n, m, 5, spec.activation_id))
    else:
        program = poly_to_register(_test_poly(n, m), plan_lowering(spec, strategy, PROF).mul_kind)
    return program, strategy, spec


def _lowered(case, n, m, seed, h=1e-3, spec=None):
    """The pieces of a case's lowering, over spec in place of its activation
    where one is given, and that activation."""
    program, strategy, spec = _case_program(case, n, m, seed, spec)
    return lower_pieces(program, spec, strategy, h, PROF), spec


@pytest.mark.parametrize("case", LOWERING_CASES)
@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2)])
def test_stacked_assembly_equals_fusing_map_by_map(case, n, m):
    pieces, spec = _lowered(case, n, m, seed=n + 3 * m)
    net = assemble_pieces(pieces, spec.activation_id)
    want = _assemble_map_by_map(pieces)
    assert len(net.affine_maps) == len(want)
    for got, ref in zip(net.affine_maps, want):
        assert got.matrix.tobytes() == ref.matrix.tobytes()
        assert got.bias.tobytes() == ref.bias.tobytes()


#: (case, activation) of every lowering case, then Poly_NMplus4 over
#: conj:z_plus_zbar_sq and NonPoly_NMplus1 over ROTATED; all three are plans
#: written against a conj sigma with sigma's own stages, and ``lower``
#: follows each hidden layer of ROTATED's with a stage of conjugation blocks
STAGE_CASES = ([pytest.param(c, LOWERING_CASES[c][1], id=c) for c in LOWERING_CASES]
               + [pytest.param("Poly_NMplus4", CONJ_ZB, id="Poly_NMplus4-conj"),
                  pytest.param("NonPoly_NMplus1", ROTATED, id="NonPoly_NMplus1-realizer")])


@pytest.mark.parametrize("case, spec", STAGE_CASES)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_stage_maps_hold_no_negative_zero(case, spec, n, h):
    """A placement adds a block's rows into zero rows, so every zero weight
    of a stage is +0, also where the block's own entry is -0 (some post rows
    hold one); assigning the rows would keep those -0 and change the bytes
    of some networks.  The conjugation stages after ROTATED's hidden layers
    keep that rule: their pres are the network's odd maps."""
    conj_sigma = spec.name.startswith("conj:")
    assert (plan_lowering(spec, LOWERING_CASES[case][0], PROF).sigma is not spec) == conj_sigma
    program, strategy, _ = _case_program(case, n, 1, seed=n, spec=spec)
    pieces = lower_pieces(program, spec, strategy, h, PROF)
    stages = [obj for obj in pieces if isinstance(obj, lowering.Stage)]
    stages += [obj.stage for obj in pieces if isinstance(obj, lowering.Layers)]
    assert stages
    arrays = [a for stage in stages for a in (stage.pre.matrix, stage.post.matrix)]
    if spec is ROTATED:
        arrays += [a.matrix for a in lower(program, spec, strategy, h, PROF).affine_maps[1::2]]
    for a in arrays:
        parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
        assert not np.any((parts == 0) & np.signbit(parts))


def _json_map_by_map(net):
    """The network document written one map at a time."""
    def pairs(values):
        return [[float(np.real(x)), float(np.imag(x))] for x in values]

    return json.dumps({
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "activation": {"name": net.activation.name, "params": dict(net.activation.params)},
        "affine_maps": [{"rows": a.out_dim, "cols": a.in_dim, "matrix": pairs(a.matrix.ravel()),
                         "bias": pairs(a.bias)} for a in net.affine_maps],
    }, sort_keys=True)


@pytest.mark.parametrize("case, n, shapes", [
    # a 4-wide layer, then a run of 11 x 11 maps: a ladder of 4 layers
    # before the flush (p = 3, v uncrossed) and one of 4 after it (p = 3,
    # z_2 uncrossed: no later product reads it)
    ("Poly_Narrow_2N2Mplus5", 2, [(1, 4, 2), (1, 11, 4), (7, 11, 11), (1, 1, 11)]),
    # five layers of cardioid's network, then the outputs' stage of identity
    # blocks, every odd map conjugated
    ("NonPoly_Conj_NMplus1", 1, [(1, 3, 1), (4, 3, 3), (1, 1, 3), (1, 1, 1)]),
    ("NonPoly_2N2Mplus1", 2, [(1, 7, 2), (4, 7, 7), (1, 1, 7)]),
])
def test_json_equals_writing_map_by_map(case, n, shapes):
    program, strategy, spec = _case_program(case, n, 1, seed=7)
    net = lower(program, spec, strategy, 1e-3, PROF)
    assert [m.shape for m, _ in net.runs] == shapes
    text = cvnn_to_json(net)
    assert text == _json_map_by_map(net)
    assert cvnn_to_json(cvnn_from_json(text)) == text


# ---------------------------------------------------------------------------
# A chain's first product, mul(x, w = 1), is a load
# ---------------------------------------------------------------------------


#: (activation, poly strategy) for every strategy that plans for cardioid
#: (mul2), z_plus_zbar_sq (mul3), its conjugate (mul1 under Wide and
#: Narrow, mul3 against sigma = z_plus_zbar_sq under NMplus4) and ROTATED
#: (whose hidden layers are followed by conjugation stages under NMplus4)
LOAD_CASES = [(spec, strategy) for spec in (CARD, ZB, CONJ_ZB, ROTATED)
              for strategy in STRATEGIES if strategy.startswith("Poly")]


def test_load_cases_cover_every_mul_kind_and_the_realizer():
    plans = [plan_lowering(spec, strategy, PROF) for spec, strategy in LOAD_CASES]
    assert {plan.mul_kind for plan in plans} == {"mul1", "mul2", "mul3"}
    assert plan_lowering(CONJ_ZB, "Poly_NMplus4", PROF).sigma is not CONJ_ZB
    assert plan_lowering(ROTATED, "Poly_NMplus4", PROF).sigma is not ROTATED
    assert CONJ_ZB.conj_equivariant and not ROTATED.conj_equivariant


def _ladder_runs(pieces):
    """(p, hidden widths) of each multiplication ladder of a poly chain: a
    ladder enters by one map that widens the state (the end map's input) by
    the accumulator and p compute slots and leaves by one that narrows it
    back; the stages between are its hidden layers."""
    end = next(obj for obj in reversed(pieces) if isinstance(obj, core.AffineArrays))
    s = end.matrix.shape[1]
    runs, inside = [], False
    for obj in pieces:
        if isinstance(obj, lowering.Stage):
            if inside:
                runs[-1][1].append(obj.pre.out_dim)
            continue
        rows, cols = obj.matrix.shape
        if cols == s < rows:
            runs.append((rows - s - 1, []))
            inside = True
        elif rows == s < cols:
            inside = False
    return runs


@pytest.mark.parametrize("spec, strategy", LOAD_CASES,
                         ids=[f"{spec.name}-{strategy}" for spec, strategy in LOAD_CASES])
@pytest.mark.parametrize("side", ["z", "zbar"])
def test_one_factor_program_lowers_to_the_init_stage_alone(spec, strategy, side):
    """z or conj z: one hidden stage, then one affine map that loads w from
    that monomial's slot (under mul3 the program's operand is the other
    one, since mul3(x, 1) = conj x).  That stage is the init stage, which a
    chain with no other stage keeps; NMplus4 refreshes g for conj z, and
    its refresh stage is the only one, after an affine init.  Under a conj
    sigma over an activation that does not commute with conj, each hidden
    layer is followed by a stage of conjugation blocks, which doubles the
    count; where the activation commutes with conj an odd count of stages
    is followed instead by the outputs' stage of identity blocks, and
    NMplus4's conj z keeps its init stage before the refresh, since an
    affine init would leave the same depth."""
    plan = plan_lowering(spec, strategy, PROF)
    zd, bd = ((1,), (0,)) if side == "z" else ((0,), (1,))
    program = poly_to_register([PolyZZbar(1, ((1 + 0j, zd, bd),))], plan.mul_kind)
    stages = 1 if plan.sigma is spec else 2
    net = lower(program, spec, strategy, 1e-4, PROF)
    assert depth_of(net) == 1 + stages
    err = sup_error(lambda zs: eval_register(program, zs),
                    lambda zs: eval_cvnn(net, zs, spec.fn), CompactBox.square(1, 1.0),
                    GridSpec(11))
    assert err < 1e-3


#: z1 conj(z2): the product after the load of one factor reads the other
Z1_ZBAR2 = PolyZZbar(2, ((1 + 0j, (1, 0), (0, 1)),))


def test_a_product_of_two_factors_lowers_with_one_ladder():
    """z1 conj(z2), the n = 2 benchmark compile's monomial: the first factor
    is loaded, so one ladder follows the affine init, its 12 neurons run 6
    to a hidden layer, since z2, loaded into w, leaves the ladder."""
    program = poly_to_register([Z1_ZBAR2], "mul2")
    pieces = lower_pieces(program, CARD, "Poly_Narrow_2N2Mplus5", 1e-4, PROF)
    assert len(_ladder_runs(pieces)) == 1
    assert depth_of(assemble_pieces(pieces, CARD.activation_id)) == 3


@pytest.mark.parametrize("strategy", ["Poly_Narrow_2N2Mplus5", "Poly_NMplus4"])
def test_a_monomial_after_a_flush_loads_its_first_factor(strategy):
    """A flush resets w to 1, so the second monomial's first product is a
    load too: two degree-2 monomials need one ladder each."""
    poly = PolyZZbar(1, ((1 + 0j, (1,), (1,)), (0.5j, (0,), (2,))))
    program = poly_to_register([poly], "mul2")
    assert sum(isinstance(lay, FlushLayer) for lay in program.layers) == 2
    pieces = lower_pieces(program, CARD, strategy, 1e-4, PROF)
    assert len(_ladder_runs(pieces)) == 2
    net = assemble_pieces(pieces, CARD.activation_id)
    err = sup_error(lambda zs: eval_register(program, zs),
                    lambda zs: eval_cvnn(net, zs, CARD.fn), CompactBox.square(1, 1.0),
                    GridSpec(11))
    assert err < 1e-2


# ---------------------------------------------------------------------------
# The ladder runs as many multiplication neurons per layer as the budget has
# room for
# ---------------------------------------------------------------------------


#: the neurons K of the multiplication block of each mul kind
MUL_NEURONS = {"mul1": 8, "mul2": 12, "mul3": 8}

PACKED_CASES = [pytest.param(spec, id=spec.name) for spec in (CARD, ZB)]

#: (activation, strategy, the p of each ladder of _test_poly and the
#: network depths, at (n, m) = (1, 1), (2, 1), (1, 2)) of plans whose ladder
#: has room for only one neuron per layer once every output is written and
#: every input is still read; conj:z_plus_zbar_sq's are z_plus_zbar_sq's,
#: plus one stage after an odd count of hidden layers: the init stage,
#: where z_plus_zbar_sq's network opens with an affine init
SINGLE_CASES = [
    pytest.param(RE_SQ, "Poly_Narrow_2N2Mplus5", ([1], [3, 3], [3, 1]), (14, 10, 18),
                 id="re_square-Narrow"),
    pytest.param(ABS_SQ, "Poly_Narrow_2N2Mplus5", ([1], [3, 3], [3, 1]), (14, 10, 18),
                 id="abs_square-Narrow"),
    pytest.param(MODRELU, "Poly_Narrow_2N2Mplus5", ([1], [3, 3], [3, 1]), (14, 10, 18),
                 id="modrelu-Narrow"),
    pytest.param(CARD, "Poly_NMplus4", ([1], [2, 2], [2, 1]), (14, 14, 20),
                 id="cardioid-NMplus4"),
    pytest.param(ZB, "Poly_NMplus4", ([1], [2, 2], [2, 1]), (9, 10, 13),
                 id="z_plus_zbar_sq-NMplus4"),
    pytest.param(CONJ_ZB, "Poly_NMplus4", ([1], [2, 2], [2, 1]), (9, 11, 13),
                 id="conj:z_plus_zbar_sq-NMplus4"),
]

SHAPES = [(1, 1), (2, 1), (1, 2)]

#: the p of each ladder of _test_poly under Narrow over a packed activation,
#: by (activation, n, m)
PACKED_P = {
    ("cardioid", 1, 1): [4], ("cardioid", 2, 1): [4, 6], ("cardioid", 1, 2): [6, 5],
    ("z_plus_zbar_sq", 1, 1): [4], ("z_plus_zbar_sq", 2, 1): [4, 4],
    ("z_plus_zbar_sq", 1, 2): [5, 5],
}


@pytest.mark.parametrize("spec", PACKED_CASES)
@pytest.mark.parametrize("n, m", SHAPES)
def test_narrow_with_an_identity_point_fills_its_budget_with_the_ladder(spec, n, m):
    """With a lone-d point, w, the v_j and the accumulator cross through
    width-1 identity blocks and the z slots through pair blocks: 2n + m + 2
    neurons, so the ladder stage holds p = m + 3 multiplication neurons,
    sits exactly at the budget, and a product takes ceil(K / p) layers.  At
    (1, 2) cardioid's first ladder runs before v_2 is written and leaves it
    uncrossed, p = m + 4, since that cuts its 12 neurons' layers from 3 to
    2; at (2, 1) its second ladder, z1 conj(z2)'s, leaves z2 uncrossed,
    which no later product reads, p = m + 5, for the same cut.
    z_plus_zbar_sq's 8 take 2 layers either way, so its ladders cross every
    register."""
    strategy = "Poly_Narrow_2N2Mplus5"
    plan = plan_lowering(spec, strategy, PROF)
    assert plan.id_row is not None
    budget = strategy_width_budget(strategy, n, m)
    pieces, _ = _lowered(strategy, n, m, seed=0, spec=spec)
    runs = _ladder_runs(pieces)
    assert [slots for slots, _ in runs] == PACKED_P[spec.name, n, m]
    for slots, widths in runs:
        assert widths == [budget] * -(-MUL_NEURONS[plan.mul_kind] // slots)
    assert width_of(assemble_pieces(pieces, spec.activation_id)) == budget


@pytest.mark.parametrize("spec, strategy, ps, depths", SINGLE_CASES)
def test_a_ladder_without_room_runs_one_neuron_per_layer(spec, strategy, ps, depths):
    """Narrow without an identity point crosses every register through a
    pair block, and NMplus4's budget is n + m + 4: either way a ladder that
    crosses every register has one compute slot left.  A ladder that runs
    before an output's first flush leaves that output uncrossed and gives
    its block's width to compute slots: 2 under Narrow, 1 under NMplus4.
    At (2, 1) the first monomial, conj(z1)^2, is a product before the
    flush, and the second, z1 conj(z2), loads z2, which no later product
    reads, so its ladder leaves z2 uncrossed for the same 2 or 1; at (1, 2)
    the second output's flush comes after the first output's product."""
    plan = plan_lowering(spec, strategy, PROF)
    got = []
    for (n, m), want in zip(SHAPES, ps):
        program, _, _ = _case_program(strategy, n, m, seed=0, spec=spec)
        runs = _ladder_runs(lower_pieces(program, spec, strategy, 1e-3, PROF))
        assert [slots for slots, _ in runs] == want
        for slots, widths in runs:
            assert len(widths) == -(-MUL_NEURONS[plan.mul_kind] // slots)
        got.append(depth_of(lower(program, spec, strategy, 1e-3, PROF)))
    assert tuple(got) == depths


#: (activation, strategy) of the cases of the unwritten-output rule: Narrow
#: with and without an identity point, NMplus4, and NMplus4 over a conj sigma
UNWRITTEN_CASES = [
    pytest.param(CARD, "Poly_Narrow_2N2Mplus5", id="cardioid-Narrow"),
    pytest.param(RE_SQ, "Poly_Narrow_2N2Mplus5", id="re_square-Narrow"),
    pytest.param(ZB, "Poly_NMplus4", id="z_plus_zbar_sq-NMplus4"),
    pytest.param(CONJ_ZB, "Poly_NMplus4", id="conj:z_plus_zbar_sq-NMplus4"),
]


def _assert_ladders_and_values(program, spec, strategy, ps):
    """The program's ladders run ps compute slots, every hidden layer of its
    network is within the budget, and the network agrees with the program."""
    h = 1e-4
    runs = _ladder_runs(lower_pieces(program, spec, strategy, h, PROF))
    assert [slots for slots, _ in runs] == ps
    net = lower(program, spec, strategy, h, PROF)
    budget = strategy_width_budget(strategy, program.input_dim, program.output_dim)
    assert max(hidden_widths(net)) <= budget
    err = sup_error(lambda zs: eval_register(program, zs),
                    lambda zs: eval_cvnn(net, zs, spec.fn),
                    CompactBox.square(program.input_dim, 1.0), GridSpec(11))
    assert err < 1e-2


@pytest.mark.parametrize("spec, strategy", UNWRITTEN_CASES)
def test_an_output_never_flushed_leaves_every_ladder(spec, strategy):
    """(z conj z, 0), norm0's shape: no flush writes v_2, so the ladder
    crosses neither output (m = 2): under Narrow that frees 2 or 4 neurons
    for compute slots, p = 7 with an identity point (12 neurons in 2
    layers, not 3) and p = 5 without (3 layers, not 12); under NMplus4
    p = 3 (3 layers of its 8 neurons, not 8)."""
    plan = plan_lowering(spec, strategy, PROF)
    program = poly_to_register([PolyZZbar(1, ((1 + 0j, (1,), (1,)),)), PolyZZbar(1, ())],
                               plan.mul_kind)
    assert {lay.dst for lay in program.layers if isinstance(lay, FlushLayer)} == {0}
    ps = {"cardioid": [7], "re_square": [5]}.get(spec.name, [3])
    _assert_ladders_and_values(program, spec, strategy, ps)


@pytest.mark.parametrize("spec, strategy", UNWRITTEN_CASES)
def test_a_ladder_after_a_flush_crosses_the_written_output(spec, strategy):
    """(z conj z, conj(z)^2): the first ladder runs before any flush and
    crosses neither output, the second runs after v_1's flush and crosses
    it alone, with one block's width less for compute slots."""
    plan = plan_lowering(spec, strategy, PROF)
    program = poly_to_register([PolyZZbar(1, ((1 + 0j, (1,), (1,)),)),
                                PolyZZbar(1, ((1 + 0j, (0,), (2,)),))], plan.mul_kind)
    ps = {"cardioid": [7, 6], "re_square": [5, 3]}.get(spec.name, [3, 2])
    _assert_ladders_and_values(program, spec, strategy, ps)


def test_a_ladder_that_cannot_shorten_crosses_every_output():
    """z1 conj(z2) over cardioid under Narrow, the n = 2 benchmark compile's
    program: z2, loaded into w, leaves the ladder, p = 6, and its 12 neurons
    take 2 layers.  With v uncrossed as well the ladder would have p = 7,
    but still ceil(12 / 7) = 2 layers, so it crosses v with p = 6, and the
    network's bytes are those of a ladder that crosses every output."""
    program = poly_to_register([Z1_ZBAR2], "mul2")
    pieces = lower_pieces(program, CARD, "Poly_Narrow_2N2Mplus5", 1e-4, PROF)
    assert [slots for slots, _ in _ladder_runs(pieces)] == [6]
    text = cvnn_to_json(lower(program, CARD, "Poly_Narrow_2N2Mplus5", 1e-4, PROF))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b7fe53bdd98b2415481195c1c234b41127e17695b6bc77fe57bf642612f01a78")


def _ladder_reads(pieces, slots):
    """Of the given slots, those each ladder's stage reads, in ladder order:
    the stage after each map that widens the state (the end map's input) by
    the accumulator and compute slots."""
    s = next(obj for obj in reversed(pieces) if isinstance(obj, core.AffineArrays)).in_dim
    return [[q for q in slots if np.any(stage.pre.matrix[:, q])]
            for enter, stage in zip(pieces, pieces[1:])
            if isinstance(enter, core.AffineArrays) and enter.in_dim == s < enter.out_dim]


def test_a_ladder_leaves_an_input_that_no_later_product_reads():
    """Over cardioid under Narrow, z1 conj(z2) loads z2 and its ladder
    reads z1 alone: the ladder leaves z2's pair block out, p = 6, and the
    network is 3 maps deep.  In _test_poly's (2, 1) program, conj(z1)^2
    comes first and z1 conj(z2) after its flush, so the first ladder still
    crosses z2, which the later load reads, at p = 4, though leaving it out
    would cut 3 layers to 2; the second leaves z2 out at p = 6."""
    strategy = "Poly_Narrow_2N2Mplus5"
    program = poly_to_register([Z1_ZBAR2], "mul2")
    pieces = lower_pieces(program, CARD, strategy, 1e-4, PROF)
    assert [slots for slots, _ in _ladder_runs(pieces)] == [6]
    assert _ladder_reads(pieces, range(2)) == [[0]]
    assert depth_of(assemble_pieces(pieces, CARD.activation_id)) == 3
    program = poly_to_register(_test_poly(2, 1), "mul2")
    pieces = lower_pieces(program, CARD, strategy, 1e-4, PROF)
    assert [slots for slots, _ in _ladder_runs(pieces)] == [4, 6]
    assert _ladder_reads(pieces, range(2)) == [[0, 1], [0]]
    _assert_ladders_and_values(program, CARD, strategy, [4, 6])


def test_a_dead_input_that_cannot_shorten_the_ladder_stays_crossed():
    """Over z_plus_zbar_sq under Narrow, z1 conj(z2) loads z1 (mul3(x, 1) =
    conj x) and its ladder reads z2: without z1's pair block p would be 6,
    but its 8 neurons take ceil(8 / 4) = 2 layers at p = 4 too, so the
    ladder crosses z1, and the network's bytes are those of a ladder that
    crosses every register."""
    strategy = "Poly_Narrow_2N2Mplus5"
    program = poly_to_register([Z1_ZBAR2], "mul3")
    pieces = lower_pieces(program, ZB, strategy, 1e-4, PROF)
    assert [slots for slots, _ in _ladder_runs(pieces)] == [4]
    assert _ladder_reads(pieces, range(2)) == [[0, 1]]
    text = cvnn_to_json(lower(program, ZB, strategy, 1e-4, PROF))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "16d4170c498d88e1a08befc01dca8e35128cd34156169daea3a6a940297649f8")


@pytest.mark.parametrize("spec", [CARD, ZB, CONJ_ZB, ROTATED],
                         ids=["cardioid", "z_plus_zbar_sq", "conj:z_plus_zbar_sq", "realizer"])
@pytest.mark.parametrize("h", [1e-2, 1e-4])
def test_nmplus4_leaves_a_dead_input_and_keeps_g(spec, h):
    """Under NMplus4 at n = 2, z1 conj(z2)'s ladder leaves the loaded
    factor's identity block out and crosses g: with v unwritten as well,
    p = 3, so cardioid's 12 neurons take 4 layers, not 12, and
    z_plus_zbar_sq's 8 take 3, not 8.  The network agrees with the program,
    and the fused chain with the unfused one, also under a conj sigma."""
    strategy = "Poly_NMplus4"
    plan = plan_lowering(spec, strategy, PROF)
    program = poly_to_register([Z1_ZBAR2], plan.mul_kind)
    pieces = lower_pieces(program, spec, strategy, h, PROF)
    loaded = 1 if plan.mul_kind == "mul2" else 0
    # z_1, z_2 and g, slot n = 2
    assert _ladder_reads(pieces, range(3)) == [[1 - loaded, 2]]
    _assert_ladders_and_values(program, spec, strategy, [3])
    rng = np.random.default_rng(38)
    _assert_fused_equals_unfused(program, spec, strategy, h,
                                 random_points(rng, 30, 2, scale=0.5), rng)


@settings(max_examples=100)
@given(n=st.integers(1, 2), m=st.integers(1, 2), h=st.sampled_from((1e-2, 1e-3, 1e-4)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fused_equals_unfused_on_packed_narrow_programs(n, m, h, seed, data):
    """Narrow over cardioid packs m + 3 neurons per ladder layer, m + 4 or
    m + 5 before outputs' first flushes where that saves a layer, so at
    m = 2 the last of the 12 neurons' groups holds 2 of 5 slots or 5 of 7."""
    rng = np.random.default_rng(seed)
    polys = [_random_poly(data.draw, rng, n) for _ in range(m)]
    program = poly_to_register(polys, "mul2")
    zs = random_points(rng, 30, n, scale=0.5)
    _assert_fused_equals_unfused(program, CARD, "Poly_Narrow_2N2Mplus5", h, zs, rng)


@pytest.mark.parametrize("n, polys", [
    (2, [Z1_ZBAR2]),
    (1, [PolyZZbar(1, ((1 + 0j, (1,), (1,)),))]),
    (1, [PolyZZbar(1, ((1 + 0j, (1,), (1,)),)), PolyZZbar(1, ((1j, (0,), (2,)),))]),
], ids=["z1zbar2", "zzbar", "zzbar-and-zbar2"])
def test_a_packed_ladder_converges_like_h(n, polys):
    """The packed cardioid lowering keeps the O(h) truncation regime: its
    error against the program falls at least 5x per decade of h, also with
    m = 2, where the first ladder runs before any flush, 7 and then 5
    neurons in its 7 compute slots, and the second after v_1's, 6 in each
    of its two layers."""
    program = poly_to_register(polys, "mul2")
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        net = lower(program, CARD, "Poly_Narrow_2N2Mplus5", h, PROF)
        assert hidden_widths(net)[-1] == strategy_width_budget(
            "Poly_Narrow_2N2Mplus5", n, len(polys))
        errs.append(sup_error(lambda zs: eval_register(program, zs),
                              lambda zs: eval_cvnn(net, zs, CARD.fn),
                              CompactBox.square(n, 1.0), GridSpec(9)))
    assert errs[0] >= 5 * errs[1] and errs[1] >= 5 * errs[2]


# ---------------------------------------------------------------------------
# The inputs enter through an affine map where no stage has to build them
# ---------------------------------------------------------------------------


def _sha(net) -> str:
    return hashlib.sha256(cvnn_to_json(net).encode()).hexdigest()


def test_z1_zbar2_opens_with_an_affine_map_into_its_ladder():
    """z1 conj(z2) under Narrow over cardioid reads no conjugate slot, so
    the inputs enter through an affine map fused into the ladder's load:
    two hidden layers, the ladder's, 11 wide, and a first map that reads
    both inputs."""
    program = poly_to_register([Z1_ZBAR2], "mul2")
    pieces = lower_pieces(program, CARD, "Poly_Narrow_2N2Mplus5", 1e-4, PROF)
    assert isinstance(pieces[0], core.AffineArrays)
    net = lower(program, CARD, "Poly_Narrow_2N2Mplus5", 1e-4, PROF)
    assert hidden_widths(net) == (11, 11) and depth_of(net) == 3
    first = net.affine_maps[0].matrix
    assert first.shape == (11, 2) and np.all(np.any(first != 0, axis=0))


#: networks whose chain keeps the init stage, at h = 1e-4, by their sha256:
#: z, whose chain has no other stage; re = (z + conj z) / 2 under Wide and
#: Narrow, which loads conj z before any stage has built it; and, under
#: NMplus4 over conj:cardioid, conj z and re, whose chain of the refresh
#: stage alone would cross the outputs' stage in the init stage's place
KEPT_INIT = [
    pytest.param(CARD, "Poly_Narrow_2N2Mplus5", ((1,), (0,)), 2,
                 "0c26d01178e132ebd084c25c2379a6e4f6ad79f24bc41aa84f3eef387145e6e0",
                 id="z-cardioid-Narrow"),
    pytest.param(CARD, "Poly_NMplus4", ((1,), (0,)), 2,
                 "22196bcb6a0754e98a32fa76097117cd02aeaf3bc84373857c6ed453e25edcb5",
                 id="z-cardioid-NMplus4"),
    pytest.param(CARD, "Poly_Narrow_2N2Mplus5", "re", 2,
                 "512ec5e61a190c3681df0e1ead6ba32599e7472816d183ec9c4a0c30d7294eee",
                 id="re-cardioid-Narrow"),
    pytest.param(ABS_SQ, "Poly_Wide_2N2Mplus12", "re", 2,
                 "346838f5d51181e64f66988694a3bd058e0497f7c1e36533fdd4c16e74440d8a",
                 id="re-abs_square-Wide"),
    pytest.param(CONJ_CARD, "Poly_NMplus4", ((0,), (1,)), 3,
                 "b9bae6480566ade95f5b1844cef519b8becb130c6edb0e8fada87f35f7cfe43e",
                 id="zbar-conj:cardioid-NMplus4"),
    pytest.param(CONJ_CARD, "Poly_NMplus4", "re", 3,
                 "125ae0cf91383f26c9be747c9abddf4a91c07d5cbae4cd5dc6bc5131d60b01d2",
                 id="re-conj:cardioid-NMplus4"),
]


@pytest.mark.parametrize("spec, strategy, monomial, depth, sha", KEPT_INIT)
def test_a_chain_that_needs_its_init_stage_keeps_its_bytes(spec, strategy, monomial, depth,
                                                           sha):
    """The chain opens with the init stage, a hidden layer that reads the
    inputs alone, and the network's bytes are those it had before inputs
    could enter through an affine map."""
    terms = (((0.5 + 0j, (1,), (0,)), (0.5 + 0j, (0,), (1,))) if monomial == "re"
             else ((1 + 0j, *monomial),))
    program = poly_to_register([PolyZZbar(1, terms)],
                               plan_lowering(spec, strategy, PROF).mul_kind)
    pieces = lower_pieces(program, spec, strategy, 1e-4, PROF)
    assert isinstance(pieces[0], lowering.Stage) and pieces[0].pre.in_dim == 1
    net = lower(program, spec, strategy, 1e-4, PROF)
    assert depth_of(net) == depth
    assert _sha(net) == sha


@pytest.mark.parametrize("spec", [ABS_SQ, RE_SQ], ids=["abs_square", "re_square"])
@pytest.mark.parametrize("target", ["zzbar", "z1zbar2"])
def test_wide_over_an_exact_square_is_exact_without_the_init_stage(spec, target):
    """abs_square and re_square afford an exact multiplication block, and
    zzbar's and z1zbar2's programs read no conjugate slot before Wide's
    stage: with no crossing before it, the one-hidden-layer network is the
    product to rounding."""
    n = 2 if target == "z1zbar2" else 1
    report = deepnarrow.end_to_end_poly(named_target(target), spec, 2, "Poly_Wide_2N2Mplus12",
                                        CompactBox.square(n, 1.0))
    assert report.best_row().depth == 2
    assert report.best_row().sup_error < 1e-12


#: (activation, poly strategy) of every poly strategy, and NMplus4 over
#: the conj sigmas of conj:cardioid and conj:z_plus_zbar_sq (which commute
#: with conj) and of ROTATED (which does not)
AFFINE_INIT_CASES = [(CARD, "Poly_Wide_2N2Mplus12"), (CARD, "Poly_Narrow_2N2Mplus5"),
                     (RE_SQ, "Poly_Narrow_2N2Mplus5"), (ZB, "Poly_NMplus4"),
                     (CONJ_CARD, "Poly_NMplus4"), (CONJ_ZB, "Poly_NMplus4"),
                     (ROTATED, "Poly_NMplus4")]


@pytest.mark.parametrize("spec, strategy", AFFINE_INIT_CASES,
                         ids=[f"{spec.name}-{strategy}" for spec, strategy in AFFINE_INIT_CASES])
@pytest.mark.parametrize("n", [1, 2])
def test_every_poly_strategy_opens_with_an_affine_init_somewhere(spec, strategy, n):
    """Each case lowers z conj z or conj(z)^2 at n = 1, and z1 conj(z2) at
    n = 2, from an affine init, so the random programs below reach that
    path under every poly strategy and conj sigma."""
    polys = [Z1_ZBAR2] if n == 2 else [ZZBAR, PolyZZbar(1, ((1 + 0j, (0,), (2,)),))]
    opened = []
    for poly in polys:
        program = poly_to_register([poly], plan_lowering(spec, strategy, PROF).mul_kind)
        pieces = lower_pieces(program, spec, strategy, 1e-4, PROF)
        opened.append(isinstance(pieces[0], core.AffineArrays))
        _assert_agrees_with_its_program(program, spec, strategy, np.random.default_rng(n))
    assert any(opened)


def _assert_agrees_with_its_program(program, spec, strategy, rng):
    """At h = 1e-4 the network is within 2e-2 of its program, relative to
    1 + the program's largest value, on 30 points of scale 0.5 (the worst
    of 320 random programs read 4.2e-3); a conjugate slot read as the 0 an
    affine init leaves would be off by the whole term.  Fused and unfused
    agree too."""
    n = program.input_dim
    zs = random_points(rng, 30, n, scale=0.5)
    want = eval_register(program, zs)
    got = eval_cvnn(lower(program, spec, strategy, 1e-4, PROF), zs, spec.fn)
    assert np.max(np.abs(got - want)) <= 2e-2 * (1 + np.max(np.abs(want)))
    _assert_fused_equals_unfused(program, spec, strategy, 1e-4, zs, rng)


@settings(max_examples=100)
@given(case=st.sampled_from(range(len(AFFINE_INIT_CASES))), n=st.integers(1, 2),
       m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_networks_with_or_without_the_init_stage_agree_with_their_programs(case, n, m, seed,
                                                                           data):
    """Random programs of 1-3 monomials of degree <= 2 per output, which
    open with an affine init or with the init stage as they read their
    conjugates: the network agrees with eval_register and the fused chain
    with the unfused one."""
    spec, strategy = AFFINE_INIT_CASES[case]
    rng = np.random.default_rng(seed)
    polys = [_random_poly(data.draw, rng, n) for _ in range(m)]
    program = poly_to_register(polys, plan_lowering(spec, strategy, PROF).mul_kind)
    _assert_agrees_with_its_program(program, spec, strategy, rng)


# ---------------------------------------------------------------------------
# A conj sigma over an activation that commutes with conj: sigma's network,
# every odd map conjugated; over one that does not, a stage of conjugation
# blocks after each hidden layer
# ---------------------------------------------------------------------------


def _shallow_program(seed, n, m, layers):
    rng = np.random.default_rng(seed)
    return shallow_to_register(random_shallow(rng, n, m, layers, CARD.activation_id)), rng


@pytest.mark.parametrize("spec", [CONJ_CARD, ROTATED], ids=["parity", "realizer"])
@pytest.mark.parametrize("layers", [4, 5])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("h", [1e-2, 1e-4])
def test_fused_equals_unfused_on_conj_sigma_chains(spec, layers, n, m, h):
    """The chains of both kinds of conj sigma, at an even and an odd layer
    count: each is sigma's own chain, whichever transform ``lower`` then
    applies to its assembled maps."""
    program, rng = _shallow_program(layers + 7 * n + 3 * m, n, m, layers)
    zs = random_points(rng, 30, n, scale=0.5)
    _assert_fused_equals_unfused(program, spec, "NonPoly_NMplus1", h, zs, rng)


@pytest.mark.parametrize("layers", [4, 5])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 2)])
def test_a_parity_chain_converges_like_cardioid(layers, n, m):
    """The network against its program, evaluated with sigma = cardioid,
    falls about 10x per decade of h from 1e-2 to 1e-4, as cardioid's own
    lowering does.  At an even layer count the errors are cardioid's; at an
    odd one, with the outputs' stage of identity blocks, within 2x of them."""
    program, _ = _shallow_program(layers + n + m, n, m, layers)
    box, grid = CompactBox.square(n, 1.0), GridSpec(5)
    errs = {}
    for spec in (CARD, CONJ_CARD):
        net = {h: lower(program, spec, "NonPoly_NMplus1", h, PROF) for h in (1e-2, 1e-3, 1e-4)}
        errs[spec.name] = [sup_error(lambda zs: eval_register(program, zs, CARD.fn),
                                     lambda zs: eval_cvnn(net[h], zs, spec.fn), box, grid)
                           for h in net]
        assert depth_of(net[1e-2]) == layers + 1 + (spec is CONJ_CARD and layers % 2)
    for e in errs.values():
        assert 5 * e[1] <= e[0] <= 20 * e[1] and 5 * e[2] <= e[1] <= 20 * e[2]
    ratios = np.divide(errs["conj:cardioid"], errs["cardioid"])
    assert np.all(ratios == 1) if layers % 2 == 0 else np.all(ratios <= 2)


def test_an_odd_parity_lowering_builds_the_identity_block_once(monkeypatch):
    """25 program layers give cardioid's network an odd count of hidden
    layers, so conj:cardioid's crosses the outputs through one more stage,
    of the kit's identity blocks: it builds as many identity blocks as
    cardioid's lowering."""
    program, _ = _shallow_program(5, 1, 1, 25)
    build = lowering.identity_block
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(lowering, "identity_block", counting)
    counts = []
    for spec in (CARD, CONJ_CARD):
        calls.clear()
        net = lower(program, spec, "NonPoly_NMplus1", 1e-3, PROF)
        assert depth_of(net) == 26 + (spec is CONJ_CARD)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_an_even_parity_network_is_cardioids_with_every_other_map_conjugated():
    """conj:cardioid's plan keeps cardioid's real lone-d point as its
    identity point, and at an even count of hidden layers the network's maps
    are cardioid's, every odd one conjugated."""
    program, _ = _shallow_program(3, 2, 1, 6)
    assert plan_lowering(CONJ_CARD, "NonPoly_NMplus1", PROF).id_row.z0.imag == 0
    card = lower(program, CARD, "NonPoly_NMplus1", 1e-3, PROF).affine_maps
    conj = lower(program, CONJ_CARD, "NonPoly_NMplus1", 1e-3, PROF).affine_maps
    assert len(card) == len(conj) == 7
    for k, (a, b) in enumerate(zip(card, conj)):
        flip = np.conj if k % 2 else np.asarray
        assert np.array_equal(flip(a.matrix), b.matrix) and np.array_equal(flip(a.bias), b.bias)


def _parity_programs(spec, strategy):
    """Programs whose sigma networks have an even and an odd count of hidden
    layers: shallow ones of 4 and 5 layers, or z, conj z and z conj z, whose
    NMplus4 networks cross 1, 2 and 10 or 13 hidden layers."""
    if strategy.startswith("NonPoly"):
        return [_shallow_program(layers + n, n, m, layers)[0]
                for layers in (4, 5) for n, m in ((1, 1), (2, 2))]
    kind = plan_lowering(spec, strategy, PROF).mul_kind
    return [poly_to_register([PolyZZbar(1, ((1 + 0j, zd, bd),))], kind)
            for zd, bd in (((1,), (0,)), ((0,), (1,)), ((1,), (1,)))]


def _values_or_failure(net, zs, fn):
    try:
        return eval_cvnn(net, zs, fn)
    except EvaluationFailure:
        return None


def test_a_commuting_conj_sigma_network_is_sigmas_with_every_odd_map_conjugated():
    """For every catalog form that takes a conj sigma and commutes with conj,
    under every strategy that plans: its network's maps are sigma's
    network's, every odd one conjugated, and its values are sigma's
    network's, bit for bit.  After an odd count of hidden layers sigma's
    network counts with one more stage, of sigma's identity blocks on the
    outputs, which crosses them before the conjugation; but where sigma's
    poly network opens with an affine init, the chain keeps the init stage
    in its place, a first hidden layer of one identity block per input."""
    h = 1e-3
    seen = set()
    for name in [form for base in available_activations() for form in (base, "conj:" + base)]:
        spec = get_activation(name)
        for strategy in STRATEGIES:
            try:
                plan = plan_lowering(spec, strategy, PROF)
            except (StrategyMismatch, ConstructionError):
                continue
            if plan.sigma is spec or not spec.conj_equivariant:
                continue
            for program in _parity_programs(spec, strategy):
                own = lower(program, plan.sigma, strategy, h, PROF)
                maps = list(own.affine_maps)
                seen.add((name, strategy, len(maps) % 2))
                n = program.input_dim
                if len(maps) % 2 == 0 and strategy.startswith("Poly") and hidden_widths(own)[0] > n:
                    pieces = lower_pieces(program, spec, strategy, h, PROF)
                    chain = assemble_pieces(pieces, plan.sigma.activation_id)
                    assert len(chain.affine_maps) == len(maps) + 1
                    assert hidden_widths(chain)[0] == n
                    maps = list(chain.affine_maps)
                elif len(maps) % 2 == 0:
                    m = program.output_dim
                    blk = identity_block(plan.id_row, h)
                    out = lowering._stage([(blk, [j], [j]) for j in range(m)], m, np.zeros(m))
                    maps[-1:] = [core.fuse_arrays(out.pre, maps[-1]), out.post]
                net = lower(program, spec, strategy, h, PROF)
                assert len(net.affine_maps) == len(maps)
                for k, (a, b) in enumerate(zip(maps, net.affine_maps)):
                    flip = np.conj if k % 2 else np.asarray
                    assert np.array_equal(flip(a.matrix), b.matrix), (name, strategy, k)
                    assert np.array_equal(flip(a.bias), b.bias), (name, strategy, k)
                zs = random_points(np.random.default_rng(0), 20, program.input_dim, scale=0.5)
                want = _values_or_failure(core.Cvnn(maps, plan.sigma.activation_id), zs,
                                          plan.sigma.fn)
                got = _values_or_failure(net, zs, spec.fn)
                assert (got is None and want is None) or np.array_equal(got, want)
    # both strategies, at an even and an odd count
    assert {(s, odd) for name, s, odd in seen if name == "conj:cardioid"} == {
        (s, odd) for s in ("NonPoly_NMplus1", "Poly_NMplus4") for odd in (0, 1)}


def test_a_non_commuting_conj_sigma_network_follows_each_hidden_layer_with_conj_blocks():
    """ROTATED does not commute with conj.  Under each strategy that takes
    its conj sigma, its network has 2L - 1 maps for sigma's network's L:
    the first is sigma's, every odd one is the pre of a stage of
    conjugation blocks at the plan's conj row, one per unit of the hidden
    layer before it, and every even one past the first is sigma's next map
    fused with that stage's post.  The post's bias also takes out each
    unit's constant Taylor remainder at its value for input 0, so there the
    network gives sigma's network's value to rounding (at most 1.8e-10 at
    h = 1e-2), while on other points it is O(h) away (2e-3 to 4e-2)."""
    h = 1e-2
    for strategy in ("NonPoly_NMplus1", "Poly_NMplus4"):
        plan = plan_lowering(ROTATED, strategy, PROF)
        assert plan.sigma is not ROTATED
        blk = conj_block(plan.conj_row, h)
        for program in _parity_programs(ROTATED, strategy):
            sigma = lower(program, plan.sigma, strategy, h, PROF)
            net = lower(program, ROTATED, strategy, h, PROF)
            maps = net.affine_maps
            assert len(maps) == 2 * len(sigma.affine_maps) - 1
            assert np.array_equal(maps[0].matrix, sigma.affine_maps[0].matrix)
            assert np.array_equal(maps[0].bias, sigma.affine_maps[0].bias)
            for k, following in enumerate(sigma.affine_maps[1:]):
                width = following.in_dim
                stage = lowering._stage([(blk, [i], [i]) for i in range(width)], width,
                                        np.zeros(width))
                pre, fused = maps[2 * k + 1], maps[2 * k + 2]
                assert pre.matrix.tobytes() == stage.pre.matrix.tobytes()
                assert pre.bias.tobytes() == stage.pre.bias.tobytes()
                assert np.array_equal(fused.matrix, core.fuse_arrays(following, stage.post).matrix)
            zero = np.zeros((1, program.input_dim))
            err = np.abs(eval_cvnn(net, zero, ROTATED.fn) - eval_cvnn(sigma, zero, plan.sigma.fn))
            assert np.max(err) <= 1e-9


#: (activation, strategy) of the catalog plans whose lowering adds
#: conjugation stages (``_conj_layers``): none, since every catalog activation
#: that takes a conj sigma commutes with conj
REALIZED = set()


def test_the_realizer_builds_only_for_the_listed_plans(monkeypatch):
    """Over every catalog name and its conj: form under every strategy that
    plans, no lowering adds conjugation stages; a new path that takes a
    conj sigma over an activation that does not commute with conj shows
    here.  ROTATED, which does not, still takes it."""
    realized = []
    conj_layers = lowering._conj_layers
    monkeypatch.setattr(lowering, "_conj_layers",
                        lambda maps, spec, *args: realized.append(spec)
                        or conj_layers(maps, spec, *args))
    seen = set()
    for name in CATALOG_FORMS:
        spec = get_activation(name)
        for strategy in STRATEGIES:
            before = len(realized)
            try:
                plan_lowering(spec, strategy, PROF)
            except (StrategyMismatch, ConstructionError):
                continue
            lower(_family_program(spec, strategy), spec, strategy, 1e-3, PROF)
            if realized[before:] == [spec]:
                seen.add((name, strategy))
    assert seen == REALIZED and len(realized) == len(REALIZED)
    lower(_family_program(ROTATED, "NonPoly_NMplus1"), ROTATED, "NonPoly_NMplus1", 1e-3, PROF)
    assert realized == [ROTATED]


# ---------------------------------------------------------------------------
# One rule per block point: the plan holds the rows, the blocks only read them
# ---------------------------------------------------------------------------

CATALOG_FORMS = [form for base in available_activations() for form in (base, "conj:" + base)]

#: the degree-2 program of zzbar, z conj(z)
ZZBAR = PolyZZbar(1, ((1 + 0j, (1,), (1,)),))


def _family_program(spec, strategy):
    """A 3-feature shallow program for a NonPoly strategy; for a Poly one,
    the degree-2 program of zzbar in the product the plan affords (mul2
    where there is no plan)."""
    if strategy.startswith("NonPoly"):
        return _shallow_program(3, 1, 1, 3)[0]
    try:
        kind = plan_lowering(spec, strategy, PROF).mul_kind
    except (StrategyMismatch, ConstructionError):
        kind = "mul2"
    return poly_to_register([ZZBAR], kind)


@pytest.mark.parametrize("name", CATALOG_FORMS)
def test_a_plan_is_accepted_exactly_when_lower_builds_at_every_h(name):
    """Planning and building follow one rule: where ``plan_lowering``
    refuses, ``lower`` refuses with the same error, and where it plans,
    ``lower`` builds at every h of the default schedule.  nowhere_diff's
    poly plans once planned a square point whose block did not build."""
    spec = get_activation(name)
    for strategy in STRATEGIES:
        program = _family_program(spec, strategy)
        try:
            plan_lowering(spec, strategy, PROF)
        except (StrategyMismatch, ConstructionError) as exc:
            with pytest.raises(type(exc)):
                lower(program, spec, strategy, 1e-3, PROF)
            continue
        for h in DEFAULT_SWEEP_SCHEDULE:
            lower(program, spec, strategy, h, PROF)


@pytest.mark.parametrize("name", CATALOG_FORMS)
def test_plan_rows_are_the_rows_of_their_points(name):
    """Every row a plan keeps is what ``point_row`` gives at its point for
    the block built there, bit for bit: the identity row on sigma has a lone
    d, the conj row on the activation a lone dbar, a one-point pair route
    both derivatives, a two-point route a lone d then a lone dbar, and the
    square row the plan's kind, nonzero there."""
    spec = get_activation(name)
    for strategy in STRATEGIES:
        try:
            plan = plan_lowering(spec, strategy, PROF)
        except (StrategyMismatch, ConstructionError):
            continue
        route = plan.pair_route or ()
        needed = [(plan.sigma, plan.id_row, "d"), (spec, plan.conj_row, "dbar"),
                  (plan.sigma, plan.square_row, "square"),
                  *zip([plan.sigma] * 2, route, ("both",) if len(route) == 1 else ("d", "dbar"))]
        for owner, row, pattern in needed:
            if row is not None:
                assert point_row(owner, row.z0, PROF, pattern) == row, (strategy, pattern)
        assert (plan.conj_row is None) == (plan.sigma is spec)


NO_PROBE_CASES = [
    (CARD, "NonPoly_NMplus1"),
    (CONJ_CARD, "NonPoly_NMplus1"),            # conjugation parity
    (MODRELU, "NonPoly_2N2Mplus1"),
    (RE_SQ, "Poly_Wide_2N2Mplus12"),
    (CARD, "Poly_Narrow_2N2Mplus5"),
    (ZB, "Poly_NMplus4"),
    (CONJ_CARD, "Poly_NMplus4"),               # conjugation parity
    (ROTATED, "NonPoly_NMplus1"),              # conjugation stages
]


def test_lower_makes_no_derivative_probe(monkeypatch):
    """With the plans made, lowering at every h reads the rows on the plan:
    a derivative probe anywhere in the package raises."""
    for spec, strategy in NO_PROBE_CASES:
        plan_lowering(spec, strategy, PROF)   # planning probes; lowering must not
    programs = [(spec, strategy, _family_program(spec, strategy))
                for spec, strategy in NO_PROBE_CASES]
    modules = [deepnarrow] + [importlib.import_module(f"deepnarrow.{name}") for name in (
        "activations", "blocks", "cli", "core", "fitting", "lowering", "register",
        "verifier", "wirtinger")]

    def no_probe(*args, **kwargs):
        raise AssertionError("a derivative probe during lowering")

    probes = [getattr(wirtinger, name)
              for name in ("first_derivs", "second_derivs", "wirt_first", "wirt_second")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is probe for probe in probes):
                monkeypatch.setattr(module, attr, no_probe)
    for spec, strategy, program in programs:
        for h in DEFAULT_SWEEP_SCHEDULE:
            lower(program, spec, strategy, h, PROF)
