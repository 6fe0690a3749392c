import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deepnarrow import verifier
from deepnarrow.activations import (conjugate_activation, custom_activation, get_activation,
                                    scale_activation)
from deepnarrow.core import (CompactBox, ComplexAffineMap, Cvnn, GridSpec, cvnn_to_json,
                             depth_of, eval_cvnn, sample_box, width_of)
from deepnarrow.errors import EvaluationFailure
from deepnarrow.fitting import FitConfig
from deepnarrow.lowering import lower, plan_lowering
from deepnarrow.register import (PolyZZbar, eval_register, poly_to_register,
                                 shallow_to_register)
from deepnarrow.verifier import (DEFAULT_SWEEP_SCHEDULE, SweepReport, SweepRow,
                                 affine_closure_demo, affine_subspace_floor_demo,
                                 ball_volume, end_to_end_nonpoly, end_to_end_poly,
                                 fit_deep_random, h_sweep, kernel_invariance_demo,
                                 l1_error_mc, mul_kind_for, named_target,
                                 nowhere_diff_demo, sup_error)
from deepnarrow.blocks import identity_block, square_block
from deepnarrow.wirtinger import ToleranceProfile, classify_activation, point_row

from conftest import LOWERING_CASES, random_affine, random_shallow

PROF = ToleranceProfile()
BOX = CompactBox.square(1, 1.0)


def test_sup_error_identical_functions():
    f = lambda zs: zs
    assert sup_error(f, f, BOX, GridSpec(5)) == 0.0


def test_sup_error_constant_offset():
    f = lambda zs: zs
    g = lambda zs: zs + 0.1
    assert sup_error(f, g, BOX, GridSpec(5)) == pytest.approx(0.1)


def test_l1_error_mc_ball_volume_oracle():
    # indicator of the radius-0.1 ball in C^2 (= R^4): closed-form volume
    # pi^2 r^4 / 2, Monte Carlo within 5% at 1e6 samples
    f = lambda zs: (np.linalg.norm(zs, axis=1) <= 0.1).astype(complex)
    g = lambda zs: np.zeros(zs.shape[0], complex)
    box = CompactBox.square(2, 0.2)
    est = l1_error_mc(f, g, box, 1_000_000, seed=3)
    want = ball_volume(0.1, 4)
    assert want == pytest.approx(np.pi**2 * 0.1**4 / 2)
    assert abs(est.value - want) / want < 0.05
    assert abs(est.value - want) < 4 * est.stderr


def test_l1_error_mc_deterministic():
    f = lambda zs: zs[:, 0]
    g = lambda zs: np.zeros(zs.shape[0], complex)
    a = l1_error_mc(f, g, BOX, 1000, seed=5)
    b = l1_error_mc(f, g, BOX, 1000, seed=5)
    assert a == b


def test_h_sweep_identity_block_decreasing():
    card = get_activation("cardioid")
    report = h_sweep(
        lambda h: identity_block(point_row(card, 1.0, PROF, "d"), h).to_cvnn(card),
        DEFAULT_SWEEP_SCHEDULE, BOX, GridSpec(9),
        lambda zs: zs, card, metadata={"case": "identity-card"})
    errs = [r.sup_error for r in report.rows]
    for cur, nxt in zip(errs, errs[1:]):
        if cur < 1e-9:
            break
        assert nxt < cur
    assert report.best_row().sup_error < 1e-6


def test_h_sweep_square_block_exact_every_h():
    rs = get_activation("re_square")
    report = h_sweep(
        lambda h: square_block(point_row(rs, 0.0, PROF, "square"), h).to_cvnn(rs),
        (1e-1, 1e-2, 1e-3), BOX, GridSpec(9),
        lambda zs: zs * np.conj(zs), rs)
    assert all(r.sup_error < 1e-10 for r in report.rows)


def test_h_sweep_square_block_smooth_nonquadratic_rate():
    # selection resolves the kind first (exp_re has all three second
    # derivatives nonzero, the mixed one wins); then error(h/2) <= 0.75 error(h)
    spec = get_activation("exp_re")
    sq = point_row(spec, 0.0, PROF, "square")
    assert sq.kind == "zzbar"
    hs = [1e-1 * 2.0**-k for k in range(6)]
    report = h_sweep(
        lambda h: square_block(sq, h).to_cvnn(spec),
        hs, BOX, GridSpec(9), lambda zs: zs * np.conj(zs), spec)
    errs = [r.sup_error for r in report.rows]
    for cur, nxt in zip(errs, errs[1:]):
        if cur < 1e-9:
            break
        assert nxt <= 0.75 * cur


def test_sweep_report_csv_schema():
    report = SweepReport([SweepRow(0.1, 0.5, 10.0, 4, 3)], {"activation": "x"})
    text = report.to_csv(timestamp=False)
    lines = text.strip().split("\n")
    assert lines[0] == "# activation=x"
    assert lines[1] == "h,sup_error,max_post_coeff,depth,width"
    assert lines[2] == "0.1,0.5,10.0,4,3"
    stamped = report.to_csv(timestamp=True)
    assert stamped.startswith("# generated=")


def test_end_to_end_poly_re_square_narrow():
    rs = get_activation("re_square")
    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (1 + 0j, (0,), (2,))))
    f = lambda zs: p(zs)[:, None]
    report = end_to_end_poly(f, rs, 2, "Poly_Narrow_2N2Mplus5", BOX,
                             fit_grid=GridSpec(9), prof=PROF)
    net = report.best_net()
    assert width_of(net) <= 9
    assert report.best_row().sup_error < 1e-2
    assert report.metadata["mul_kind"] == "mul2"
    # target in the basis: the polynomial stage is exact, all error is lowering
    assert report.program_sup_error() < 1e-10
    assert report.fit_sup_error is None
    # one network per row
    assert len(report.nets) == len(report.rows) == len(DEFAULT_SWEEP_SCHEDULE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.rows = ()


def test_end_to_end_poly_z_in_basis_any_poly_strategy():
    rs = get_activation("re_square")
    f = lambda zs: zs[:, :1]
    report = end_to_end_poly(f, rs, 1, "Poly_Wide_2N2Mplus12", BOX,
                             fit_grid=GridSpec(9), prof=PROF)
    assert report.best_row().sup_error < 1e-3


def test_end_to_end_poly_bivariate_width():
    ab = get_activation("abs_square")
    f = lambda zs: (zs[:, 0] * np.conj(zs[:, 1]))[:, None]
    box2 = CompactBox.square(2, 1.0)
    report = end_to_end_poly(f, ab, 2, "Poly_Narrow_2N2Mplus5", box2,
                             fit_grid=GridSpec(4), prof=PROF)
    net = report.best_net()
    assert width_of(net) <= 2 * 2 + 2 * 1 + 5
    assert report.best_row().sup_error < 1e-2


def _csv_metadata(report) -> dict:
    return dict(line[2:].split("=", 1) for line in report.to_csv(False).splitlines()
                if line.startswith("# "))


def test_end_to_end_nonpoly_takes_m_from_the_target():
    """norm0 = (|z|, 0) has two columns: the network has two outputs and the
    sweep CSV says m=2, with no m passed."""
    card = get_activation("cardioid")
    cfg = FitConfig(num_features=40, ridge=1e-6, grid=GridSpec(9), seed=0)
    report = end_to_end_nonpoly(named_target("norm0"), card, cfg, "NonPoly_NMplus1",
                                schedule=(1e-4,))
    assert report.best_net().output_dim == 2
    meta = _csv_metadata(report)
    assert (meta["n"], meta["m"]) == ("1", "2")


def test_end_to_end_poly_takes_n_from_the_box():
    """z1zbar2 on a 2-coordinate box: the fitted program reads two inputs and
    the sweep CSV says n=2, with no n passed."""
    ab = get_activation("abs_square")
    report = end_to_end_poly(named_target("z1zbar2"), ab, 2, "Poly_Narrow_2N2Mplus5",
                             CompactBox.square(2, 1.0), fit_grid=GridSpec(4),
                             schedule=(1e-3,), prof=PROF)
    assert report.best_net().input_dim == report.program.input_dim == 2
    meta = _csv_metadata(report)
    assert (meta["n"], meta["m"]) == ("2", "1")


def test_end_to_end_nonpoly_cardioid():
    card = get_activation("cardioid")
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=300, weight_scale=1.0, ridge=1e-6,
                    grid=GridSpec(21), seed=0)
    report = end_to_end_nonpoly(fn, card, cfg, "NonPoly_NMplus1")
    net = report.best_net()
    assert width_of(net) <= 3
    best = report.best_row()
    assert best.sup_error <= report.fit_sup_error + 1e-2


def test_conj_of_a_rotated_cardioid_compiles_through_the_conjugation_realizer():
    """conj o (0.5+0.5j) cardioid does not commute with conj, so conjugating
    every odd map of sigma's network does not give its network; it has a
    lone dbar and no lone d, and compiles under NonPoly_NMplus1 against
    sigma = the scaled spec itself, each hidden layer of sigma's network
    followed by a stage of conjugation blocks."""
    scaled = scale_activation(get_activation("cardioid"), 0.5 + 0.5j)
    spec = conjugate_activation(scaled)
    z = np.array([0.3 + 0.7j, -1 + 0.2j])
    assert not np.allclose(spec(np.conj(z)), np.conj(spec(z)))
    assert classify_activation(spec, PROF).verdict == "UniversalNonPoly_NMplus1"
    cfg = FitConfig(num_features=40, ridge=1e-6, grid=GridSpec(9), seed=1)
    report = end_to_end_nonpoly(named_target("zzbar"), spec, cfg, "NonPoly_NMplus1")
    assert report.plan.sigma is scaled
    assert depth_of(report.best_net()) == 2 * cfg.num_features + 1
    assert report.best_row().sup_error < report.lattice.constant_sup_error


def test_end_to_end_nonpoly_modrelu_width():
    mr = get_activation("modrelu", {"b": -1})
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=100, weight_scale=1.0, ridge=1e-6,
                    grid=GridSpec(15), seed=0)
    report = end_to_end_nonpoly(fn, mr, cfg, "NonPoly_2N2Mplus1")
    net = report.best_net()
    assert width_of(net) <= 5
    assert report.best_row().sup_error <= report.fit_sup_error + 1e-2


def test_composition_slack_triangle_inequality():
    # measured total <= ideal-stage error + measured lowering error + 1e-9,
    # all on the same verification grid
    card = get_activation("cardioid")
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=80, weight_scale=1.0, ridge=1e-6,
                    grid=GridSpec(15), seed=1)
    report = end_to_end_nonpoly(fn, card, cfg, "NonPoly_NMplus1")
    net = report.best_net()
    program = report.program
    eval_grid = GridSpec(30)
    best = report.best_row()
    lowering_err = sup_error(lambda zs: eval_register(program, zs, card.fn),
                             lambda zs: eval_cvnn(net, zs, card.fn), BOX, eval_grid)
    fit_err_fine = report.program_sup_error()
    assert best.sup_error <= fit_err_fine + lowering_err + 1e-9


def test_verification_grid_finer_than_fit_grid():
    card = get_activation("cardioid")
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=40, grid=GridSpec(9), seed=0)
    report = end_to_end_nonpoly(fn, card, cfg, "NonPoly_NMplus1", schedule=(1e-4,))
    # the report's errors are measured on 2x the fit grid per axis
    assert report.program_sup_error() >= 0.0
    assert report.metadata["features"] == 40


def test_kernel_invariance_demo_width_2n_minus_1():
    rep = kernel_invariance_demo(2, seed=0, mc_samples=50_000)
    assert rep["nullspace_found"]
    assert rep["invariance_residual"] < 1e-9
    assert rep["l1_threshold"] == pytest.approx(0.8 * np.pi**2 * 0.1**4 / 2)
    assert rep["l1_estimate"]["value"] >= rep["l1_threshold"] - 3 * rep["l1_estimate"]["stderr"]
    assert rep["passed"]


def test_affine_subspace_floor_demo():
    rep = affine_subspace_floor_demo()
    assert rep["vertex_floor"] >= 0.5 - 2e-2
    assert rep["degenerate_floor"] < 1e-2
    assert all(err >= 0.45 for err in rep["net_errors"])
    assert rep["passed"]


def test_affine_closure_demo():
    rep = affine_closure_demo()
    assert rep["affinity_residual"] < 1e-9
    assert rep["passed"]


def test_fit_deep_random_deterministic():
    spec = get_activation("exp")
    fn = named_target("zbar")
    cfg = FitConfig(num_features=16, weight_scale=0.5, ridge=1e-8, box=BOX,
                    grid=GridSpec(9), seed=0)
    _, e1 = fit_deep_random(fn, spec, 16, 3, cfg)
    _, e2 = fit_deep_random(fn, spec, 16, 3, cfg)
    assert e1 == e2


def test_nowhere_diff_demo():
    rep = nowhere_diff_demo()
    assert rep["passed"]
    best = rep["best"]
    assert best["sup_error"] < 1e-2 and best["k"] <= 50
    assert best["h"] in DEFAULT_SWEEP_SCHEDULE


def test_mul_kind_for():
    assert mul_kind_for(get_activation("re_square"), PROF) == "mul2"
    assert mul_kind_for(get_activation("z_plus_zbar_sq"), PROF) == "mul3"


# ---------------------------------------------------------------------------
# Row blocks: the error measures evaluate _ROW_BLOCK rows at a time and must
# return exactly what one pass over all rows returns.
# ---------------------------------------------------------------------------


def _one_pass_norms(f, g, pts):
    fv = np.asarray(f(pts), dtype=np.complex128).reshape(pts.shape[0], -1)
    gv = np.asarray(g(pts), dtype=np.complex128).reshape(pts.shape[0], -1)
    return np.linalg.norm(fv - gv, axis=1)


def _card_net_pair(n, target):
    card = get_activation("cardioid")
    fn = named_target(target)
    m = fn(np.zeros((1, n), dtype=np.complex128)).reshape(1, -1).shape[1]
    rng = np.random.default_rng(7)
    net = Cvnn((random_affine(rng, 5, n), random_affine(rng, 5, 5, 0.5),
                random_affine(rng, m, 5, 0.5)), card.activation_id)
    return fn, lambda zs: eval_cvnn(net, zs, card.fn)


@pytest.mark.parametrize("n, target, points_per_axis, block", [
    (1, "zzbar", 5, 32),      # 25 rows < one block
    (1, "zzbar", 4, 8),       # 16 = 2 blocks
    (1, "zzbar", 9, 8),       # 81 = 10 blocks + 1 row
    (2, "norm0", 2, 32),      # 16 rows < one block
    (2, "norm0", 4, 16),      # 256 = 16 blocks
    (2, "norm0", 3, 16),      # 81 = 5 blocks + 1 row
    (1, "zzbar", 64, None),   # 4096 = 2 blocks of the module's size
])
def test_sup_error_blocks_equal_one_pass(monkeypatch, n, target, points_per_axis, block):
    if block is not None:
        monkeypatch.setattr(verifier, "_ROW_BLOCK", block)
    f, g = _card_net_pair(n, target)
    box = CompactBox.square(n, 1.0)
    for grid in (GridSpec(points_per_axis), GridSpec(points_per_axis, stride=2)):
        want = float(np.max(_one_pass_norms(f, g, sample_box(box, grid))))
        assert sup_error(f, g, box, grid) == want


def test_no_row_is_evaluated_alone(monkeypatch, rng):
    """324 = 19 x 17 + 1 rows: the last row goes with the block before it.
    Alone it would take the one-row matmul kernel, whose values for this
    lowered network differ from a block's in the last bits."""
    monkeypatch.setattr(verifier, "_ROW_BLOCK", 17)
    card = get_activation("cardioid")
    program = shallow_to_register(random_shallow(rng, 1, 1, 4, card.activation_id))
    net = lower(program, card, "NonPoly_NMplus1", 1e-3, PROF)
    f = lambda zs: eval_register(program, zs, card.fn)
    g = lambda zs: eval_cvnn(net, zs, card.fn)
    pts = sample_box(BOX, GridSpec(18))
    assert width_of(net) == 3 and pts.shape[0] % 17 == 1
    sizes = []
    counted = lambda zs: sizes.append(zs.shape[0]) or g(zs)
    fv = verifier._values(f, pts)
    assert fv.tobytes() == f(pts).tobytes()
    assert verifier._row_errors(fv, counted, pts).tobytes() == _one_pass_norms(f, g, pts).tobytes()
    assert sizes == [17] * 18 + [18]


@pytest.mark.parametrize("samples", [100, 2048, 4096, 4097])
def test_l1_error_mc_blocks_equal_one_pass(samples):
    assert verifier._ROW_BLOCK == 2048
    f, g = _card_net_pair(2, "norm0")
    box = CompactBox.square(2, 1.0)
    rng = np.random.default_rng(11)
    pts = np.empty((samples, 2), dtype=np.complex128)
    for j, (re_lo, re_hi, im_lo, im_hi) in enumerate(box.intervals):
        pts[:, j] = rng.uniform(re_lo, re_hi, samples) + 1j * rng.uniform(im_lo, im_hi, samples)
    norms = _one_pass_norms(f, g, pts)
    est = l1_error_mc(f, g, box, samples, seed=11)
    assert est.value == float(np.mean(norms) * 16.0)
    assert est.stderr == float(np.std(norms, ddof=1) / np.sqrt(samples) * 16.0)


def test_sup_error_nan_in_last_block_is_nan(monkeypatch):
    monkeypatch.setattr(verifier, "_ROW_BLOCK", 8)
    # 81 lattice points, the last one (1+1j) in the tenth block, rows 72-80
    # (the lone 81st row is folded into the block before it)
    g = lambda zs: np.where(zs[:, 0] == 1 + 1j, np.nan, zs[:, 0])
    assert np.isnan(sup_error(lambda zs: zs[:, 0], g, BOX, GridSpec(9)))


def test_late_block_evaluation_failure_gives_inf_row(monkeypatch):
    monkeypatch.setattr(verifier, "_ROW_BLOCK", 8)
    # finite except at RE z = 1, the last 9 of 81 lattice rows (the tenth block)
    spec = custom_activation("blows_up_at_re_1",
                             lambda z: np.where(z.real < 0.99, z, np.inf))
    one = ComplexAffineMap(np.eye(1), np.zeros(1))
    net = Cvnn((one, one), spec.activation_id)
    ident = lambda zs: zs[:, 0]
    head = sample_box(BOX, GridSpec(9))[:72]
    assert np.all(np.isfinite(eval_cvnn(net, head, spec.fn)))
    with pytest.raises(EvaluationFailure):
        sup_error(ident, lambda zs: eval_cvnn(net, zs, spec.fn), BOX, GridSpec(9))
    report = h_sweep(lambda h: net, (1e-1, 1e-2), BOX, GridSpec(9), ident, spec)
    assert [r.sup_error for r in report.rows] == [np.inf, np.inf]
    with pytest.raises(EvaluationFailure):
        report.best_row()


def test_best_row_skips_non_finite_rows():
    rows = [SweepRow(1e-1, float("nan"), 1.0, 4, 3), SweepRow(1e-2, 0.5, 1.0, 4, 3),
            SweepRow(1e-3, float("inf"), 1.0, 4, 3), SweepRow(1e-4, 0.25, 1.0, 4, 3)]
    assert SweepReport(rows).best_row().h == 1e-4


def test_best_row_without_finite_rows_raises():
    rows = [SweepRow(1e-1, float("nan"), 1.0, 4, 3), SweepRow(1e-2, float("inf"), 1.0, 4, 3)]
    with pytest.raises(EvaluationFailure, match="no h in the sweep"):
        SweepReport(rows).best_row()


def test_end_to_end_nonpoly_all_infinite_sweep_raises():
    # z|z| + 1e-5 z: at 0, d = 1e-5 and dbar = 0, the only lone-d point; the
    # NMplus1 lowering's identity blocks there divide by h d and overflow at
    # every h of the default schedule
    spec = custom_activation("z_abs_z_eps", lambda z: z * np.abs(z) + 1e-5 * z)
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=40, grid=GridSpec(21), seed=0)
    with pytest.raises(EvaluationFailure, match="no h in the sweep"):
        end_to_end_nonpoly(fn, spec, cfg, "NonPoly_NMplus1")


# ---------------------------------------------------------------------------
# The two-pass sweep against a full measurement of every row
# ---------------------------------------------------------------------------


def _full_errors(report, reference, spec, box, grid):
    """Every row of the report measured on the full grid, as the sweep did
    before it bounded rows on a sub-lattice."""
    out = []
    for net in report.nets:
        try:
            out.append(sup_error(reference, lambda zs: eval_cvnn(net, zs, spec.fn), box, grid))
        except EvaluationFailure:
            out.append(float("inf"))
    return out


def _strategy_case(case, n):
    """(strategy, activation, program, reference) for one lowering case: a
    random shallow program for the NonPoly strategies, a cross term plus a
    square for the Poly ones."""
    strategy, spec = LOWERING_CASES[case]
    plan = plan_lowering(spec, strategy, PROF)
    if strategy.startswith("NonPoly"):
        shallow = random_shallow(np.random.default_rng(5), n, 1, 4,
                                 plan.sigma.activation_id, scale=0.5)
        program = shallow_to_register(shallow)
        return strategy, spec, program, lambda zs: eval_register(program, zs, plan.sigma.fn)
    other = min(1, n - 1)
    poly = PolyZZbar(n, ((1 + 0j, tuple(int(i == 0) for i in range(n)),
                          tuple(int(i == other and n > 1) for i in range(n))),
                         (0.5 - 0.25j, (0,) * n, tuple(2 * int(i == 0) for i in range(n)))))
    program = poly_to_register([poly], plan.mul_kind)
    return strategy, spec, program, lambda zs: eval_register(program, zs)


@pytest.mark.parametrize("case, n, points_per_axis, stride", [
    # compile --grid 24: 48^2 = 2,304 points
    *[(case, 1, 48, 2) for case in LOWERING_CASES],
    # 12^4 = 20,736 points
    *[(case, 2, 12, 2) for case in LOWERING_CASES],
    # the 18^4 lattice of every n = 2 compile at the default grid
    ("NonPoly_NMplus1", 2, 18, 3),
])
def test_sweep_best_row_equals_full_measurement(case, n, points_per_axis, stride):
    """The best row, its value and its network are those of a full
    measurement of every row; a bound is never above its row's full value,
    and a row measured in full reports that value."""
    strategy, spec, program, reference = _strategy_case(case, n)
    box, grid = CompactBox.square(n, 1.0), GridSpec(points_per_axis)
    assert verifier._bound_grid(box, grid).stride == stride
    report = h_sweep(lambda h: lower(program, spec, strategy, h, PROF),
                     DEFAULT_SWEEP_SCHEDULE, box, grid, reference, spec)
    full = _full_errors(report, reference, spec, box, grid)
    finite = [(e, h) for h, e in zip(DEFAULT_SWEEP_SCHEDULE, full) if np.isfinite(e)]
    want_err, want_h = min(finite, key=lambda t: t[0])
    bounds = report.metadata.get("lower_bound_h", "").split(";")
    assert bounds[0], "every row measured in full: pass 1 bounded nothing"
    for row, want in zip(report.rows, full):
        if repr(row.h) in bounds:
            assert row.sup_error <= want or not np.isfinite(want)
            assert not row.sup_error <= want_err
        else:
            assert row.sup_error == want
    best = report.best_row()
    assert (best.h, best.sup_error) == (want_h, want_err)
    assert repr(best.h) not in bounds
    assert cvnn_to_json(report.best_net()) == cvnn_to_json(
        lower(program, spec, strategy, want_h, PROF))


@pytest.mark.parametrize("n, points_per_axis, stride", [
    (2, 18, 3), (1, 18, 1), (1, 48, 2), (1, 45, 1), (1, 46, 2), (2, 6, 1), (2, 7, 2),
])
def test_bound_grid_stride_rule(n, points_per_axis, stride):
    """The smallest stride whose sub-lattice fits in one row block; every
    lattice of at most 2,048 points is its own bound."""
    sub = verifier._bound_grid(CompactBox.square(n, 1.0), GridSpec(points_per_axis))
    assert (sub.points_per_axis, sub.stride) == (points_per_axis, stride)
    assert sub.axis_points ** (2 * n) <= verifier._ROW_BLOCK
    if stride > 1:
        assert GridSpec(points_per_axis, stride - 1).axis_points ** (2 * n) > verifier._ROW_BLOCK


def test_sweep_at_stride_1_measures_every_row_in_full():
    card = get_activation("cardioid")
    report = h_sweep(lambda h: identity_block(point_row(card, 1.0, PROF, "d"), h).to_cvnn(card),
                     DEFAULT_SWEEP_SCHEDULE, BOX, GridSpec(18), lambda zs: zs, card)
    assert "lower_bound_h" not in report.metadata
    assert "lower_bound_h" not in report.to_csv()
    assert [r.sup_error for r in report.rows] == _full_errors(
        report, lambda zs: zs, card, BOX, GridSpec(18))


@given(n=st.integers(1, 2), points=st.integers(2, 9), stride=st.integers(1, 9),
       lows=st.lists(st.floats(-4, 4), min_size=4, max_size=4),
       sides=st.lists(st.floats(0, 3), min_size=4, max_size=4))
def test_strided_lattice_is_the_matching_rows_of_the_full_lattice(n, points, stride,
                                                                  lows, sides):
    box = CompactBox(tuple((lows[2 * j], lows[2 * j] + sides[2 * j],
                            lows[2 * j + 1], lows[2 * j + 1] + sides[2 * j + 1])
                           for j in range(n)))
    full = sample_box(box, GridSpec(points)).reshape((points,) * (2 * n) + (n,))
    want = full[(slice(None, None, stride),) * (2 * n)].reshape(-1, n)
    got = sample_box(box, GridSpec(points, stride))
    assert got.shape == (GridSpec(points, stride).axis_points ** (2 * n), n)
    assert got.tobytes() == want.tobytes()


def test_sweep_without_finite_row_raises_at_any_stride(monkeypatch):
    """Rows that are non-finite on the sub-lattice are not measured in full
    and keep their bound; rows finite there but not on the full grid are
    measured and become inf.  Either way no row is finite."""
    one = ComplexAffineMap(np.eye(1), np.zeros(1))
    ident = lambda zs: zs[:, 0]
    everywhere = custom_activation("inf", lambda z: np.full_like(z, np.inf))
    off_sub = custom_activation("inf_at_re_1", lambda z: np.where(z.real < 0.99, z, np.inf))
    monkeypatch.setattr(verifier, "_ROW_BLOCK", 16)
    # 9 points per axis: stride 3 keeps indices 0, 3, 6 (RE z <= 0.5)
    assert verifier._bound_grid(BOX, GridSpec(9)).stride == 3
    for spec, bounded in ((everywhere, "0.1;0.01"), (off_sub, None)):
        net = Cvnn((one, one), spec.activation_id)
        report = h_sweep(lambda h: net, (1e-1, 1e-2), BOX, GridSpec(9), ident, spec)
        assert [r.sup_error for r in report.rows] == [np.inf, np.inf]
        assert report.metadata.get("lower_bound_h") == bounded
        with pytest.raises(EvaluationFailure, match="no h in the sweep"):
            report.best_row()


# ---------------------------------------------------------------------------
# A network no better than a constant is a failure
# ---------------------------------------------------------------------------


def test_constant_sup_error_is_the_centre_of_the_bounding_box():
    fn = named_target("abs")
    # |z| on the 18 x 18 lattice of [-1, 1]^2 ranges over [1/17, sqrt(2)]
    grid = GridSpec(18)
    vals = np.abs(sample_box(BOX, grid)[:, 0])
    want = (vals.max() - vals.min()) / 2
    lattice = verifier._Lattice(fn, BOX, grid)
    assert lattice.constant_sup_error == pytest.approx(want, rel=1e-15)
    # per output: (|z|, 0) keeps the first output's half range
    norm0 = named_target("norm0")
    lattice = verifier._Lattice(norm0, BOX, grid)
    assert lattice.constant_sup_error == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("seed, beats", [(0, True), (5, False)])
def test_end_to_end_nonpoly_refuses_a_fit_worse_than_a_constant(seed, beats):
    spec = get_activation("exp_re")
    fn = named_target("abs")
    cfg = FitConfig(num_features=40, ridge=1e-6, grid=GridSpec(9), seed=seed)
    if beats:
        report = end_to_end_nonpoly(fn, spec, cfg, "NonPoly_2N2Mplus1")
        assert report.best_row().sup_error < report.lattice.constant_sup_error
    else:
        with pytest.raises(EvaluationFailure, match="not below"):
            end_to_end_nonpoly(fn, spec, cfg, "NonPoly_2N2Mplus1")


def test_end_to_end_poly_reports_constant_error():
    spec = get_activation("re_square")
    fn = named_target("zzbar")
    report = end_to_end_poly(fn, spec, 2, "Poly_Narrow_2N2Mplus5", BOX, prof=PROF)
    # z conj(z) = |z|^2 on the 18 x 18 lattice of [-1, 1]^2 ranges over [2/289, 2]
    assert report.lattice.constant_sup_error == pytest.approx(1 - 1 / 289, rel=1e-12)
    assert report.best_row().sup_error < report.lattice.constant_sup_error
