import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deepnarrow import fitting
from deepnarrow.activations import get_activation
from deepnarrow.core import (CompactBox, ComplexAffineMap, Cvnn, GridSpec, _as_batch,
                             cvnn_to_json, eval_cvnn, sample_box)
from deepnarrow.errors import DimensionMismatch, FitSingular
from deepnarrow.fitting import (FitConfig, fit_poly, fit_shallow,
                                monomial_exponents, solve_complex_ridge)
from deepnarrow.verifier import named_target, sup_error

from conftest import random_shallow

CARD = get_activation("cardioid")
BOX = CompactBox.square(1, 1.0)


def test_solve_complex_ridge_matches_exact_solution(rng):
    # well-conditioned square system: the ridge-free solution solves exactly
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = solve_complex_ridge(a, a @ x, 0.0)
    assert np.max(np.abs(c - x)) < 1e-10


def test_solve_complex_ridge_dual_matches_primal(rng):
    # wide system: the kernel-form solution equals the primal ridge solution
    a = rng.standard_normal((20, 60)) + 1j * rng.standard_normal((20, 60))
    y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    ridge = 1e-3
    dual = solve_complex_ridge(a, y, ridge)
    ar = np.block([[a.real, -a.imag], [a.imag, a.real]])
    yr = np.concatenate([y.real, y.imag])
    primal = np.linalg.solve(ar.T @ ar + ridge * np.eye(120), ar.T @ yr)
    primal_c = primal[:60] + 1j * primal[60:]
    assert np.max(np.abs(dual - primal_c)) < 1e-8


def _reference_ridge(a, y, ridge):
    """solve_complex_ridge's doubled real system written whole: np.block
    for the system and ridge * np.eye for the penalty."""
    w = a.shape[1]
    ar = np.block([[a.real, -a.imag], [a.imag, a.real]])
    yr = np.vstack([y.real, y.imag])
    if ridge == 0:
        sol, _, rank, _ = np.linalg.lstsq(ar, yr, rcond=None)
        if rank < 2 * w:
            raise FitSingular("singular")
    elif w > a.shape[0]:
        sol = ar.T @ np.linalg.solve(ar @ ar.T + ridge * np.eye(len(ar)), yr)
    else:
        sol = np.linalg.solve(ar.T @ ar + ridge * np.eye(2 * w), ar.T @ yr)
    return sol[:w] + 1j * sol[w:]


def _whole_complex_ridge(a, y, ridge):
    """solve_complex_ridge's complex formulation written whole: ridge * np.eye
    for the penalty."""
    p, w = a.shape
    if ridge == 0:
        c, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < w:
            raise FitSingular("singular")
        return c
    ah = a.conj().T
    if w > p:
        return ah @ np.linalg.solve(a @ ah + ridge * np.eye(p), y)
    return np.linalg.solve(ah @ a + ridge * np.eye(w), ah @ y)


@given(p=st.integers(1, 12), w=st.integers(1, 12), k=st.sampled_from([1, 2]),
       ridge=st.sampled_from([0.0, 1e-8, 1e-3, 2.0]), real_column=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_solve_complex_ridge_is_the_real_embedding_solution_and_the_whole_complex_one(
        p, w, k, ridge, real_column, seed):
    """The complex solve agrees with the doubled real system to 1e-9 of its
    largest coefficient and raises FitSingular exactly where that system is
    rank deficient, with more rows than columns and fewer; and the ridge
    added to the Gram diagonal in place gives the bits of ridge * np.eye.
    A column with zero imaginary parts puts -0.0 into the products."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, w)) + 1j * rng.standard_normal((p, w))
    if real_column:
        a[:, -1] = a[:, -1].real
    y = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    try:
        ref = _reference_ridge(a, y, ridge)
    except FitSingular:
        with pytest.raises(FitSingular):
            solve_complex_ridge(a, y, ridge)
        return
    got = solve_complex_ridge(a, y, ridge)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, float(np.max(np.abs(ref))))
    want = _whole_complex_ridge(a, y, ridge)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _reference_fit(f, spec, cfg):
    """fit_shallow as the whole design: the features through np.hstack, the
    solve written whole, the achieved error from eval_cvnn of the network."""
    rng = np.random.default_rng(cfg.seed)
    w = cfg.num_features
    a1 = fitting._complex_normal(rng, (w, cfg.box.n), cfg.weight_scale) / np.sqrt(2)
    b1 = fitting._complex_normal(rng, w, cfg.weight_scale) / np.sqrt(2)
    pts = sample_box(cfg.box, cfg.grid)
    targets = _as_batch(f(pts), pts.shape[0])
    feats = spec(pts @ a1.T + b1)
    design = np.hstack([feats, np.ones((pts.shape[0], 1), dtype=np.complex128)])
    coef = _whole_complex_ridge(design, targets, cfg.ridge)
    net = Cvnn((ComplexAffineMap(a1, b1), ComplexAffineMap(coef[:w].T, coef[w])),
               spec.activation_id)
    err = float(np.max(np.linalg.norm(eval_cvnn(net, pts, spec.fn) - targets, axis=1)))
    return net, err


@pytest.mark.parametrize("ridge", [0.0, 1e-8])
@pytest.mark.parametrize("n, target, points_per_axis", [
    (1, "zzbar", 9), (1, "norm0", 9), (1, "zzbar", 64), (1, "norm0", 64),
    (2, "z1zbar2", 4), (2, "norm0", 4), (2, "z1zbar2", 7), (2, "norm0", 7)])
@pytest.mark.parametrize("activation", ["cardioid", "tanh_re"])
def test_fit_shallow_is_the_reference_fit_bit_for_bit(activation, n, target,
                                                      points_per_axis, ridge):
    """The hidden layer evaluated once, in place and a block of columns at
    a time, and the error read from the design give the reference's network
    JSON and error repr.  The 9- and 4-point grids pass all 40 features to
    one activation call, the 64- and 7-point grids split them over several."""
    spec = get_activation(activation)
    cfg = FitConfig(num_features=40, ridge=ridge, box=CompactBox.square(n, 1.0),
                    grid=GridSpec(points_per_axis), seed=5)
    points = cfg.grid.axis_points ** (2 * n)
    blocks = -(-cfg.num_features // max(1, fitting.ACTIVATION_BLOCK // points))
    assert (blocks > 1) == (points_per_axis in (64, 7))
    net, err = fit_shallow(named_target(target), spec, cfg)
    want_net, want_err = _reference_fit(named_target(target), spec, cfg)
    assert cvnn_to_json(net) == cvnn_to_json(want_net)
    assert repr(err) == repr(want_err)


@pytest.mark.parametrize("n, target, points_per_axis, features, bound_mb", [
    pytest.param(1, "zzbar", 9, 1000, 3, id="dual"),
    pytest.param(2, "z1zbar2", 9, 120, 28, id="primal")])
def test_fit_shallow_holds_one_copy_of_its_system(n, target, points_per_axis, features,
                                                  bound_mb):
    """A fit traces its design and the design's conjugate transpose, the
    Gram and the activation's temporaries, but no third copy of the design:
    neither a second evaluation of the hidden layer nor a doubled real
    system (twice the design's bytes) fits beside the two.  The 9 x 9 grid
    with 1,000 features solves the dual system, its design (81 x 1,001
    complex) 1.24 MB; the 9^4 grid with 120 features solves the primal one,
    its design (6,561 x 121) 12.1 MB."""
    cfg = FitConfig(num_features=features, box=CompactBox.square(n, 1.0),
                    grid=GridSpec(points_per_axis), seed=1)
    f = named_target(target)
    fit_shallow(f, CARD, cfg)
    tracemalloc.start()
    try:
        fit_shallow(f, CARD, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20


def test_fit_shallow_determinism():
    fn = named_target("re")
    mr = get_activation("modrelu", {"b": -1})
    cfg = FitConfig(num_features=50, weight_scale=1.0, ridge=1e-8, box=BOX,
                    grid=GridSpec(11), seed=4)
    net1, err1 = fit_shallow(fn, mr, cfg)
    net2, err2 = fit_shallow(fn, mr, cfg)
    assert err1 == err2
    assert cvnn_to_json(net1) == cvnn_to_json(net2)


def test_fit_shallow_self_consistency(rng):
    # fitting a realizable target with the generator's own features
    # interpolates it: solve the output layer against the generator's hidden
    # features directly
    gen = random_shallow(rng, 1, 1, 30, CARD.activation_id)
    target = lambda zs: eval_cvnn(gen, zs, CARD.fn)
    pts = sample_box(BOX, GridSpec(21))
    feats = CARD.fn(pts @ gen.affine_maps[0].matrix.T + gen.affine_maps[0].bias)
    design = np.hstack([feats, np.ones((pts.shape[0], 1), complex)])
    coef = solve_complex_ridge(design, target(pts), 0.0)
    resid = np.max(np.abs((design @ coef)[:, 0] - target(pts)[:, 0]))
    assert resid < 1e-8


def test_fit_shallow_modrelu_re_target():
    fn = named_target("re")
    mr = get_activation("modrelu", {"b": -1})
    cfg = FitConfig(num_features=200, weight_scale=1.0, ridge=1e-8, box=BOX,
                    grid=GridSpec(21), seed=0)
    net, err = fit_shallow(fn, mr, cfg)
    assert err < 0.05
    fine = sup_error(fn, lambda zs: eval_cvnn(net, zs, mr.fn), BOX, GridSpec(42))
    assert fine < 0.05


def test_fit_shallow_monotone_in_features_median():
    # statistical: doubling the feature count does not increase the median
    # error over seeds for a realizable-ish smooth target
    fn = named_target("zzbar")
    small, big = [], []
    for seed in range(5):
        for width, acc in ((60, small), (120, big)):
            cfg = FitConfig(num_features=width, weight_scale=1.0, ridge=1e-8,
                            box=BOX, grid=GridSpec(15), seed=seed)
            _, err = fit_shallow(fn, CARD, cfg)
            acc.append(err)
    assert np.median(big) <= np.median(small)


def test_fit_shallow_holomorphic_floor():
    # target conj(z) is unreachable for holomorphic features at any width;
    # classical sup-distance on the unit disk is 1, the grid certifies >= 0.5
    fn = named_target("zbar")
    holo = get_activation("exp")
    for width in (100, 500, 2000):
        cfg = FitConfig(num_features=width, weight_scale=1.0, ridge=1e-8,
                        box=BOX, grid=GridSpec(17), seed=1)
        net, err = fit_shallow(fn, holo, cfg)
        assert err >= 0.5
        fine = sup_error(fn, lambda zs: eval_cvnn(net, zs, holo.fn), BOX, GridSpec(34))
        assert fine >= 0.5


def test_fit_shallow_singular_without_ridge(rng):
    # duplicated feature rows make the design rank deficient
    fn = named_target("re")
    spec = get_activation("r_affine", {"a": 1, "b": 0, "c": 0})
    cfg = FitConfig(num_features=600, weight_scale=1.0, ridge=0.0, box=BOX,
                    grid=GridSpec(5), seed=0)
    with pytest.raises(FitSingular):
        fit_shallow(fn, spec, cfg)


@pytest.mark.parametrize("field, value", [
    ("ridge", float("nan")), ("ridge", float("inf")), ("ridge", -1.0),
    ("weight_scale", float("nan")), ("weight_scale", float("inf")),
    ("weight_scale", -float("inf")),
])
def test_fit_config_refuses_a_ridge_or_scale_that_is_not_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FitConfig(**{field: value})


def test_monomial_exponents_graded_lex():
    exps = monomial_exponents(1, 2)
    assert exps[0] == ((0,), (0,))
    degrees = [sum(zd) + sum(bd) for zd, bd in exps]
    assert degrees == sorted(degrees)
    assert len(exps) == 6  # 1, z, zbar, z^2, z zbar, zbar^2
    # fit_poly counts the basis as C(degree + 2n, 2n) before listing it
    for n in (1, 2, 3):
        for degree in range(6):
            assert len(monomial_exponents(n, degree)) == math.comb(degree + 2 * n, 2 * n)


#: the monomials (z degrees, zbar degrees) of exact targets, with coefficients
EXACT_TARGETS = {
    "zzbar": {((1,), (1,)): 1},
    "re": {((1,), (0,)): 0.5, ((0,), (1,)): 0.5},
    "z1zbar2": {((1, 0), (0, 1)): 1},
}


@pytest.mark.parametrize("degree", [2, 4, 6])
@pytest.mark.parametrize("target", list(EXACT_TARGETS))
def test_fit_poly_keeps_the_monomials_of_an_exact_target(target, degree):
    """A target that is a polynomial of the basis compiles to exactly its
    monomials, whatever the degree: every other coefficient of the least
    squares solve falls below the prune tolerance.  Degree 6 at n = 2 is a
    6,561 x 210 complex solve."""
    monomials = EXACT_TARGETS[target]
    n = len(next(iter(monomials))[0])
    polys = fit_poly(named_target(target), degree, CompactBox.square(n, 1.0), GridSpec(9))
    assert len(polys) == 1
    got = {(zd, bd): coeff for coeff, zd, bd in polys[0].terms}
    assert got.keys() == monomials.keys()
    for key, coeff in got.items():
        assert abs(coeff - monomials[key]) < 1e-9


def test_fit_poly_recovers_re_cubed_exactly():
    fn = lambda zs: np.real(zs[:, 0]).astype(complex) ** 3
    polys = fit_poly(fn, 3, BOX, GridSpec(9))
    err = sup_error(fn, lambda zs: polys[0](zs), BOX, GridSpec(17))
    assert err < 1e-10
    # RE(z)^3 = (z + zbar)^3 / 8: four monomials
    assert len(polys[0].terms) == 4
    for coeff, zd, bd in polys[0].terms:
        want = {(3, 0): 1 / 8, (2, 1): 3 / 8, (1, 2): 3 / 8, (0, 3): 1 / 8}[(zd[0], bd[0])]
        assert abs(coeff - want) < 1e-10


def test_fit_poly_abs_target():
    # |z| is not a polynomial; uniform-lattice least squares at degree 6
    # lands near 0.084 on a twice-finer grid (frozen from the dense-fit
    # oracle; the corner behavior dominates)
    fn = named_target("abs")
    polys = fit_poly(fn, 6, BOX, GridSpec(9))
    err = sup_error(fn, lambda zs: polys[0](zs), BOX, GridSpec(18))
    assert err < 0.1


def test_fit_poly_l2_residual_non_increasing_in_degree():
    # nested bases: the least-squares residual on the fit grid cannot grow
    fn = named_target("abs")
    pts = sample_box(BOX, GridSpec(9))
    target = fn(pts)
    resids = []
    for degree in (0, 1, 2, 3, 4, 5, 6):
        polys = fit_poly(fn, degree, BOX, GridSpec(9))
        resids.append(float(np.linalg.norm(polys[0](pts) - target)))
    for a, b in zip(resids, resids[1:]):
        assert b <= a + 1e-9


def test_fit_poly_underdetermined_raises():
    fn = named_target("abs")
    with pytest.raises(FitSingular):
        fit_poly(fn, 8, BOX, GridSpec(3))


def test_fit_poly_refuses_a_basis_larger_than_the_grid_before_enumerating_it(monkeypatch):
    """At n = 2 and degree 40 the basis has C(44, 4) = 135,751 monomials,
    more than the 9^4 grid points; the count is refused without walking the
    41^4 exponent tuples."""
    def no_enumeration(*args):
        raise AssertionError("enumerated a basis that the grid cannot determine")

    monkeypatch.setattr(fitting, "monomial_exponents", no_enumeration)
    with pytest.raises(FitSingular, match="^135751 basis monomials but only 6561 grid points;"):
        fit_poly(named_target("abs"), 40, CompactBox.square(2, 1.0), GridSpec(9))



def test_norm0_fits_have_two_outputs():
    """The output dimension of a fit is the number of columns of its target."""
    fn = named_target("norm0")
    cfg = FitConfig(num_features=30, box=BOX, grid=GridSpec(9), seed=0)
    net, _ = fit_shallow(fn, CARD, cfg)
    assert (net.input_dim, net.output_dim) == (1, 2)
    polys = fit_poly(fn, 2, BOX, GridSpec(9))
    assert len(polys) == 2 and all(p.n == 1 for p in polys)
    assert polys[1].terms == ()


@pytest.mark.parametrize("fit", [
    lambda f: fit_shallow(f, CARD, FitConfig(num_features=10, box=BOX, grid=GridSpec(5))),
    lambda f: fit_poly(f, 1, BOX, GridSpec(5)),
])
@pytest.mark.parametrize("target, message", [
    (lambda zs: zs[1:, 0], r"expected 25 rows, got 24"),
    (lambda zs: zs[:, :, None], r"expected \(25, m\) values, got shape \(25, 1, 1\)"),
])
def test_a_target_of_the_wrong_shape_is_refused(fit, target, message):
    """Only the columns of a target are free: a wrong row count, or values
    that are not one row per point, raise DimensionMismatch."""
    with pytest.raises(DimensionMismatch, match=message):
        fit(target)


def test_fit_poly_multi_output(rng):
    fn = lambda zs: np.column_stack([zs[:, 0] ** 2, np.conj(zs[:, 0])])
    polys = fit_poly(fn, 2, BOX, GridSpec(9))
    assert len(polys) == 2
    zs = rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))
    got = np.column_stack([p(zs) for p in polys])
    assert np.max(np.abs(got - fn(zs))) < 1e-10
