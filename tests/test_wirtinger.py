import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deepnarrow.activations import (available_activations, conjugate_activation,
                                    custom_activation, get_activation, scale_activation)
from deepnarrow.core import CompactBox, GridSpec
from deepnarrow.errors import ProbeFailed
from deepnarrow.wirtinger import (POLYHARMONIC_MAX_ORDER, TAYLOR_POINTS_PER_CIRCLE,
                                  TAYLOR_RADII, Classification, TaylorReport, ToleranceProfile,
                                  classify_activation, find_active_point,
                                  find_nonzero_second_point, first_derivs,
                                  laplacian_iterate, second_derivs,
                                  second_partials_to_wirtinger,
                                  taylor_remainder_probe, wirt_first, wirt_second)

from conftest import random_points

PROF = ToleranceProfile()


def test_wirt_first_cardioid_at_one():
    card = get_activation("cardioid")
    d, dbar, _ = wirt_first(card, 1.0, PROF)
    assert abs(d - 1) < 1e-6
    assert abs(dbar) < 1e-6


def test_wirt_first_z_square():
    spec = custom_activation("zsq", lambda z: z**2)
    d, dbar, _ = wirt_first(spec, 1 + 1j, PROF)
    assert abs(d - (2 + 2j)) < 1e-8
    assert abs(dbar) < 1e-8


def test_wirt_first_zzbar():
    spec = custom_activation("zzbar", lambda z: z * np.conj(z))
    d, dbar, _ = wirt_first(spec, 2 + 1j, PROF)
    assert abs(d - (2 - 1j)) < 1e-8
    assert abs(dbar - (2 + 1j)) < 1e-8


def test_wirt_second_re_square():
    spec = custom_activation("resq", lambda z: np.real(z).astype(complex) ** 2)
    for z0 in (0.3 - 0.8j, 1.5 + 0.1j):
        d2, ddbar, dbar2, _ = wirt_second(spec, z0, PROF)
        for val in (d2, ddbar, dbar2):
            assert abs(val - 0.5) < 1e-5


def test_wirt_second_z_square():
    spec = custom_activation("zsq", lambda z: z**2)
    d2, ddbar, dbar2, _ = wirt_second(spec, -0.4 + 0.9j, PROF)
    assert abs(d2 - 2) < 1e-5
    assert abs(ddbar) < 1e-5
    assert abs(dbar2) < 1e-5


def test_wirt_second_modrelu_all_nonzero():
    mr = get_activation("modrelu", {"b": -1})
    d2, ddbar, dbar2, _ = wirt_second(mr, 2.0, PROF)
    for val in (d2, ddbar, dbar2):
        assert abs(val) > PROF.zero_tol


def test_conversion_matrix_exact_on_polynomials():
    # analytic second partials pushed through the quarter matrix reproduce the
    # analytic second Wirtinger derivatives to machine precision
    cases = [
        # z^2 = (x+iy)^2: fxx=2, fxy=2i, fyy=-2 -> (2, 0, 0)
        ((2, 2j, -2), (2, 0, 0)),
        # z zbar = x^2+y^2: fxx=2, fxy=0, fyy=2 -> (0, 1, 0)
        ((2, 0, 2), (0, 1, 0)),
        # RE(z)^2: fxx=2, fxy=0, fyy=0 -> (1/2, 1/2, 1/2)
        ((2, 0, 0), (0.5, 0.5, 0.5)),
        # zbar^2: fxx=2, fxy=-2i, fyy=-2 -> (0, 0, 2)
        ((2, -2j, -2), (0, 0, 2)),
        # RE(z)^3 at x+iy: fxx=6x, fxy=0, fyy=0 -> (6x/4, 6x/4, 6x/4)
        ((6 * 0.7, 0, 0), (1.05, 1.05, 1.05)),
    ]
    for (fxx, fxy, fyy), want in cases:
        got = second_partials_to_wirtinger(fxx, fxy, fyy)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_laplacian_zzbar():
    spec = custom_activation("zzbar", lambda z: z * np.conj(z))
    for z0 in (0j, 1 - 2j):
        est = laplacian_iterate(spec, z0, 1, PROF)
        assert abs(est.value - 4) < 1e-3
        est2 = laplacian_iterate(spec, z0, 2, PROF)
        assert abs(est2.value) < 1e-3


def test_laplacian_exp_re():
    spec = get_activation("exp_re")
    for order in (1, 2, 3):
        est = laplacian_iterate(spec, 0.0, order, PROF)
        assert abs(est.value - 1) < 2e-2
        assert abs(est.value) > PROF.zero_tol


def test_laplacian_order_bounds():
    spec = get_activation("exp_re")
    with pytest.raises(ValueError):
        laplacian_iterate(spec, 0.0, 0, PROF)
    with pytest.raises(ValueError):
        laplacian_iterate(spec, 0.0, POLYHARMONIC_MAX_ORDER + 1, PROF)


def _counting(spec, calls):
    """spec with every activation call's size appended to ``calls``."""
    def fn(z):
        calls.append(np.size(z))
        return spec.fn(z)
    return custom_activation(spec.name, fn)


def _laplacian_per_leaf(spec, z0, order):
    """The nested stencil evaluated one leaf per activation call."""
    eps = float(np.finfo(np.float64).eps)
    h = eps ** (1.0 / (2 * order + 2)) * max(1.0, abs(z0))
    top = [0.0]

    def rec(z, k):
        if k == 0:
            v = spec(np.array([z]))[0]
            top[0] = max(top[0], abs(v))
            return v
        return (rec(z + h, k - 1) + rec(z - h, k - 1) + rec(z + 1j * h, k - 1)
                + rec(z - 1j * h, k - 1) - 4 * rec(z, k - 1)) / h**2

    value = rec(complex(z0), order)
    return complex(value), float(5.0**order * eps * max(1.0, top[0]) / h ** (2 * order))


@pytest.mark.parametrize("name", ["cardioid", "modrelu", "nowhere_diff", "exp_re", "conj:cardioid"])
def test_laplacian_one_call_equals_per_leaf_stencil(name):
    spec = get_activation(name)
    for z0 in (0j, 0.5 - 0.25j, -1.5 + 2j):
        for order in range(1, POLYHARMONIC_MAX_ORDER + 1):
            calls = []
            est = laplacian_iterate(_counting(spec, calls), z0, order, PROF)
            assert calls == [5**order]
            value, noise = _laplacian_per_leaf(spec, z0, order)
            assert (est.value, est.noise_floor) == (value, noise), (z0, order)


def test_laplacian_failure_names_the_first_bad_leaf():
    spec = custom_activation("hole", lambda z: np.where(z == 0.5, np.nan, z * np.abs(z)))
    with pytest.raises(ProbeFailed, match=r"near \[\(0\.5\+0j\)\]"):
        laplacian_iterate(spec, 0.5, 2, PROF)


def test_taylor_probe_cardioid_decreasing():
    card = get_activation("cardioid")
    rep = taylor_remainder_probe(card, 1.0, 1, PROF)
    assert rep.passed
    assert all(b < a for a, b in zip(rep.ratios, rep.ratios[1:]))


def test_taylor_probe_quadratic_second_order_zero():
    spec = custom_activation("zsq", lambda z: z**2)
    rep = taylor_remainder_probe(spec, 0.0, 2, PROF)
    assert rep.passed
    assert all(r < 1e-9 for r in rep.ratios)


def test_taylor_probe_fails_on_modrelu_circle():
    mr = get_activation("modrelu", {"b": -1})
    rep = taylor_remainder_probe(mr, 1.0, 1, PROF)
    assert not rep.passed


def test_find_active_point_cardioid():
    card = get_activation("cardioid")
    z0 = find_active_point(card, PROF)
    assert z0 is not None
    d, dbar, _ = wirt_first(card, z0, PROF)
    assert abs(d) > PROF.zero_tol
    assert abs(dbar) <= PROF.zero_tol


def test_find_active_point_constant():
    spec = custom_activation("const", lambda z: np.full_like(z, 2 + 1j))
    assert find_active_point(spec, PROF) is None


def test_find_active_point_modrelu_outside_circle():
    mr = get_activation("modrelu", {"b": -1})
    prof = ToleranceProfile(probe_box=CompactBox(((1.2, 2.0, 1.2, 2.0),)))
    z0 = find_active_point(mr, prof)
    assert z0 is not None
    d, dbar, _ = wirt_first(mr, z0, prof)
    assert abs(d) > prof.zero_tol and abs(dbar) > prof.zero_tol


def test_find_nonzero_second_preference():
    rs = get_activation("re_square")
    found = find_nonzero_second_point(rs, PROF)
    assert found is not None and found[1] == "ddbar"
    zb = get_activation("z_plus_zbar_sq")
    found = find_nonzero_second_point(zb, PROF)
    assert found is not None and found[1] == "dbar2"
    aff = get_activation("r_affine", {"a": 2, "b": 1, "c": 0})
    assert find_nonzero_second_point(aff, PROF) is None


CLASSIFY_TABLE = [
    ("exp", {}, "NonUniversalHolomorphic"),
    ("antiholo_exp", {}, "NonUniversalAntiholomorphic"),
    ("r_affine", {"a": 2, "b": 1, "c": 1}, "NonUniversalRAffine"),
    ("cardioid", {}, "UniversalNonPoly_NMplus1"),
    ("modrelu", {"b": -1}, "UniversalNonPoly_2N2Mplus1"),
    ("re_square", {}, "UniversalPoly_2N2Mplus5"),
    ("abs_square", {}, "UniversalPoly_2N2Mplus5"),
    ("z_plus_zbar_sq", {}, "UniversalPoly_NMplus4"),
]


@pytest.mark.parametrize("name,params,verdict", CLASSIFY_TABLE)
def test_classifier_table(name, params, verdict):
    cls = classify_activation(get_activation(name, params), 1, 1, PROF)
    assert cls.verdict == verdict


def test_classifier_witness_present_for_universal():
    cls = classify_activation(get_activation("cardioid"), 1, 1, PROF)
    assert cls.witness_point is not None
    assert abs(np.imag(cls.witness_point)) < 1e-12 and np.real(cls.witness_point) > 0


def test_classifier_heuristic_without_flags():
    # a holomorphic function with no analytic flags: the grid heuristic fires
    spec = custom_activation("cosh", np.cosh)
    cls = classify_activation(spec, 1, 1, PROF)
    assert cls.verdict == "NonUniversalHolomorphic"
    assert "heuristic" in cls.evidence


SCALE_TABLE = CLASSIFY_TABLE + [
    ("exp_re", {}, "UniversalNonPoly_2N2Mplus1"),
    ("tanh_re", {}, "UniversalNonPoly_2N2Mplus1"),
    ("nowhere_diff", {}, "Inconclusive"),
]


def test_scale_table_covers_the_catalog():
    assert {name for name, _, _ in SCALE_TABLE} == set(available_activations())


@settings(max_examples=30)
@given(c=st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                            allow_nan=False, allow_infinity=False))
@example(c=2.0 + 0j)
@example(c=1j)
@example(c=1 - 2j)
def test_classifier_scale_invariance(c):
    """Scaling by a constant with |c| in [0.25, 4] keeps the verdict of every
    catalog activation."""
    for name, params, verdict in SCALE_TABLE:
        scaled = scale_activation(get_activation(name, params), c)
        assert classify_activation(scaled, 1, 1, PROF).verdict == verdict, name


def test_numeric_matches_analytic_within_error_estimate(rng):
    # every catalog member with closed forms, 100 random probe points total
    names = [("cardioid", {}), ("re_square", {}), ("abs_square", {}),
             ("z_plus_zbar_sq", {}), ("exp_re", {}), ("tanh_re", {}),
             ("exp", {}), ("modrelu", {"b": -1})]
    checked = 0
    for name, params in names:
        spec = get_activation(name, params)
        pts = random_points(rng, 20, 1)[:, 0]
        for z0 in pts:
            if spec.is_excluded(z0) or (name == "cardioid" and abs(z0) < 0.3):
                continue
            if name == "modrelu" and abs(abs(z0) - 1) < 0.1:
                continue
            d_a, dbar_a = spec.analytic_first(complex(z0))
            d_n, dbar_n, est = wirt_first(spec, z0, PROF)
            tol = 10 * max(est, 1e-12)
            assert abs(d_a - d_n) < tol, (name, z0)
            assert abs(dbar_a - dbar_n) < tol, (name, z0)
            checked += 1
    assert checked >= 100


def test_conjugation_symmetry(rng):
    # d(conj o f)(z0) == conj(dbar f(z0)) and vice versa
    for name in ("cardioid", "exp_re", "z_plus_zbar_sq"):
        spec = get_activation(name)
        conj_spec = custom_activation("c", lambda z, s=spec: np.conj(s.fn(z)))
        for z0 in random_points(rng, 5, 1)[:, 0]:
            if spec.is_excluded(z0) or abs(z0) < 0.3:
                continue
            d, dbar, est = wirt_first(spec, z0, PROF)
            dc, dbarc, _ = wirt_first(conj_spec, z0, PROF)
            tol = 10 * max(est, 1e-12) + 1e-9
            assert abs(dc - np.conj(dbar)) < tol
            assert abs(dbarc - np.conj(d)) < tol


def test_classification_requires_witness_for_universal():
    with pytest.raises(ValueError):
        Classification("UniversalPoly_NMplus4", None, "x")
    with pytest.raises(ValueError):
        Classification("NotAVerdict", None, "x")


def test_classification_json_shape():
    cls = classify_activation(get_activation("cardioid"), 1, 1, PROF)
    doc = cls.to_json_dict(PROF)
    assert doc["verdict"] == "UniversalNonPoly_NMplus1"
    assert isinstance(doc["witness"], list) and len(doc["witness"]) == 2
    assert doc["probes"] and "tolerances" in doc


def _report_bits(rep):
    if isinstance(rep, ProbeFailed):
        return str(rep)
    return (repr(rep.z0), rep.order, rep.radii, tuple(r.hex() for r in rep.ratios),
            rep.floor.hex(), rep.passed)


def _alone(spec, z0, order):
    try:
        return _report_bits(taylor_remainder_probe(spec, z0, order, PROF))
    except ProbeFailed as exc:
        return str(exc)


def _taylor_per_radius(spec, z0, order):
    """The remainder ratios of one centre, one activation call per radius."""
    d, dbar, _ = first_derivs(spec, z0, PROF)
    if order == 2:
        d2, ddbar, dbar2, _ = second_derivs(spec, z0, PROF)
    f0 = spec(np.array([z0]))[0]
    n = TAYLOR_POINTS_PER_CIRCLE
    angles = np.exp(2j * np.pi * np.arange(n) / n)
    ratios, scale = [], 1.0
    for r in TAYLOR_RADII:
        w = r * angles
        fv = spec(z0 + w)
        scale = max(scale, float(np.max(np.abs(fv))))
        theta = fv - f0 - d * w - dbar * np.conj(w)
        if order == 2:
            theta = theta - 0.5 * d2 * w**2 - ddbar * w * np.conj(w) - 0.5 * dbar2 * np.conj(w) ** 2
        ratios.append(float(np.max(np.abs(theta)) / r**order))
    return tuple(r.hex() for r in ratios), (1e-8 * scale).hex()


TAYLOR_SPECS = ([get_activation(name) for name in available_activations()]
                + [get_activation("conj:cardioid"), get_activation("modrelu", {"b": -0.5})])


@settings(max_examples=80)
@given(spec=st.sampled_from(TAYLOR_SPECS), order=st.sampled_from((1, 2)),
       centres=st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=6))
def test_taylor_batch_equals_per_centre_calls(spec, order, centres):
    """An array of centres gives, bit for bit, the reports of lone calls, with
    or without the caller's first derivatives, and a lone call the ratios of
    a per-radius evaluation."""
    alone = [_alone(spec, z0, order) for z0 in centres]
    assert [a[3:5] for a in alone] == [_taylor_per_radius(spec, z0, order) for z0 in centres]
    batch = taylor_remainder_probe(spec, np.array(centres, dtype=np.complex128), order, PROF)
    assert [_report_bits(r) for r in batch] == alone
    firsts = [first_derivs(spec, z0, PROF) for z0 in centres]
    given_d = taylor_remainder_probe(spec, np.array(centres, dtype=np.complex128), order, PROF,
                                     d=np.array([f[0] for f in firsts]),
                                     dbar=np.array([f[1] for f in firsts]))
    assert [_report_bits(r) for r in given_d] == alone


def test_taylor_batch_keeps_failures_per_centre():
    """A centre whose circle holds a non-finite value gets the ProbeFailed a
    lone call raises, returned in its slot; the other centres get reports,
    and the activation is called once."""
    bad = 0.5 + 1e-3 * np.exp(0j)
    spec = custom_activation("pole", lambda z: np.where(z == bad, np.inf, z * np.abs(z)))
    centres = np.array([1j, 0.5, 1.0])
    firsts = [first_derivs(spec, z0, PROF) for z0 in centres]
    calls = []
    out = taylor_remainder_probe(_counting(spec, calls), centres, 1, PROF,
                                 d=np.array([f[0] for f in firsts]),
                                 dbar=np.array([f[1] for f in firsts]))
    assert calls == [3 * (1 + len(TAYLOR_RADII) * TAYLOR_POINTS_PER_CIRCLE)]
    assert isinstance(out[0], TaylorReport) and isinstance(out[2], TaylorReport)
    assert isinstance(out[1], ProbeFailed)
    with pytest.raises(ProbeFailed) as lone:
        taylor_remainder_probe(spec, 0.5, 1, PROF)
    assert str(lone.value) == str(out[1])
    with pytest.raises(ValueError):
        taylor_remainder_probe(spec, np.zeros((2, 2)), 1, PROF)


def _scalar_taylor_rule(rts, floor):
    """The per-centre remainder verdict, one Python comparison at a time."""
    return all(rt <= floor for rt in rts) or all(
        nxt <= max(0.9 * cur, floor) for cur, nxt in zip(rts, rts[1:]))


_FLOOR = 1e-8
_EDGE_ROWS = [
    [_FLOOR] * 4,                                        # every ratio equals the floor
    [_FLOOR, 2 * _FLOOR, 3 * _FLOOR, 4 * _FLOOR],        # rising from the floor
    [1e-10, 5e-9, 2e-9, 9e-9],                           # all below the floor, not falling
    [1.0, 0.9, 0.9 * 0.9, 0.9 * 0.9 * 0.9],              # next = exactly 0.9 x current
    [1.0, 0.9, np.nextafter(0.9 * 0.9, 1.0), 0.5],       # one step just above 0.9 x
    [1.0, 0.5, 0.6, 0.1],                                # one rising step
    [1.0, 0.5, 0.5 * 0.9 + 1e-3, _FLOOR],                # a slow step, then the floor
    [0.1, 5e-9, 8e-9, 9e-9],                             # falls to the floor, then rises below it
    [0.1, 5e-9, 8e-9, 2e-8],                             # ... and rises above it
    [np.nan, 0.5, 0.1, 0.01],                            # a NaN ratio, first
    [1.0, 0.5, np.nan, 0.01],                            # ... inside
    [1e-9, 1e-9, 1e-9, np.nan],                          # ... after ratios below the floor
    [np.inf, 0.5, 0.1, 0.01],                            # an infinite ratio
    [0.0, 0.0, 0.0, 0.0],
]


def test_batched_taylor_verdict_is_the_scalar_rule():
    from deepnarrow.wirtinger import _taylor_passes

    ratios = np.array(_EDGE_ROWS)
    # one floor for all rows, then a floor per row
    for floors in (np.full(len(ratios), _FLOOR), np.full(len(ratios), 0.5),
                   np.resize([_FLOOR, 0.5, 2.0], len(ratios))):
        want = [_scalar_taylor_rule(rts, floor)
                for rts, floor in zip(ratios.tolist(), floors.tolist())]
        assert _taylor_passes(ratios, floors).tolist() == want
        for row, floor, ok in zip(ratios, floors, want):
            assert _taylor_passes(row[None], floor[None]).tolist() == [ok]
    assert _taylor_passes(ratios, np.full(len(_EDGE_ROWS), _FLOOR)).tolist() == [
        True, False, True, True, False, False, False, True, False,
        False, False, False, True, True]


# ---------------------------------------------------------------------------
# Verdict properties
# ---------------------------------------------------------------------------

_COEFF = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(terms=st.lists(st.tuples(st.floats(-3.0, 3.0), _COEFF, _COEFF, _COEFF),
                      min_size=1, max_size=3))
def test_real_combinations_of_r_affine_classify_r_affine(terms):
    """sum_k w_k (a_k z + b_k conj(z) + c_k) with real w_k is R-affine; given
    without flags, the grid heuristic must say so unless the combination is
    (close to) holomorphic or antiholomorphic."""
    a = sum(w * ak for w, ak, _, _ in terms)
    b = sum(w * bk for w, _, bk, _ in terms)
    assume(abs(a) > 0.1 and abs(b) > 0.1)
    specs = [(w, get_activation("r_affine", {"a": ak, "b": bk, "c": ck}))
             for w, ak, bk, ck in terms]
    combo = custom_activation("r_affine_sum",
                              lambda z: sum(w * s.fn(z) for w, s in specs))
    cls = classify_activation(combo, 1, 1, PROF)
    assert cls.verdict == "NonUniversalRAffine", cls.evidence


#: Catalog verdicts, modrelu b=-5 among them: its default probe box lies in
#: the dead zone, so it is classified on a grown one.
VERDICT_CASES = ([(name, {}) for name in available_activations()]
                 + [("modrelu", {"b": -0.5}), ("modrelu", {"b": -1}), ("modrelu", {"b": -5}),
                    ("r_affine", {"a": 2, "b": 1, "c": 1})])
_CONJ_VERDICT = {"NonUniversalHolomorphic": "NonUniversalAntiholomorphic",
                 "NonUniversalAntiholomorphic": "NonUniversalHolomorphic"}


@settings(max_examples=60)
@given(case=st.sampled_from(VERDICT_CASES), numeric=st.booleans())
def test_conjugation_swaps_holomorphic_and_antiholomorphic_verdicts(case, numeric):
    """conj o f is antiholomorphic exactly when f is holomorphic and keeps
    every other verdict, through the conj: prefix or, with ``numeric``, as
    flag-free functions classified on the probe grid alone."""
    name, params = case
    spec = get_activation(name, params)
    if numeric:
        plain = custom_activation(name, spec.fn)
        conj = custom_activation(f"conj:{name}", lambda z: np.conj(spec.fn(z)))
    else:
        plain, conj = spec, get_activation(f"conj:{name}", params)
    verdict = classify_activation(plain, 1, 1, PROF).verdict
    assert classify_activation(conj, 1, 1, PROF).verdict == _CONJ_VERDICT.get(verdict, verdict)


def _float_bits(obj):
    """The document with every float replaced by its hex form."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _float_bits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_float_bits(v) for v in obj]
    return obj


@settings(max_examples=30)
@given(case=st.sampled_from(VERDICT_CASES), conj=st.booleans(), n=st.integers(1, 2))
def test_classify_json_round_trip_is_bit_exact(case, conj, n):
    """The document `classify` writes parses back to the classification's own
    document, every float bit for bit."""
    import contextlib
    import io
    import json

    from deepnarrow.cli import main

    name, params = case
    name = f"conj:{name}" if conj else name
    spec = get_activation(name, params)
    want = dict(classify_activation(spec, n, 1, PROF).to_json_dict(PROF), activation=spec.name)
    argv = ["classify", "--activation", name, "--n", str(n), "--no-timestamp", "--out", "-"]
    for k, v in params.items():
        argv += ["--param", f"{k}={v}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert _float_bits(json.loads(out.getvalue())) == _float_bits(want)


# ---------------------------------------------------------------------------
# Second derivatives in one activation call; the nonzero rule on arrays
# ---------------------------------------------------------------------------


def _wirt_second_three_calls(spec, z0, prof):
    """The second-derivative stencil with f(z0) and each step's eight points
    evaluated in calls of their own."""
    eps = float(np.finfo(np.float64).eps)

    def evaluate(pts):
        out = spec(pts)
        if not np.all(np.isfinite(out)):
            raise ProbeFailed(f"activation evaluation failed near {pts!r}")
        return out

    z0 = complex(z0)
    h0 = np.sqrt(prof.fd_step) * max(1.0, abs(z0))
    hs = (h0, h0 / 2.0)
    f0 = evaluate([z0])[0]
    xx_s, yy_s, xy_s = [], [], []
    fscale = max(1.0, abs(f0))
    for h in hs:
        v = evaluate([z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h,
                      z0 + h + 1j * h, z0 + h - 1j * h, z0 - h + 1j * h, z0 - h - 1j * h])
        fscale = max(fscale, float(np.max(np.abs(v))))
        xx_s.append((v[0] - 2 * f0 + v[1]) / h**2)
        yy_s.append((v[2] - 2 * f0 + v[3]) / h**2)
        xy_s.append((v[4] - v[5] - v[6] + v[7]) / (4 * h**2))
    parts, errs = [], []
    for coarse, fine in (xx_s, yy_s, xy_s):
        best = (4.0 * fine - coarse) / 3.0
        parts.append(best)
        errs.append(abs(best - fine))
    fxx, fyy, fxy = parts
    est = max(sum(errs) / 3, 8 * eps * fscale / hs[-1] ** 2)
    return (*second_partials_to_wirtinger(fxx, fxy, fyy), float(est))


def _bits(values):
    return tuple(complex(v).real.hex() + complex(v).imag.hex() for v in values)


@pytest.mark.parametrize("spec", TAYLOR_SPECS, ids=lambda s: s.name)
def test_wirt_second_one_call_equals_three_call_stencil(spec):
    for z0 in (0j, 1.0, 0.5 - 0.25j, -1.5 + 2j, 1e-7j, -3 - 3j):
        calls = []
        got = wirt_second(_counting(spec, calls), z0, PROF)
        assert calls == [17]
        assert _bits(got) == _bits(_wirt_second_three_calls(spec, z0, PROF)), z0


def _holed_at(*holes):
    """z|z| with a NaN at each of ``holes``."""
    return custom_activation("hole", lambda z: np.where(np.isin(z, holes), np.nan, z * np.abs(z)))


_H = float(np.sqrt(PROF.fd_step))     # the step of wirt_second at |z0| <= 1


@pytest.mark.parametrize("holes, group", [
    ((0.5,), r"\[\(0\.5\+0j\)\]"),                                      # f(z0)
    ((0.5 - 1j * _H,), r"\[\(0\.50316"),                                  # a point of step h
    ((0.5 + _H / 2 - 1j * _H / 2,), r"\[\(0\.50158"),                      # a point of step h/2
    ((0.5 + _H / 2, 0.5 - 1j * _H), r"\[\(0\.50316"),                      # both steps
    ((0.5 + _H / 2, 0.5), r"\[\(0\.5\+0j\)\]"),                           # f(z0) and step h/2
])
def test_wirt_second_failure_names_the_first_bad_group(holes, group):
    """The one activation call meets NaNs, and the message lists the first
    group holding one, as a stencil with a call per group stopped at: [z0],
    then step h's eight points, then step h/2's."""
    spec = _holed_at(*holes)
    with pytest.raises(ProbeFailed, match=r"near " + group) as one:
        wirt_second(spec, 0.5, PROF)
    with pytest.raises(ProbeFailed) as three:
        _wirt_second_three_calls(spec, 0.5, PROF)
    assert str(one.value) == str(three.value)


_TINY = 5e-324
_NONZERO_EDGES = [
    # (v, est): |v| at, just above and just below max(zero_tol, 3 est)
    (1e-6, 0.0), (np.nextafter(1e-6, 1.0), 0.0), (np.nextafter(1e-6, 0.0), 0.0),
    (3 * 0.5, 0.5), (np.nextafter(1.5, 2.0), 0.5), (3e-6 + 4e-6j, 1e-7), (3e-6 + 4e-6j, 5e-6 / 3),
    (1 + 1j, 0.0), (0j, 0.0), (-0.0 - 0.0j, 0.0),
    (1 + 1j, np.nan), (1e-7, np.nan), (1 + 1j, np.inf), (1e300 + 1e300j, np.inf),
    (complex(np.nan, 0), 0.0), (complex(0, np.nan), np.nan), (complex(np.inf, 0), 1e300),
    (complex(_TINY, _TINY), 0.0), (complex(_TINY, 0), 0.0), (_TINY, 0.0),
    (1e-6j, 0.0), (complex(-6e-7, 8e-7), 0.0), (complex(6e-7, 8e-7), 1e-300),
    # np.abs of a complex array is not hypot of the parts: 3 est is abs(v),
    # one ulp below np.abs(v), then np.abs(v), one ulp below abs(v)
    (-0.537 + 0.581j, 0.26371912668173647), (0.214 + 0.217j, 0.10159013512913324),
]


@pytest.mark.parametrize("zero_tol", [1e-6, 1e-300, 1.0])
def test_array_nonzero_rule_is_the_scalar_rule(zero_tol):
    """|v| > max(zero_tol, 3 est) one value at a time with Python's abs and
    max (a NaN 3 est leaves zero_tol) gives what the array rule gives for the
    whole table, and for each value alone."""
    prof = ToleranceProfile(zero_tol=zero_tol)
    want = [abs(complex(v)) > max(zero_tol, 3 * est) for v, est in _NONZERO_EDGES]
    v = np.array([complex(v) for v, _ in _NONZERO_EDGES])
    est = np.array([est for _, est in _NONZERO_EDGES])
    assert prof.nonzero(v, est).tolist() == want
    assert [bool(prof.nonzero(v, est)) for v, est in _NONZERO_EDGES] == want
    assert prof.nonzero(v[:, None], np.stack([est, est], axis=1)).tolist() == [[w, w] for w in want]
    assert sum(want) not in (0, len(want))
