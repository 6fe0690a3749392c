import dataclasses

import numpy as np
import pytest

from deepnarrow.activations import (available_activations, conjugate_activation,
                                    custom_activation, get_activation, scale_activation)
from deepnarrow.core import sample_box
from deepnarrow.errors import InvalidActivationParams, UnknownActivation
from deepnarrow.wirtinger import ToleranceProfile, wirt_first

from conftest import random_points, taylor_reports


def test_cardioid_values():
    card = get_activation("cardioid")
    assert card(1.0) == 1.0
    # RE(i) = 0, so the factor is 1/2
    assert card(1j) == 0.5j
    assert card(0.0) == 0.0


def test_modrelu_values():
    mr = get_activation("modrelu", {"b": -1})
    assert mr(2.0) == pytest.approx(1.0)
    assert mr(0.5) == 0.0
    assert mr(1.0) == 0.0  # continuous limit on the circle


def test_call_gives_complex128():
    spec = custom_activation("re", np.real)
    for z in (1 + 2j, [1 + 2j, 3], np.array([[0.5, -1j]])):
        out = spec(z)
        assert out.dtype == np.complex128 and out.shape == np.shape(z)
        assert np.array_equal(out, np.real(z))


def test_modrelu_requires_negative_b():
    with pytest.raises(InvalidActivationParams):
        get_activation("modrelu", {"b": 0.5})


@pytest.mark.parametrize("ktrunc", [2.5, 365])
def test_nowhere_diff_refuses_ktrunc_outside_the_integers_1_to_364(ktrunc):
    """2.5 was truncated to 2; from 365 on 7^k pi overflows and every value
    is NaN.  364 is the largest order with finite values."""
    with pytest.raises(InvalidActivationParams, match=r"ktrunc must be an integer in \[1, 364\]"):
        get_activation("nowhere_diff", {"ktrunc": ktrunc})
    assert np.isfinite(get_activation("nowhere_diff", {"ktrunc": 364})(0.5 + 0.25j))


def test_exp_re_value():
    spec = get_activation("exp_re")
    assert spec(1 + 5j) == pytest.approx(np.e)


def test_r_affine_value():
    spec = get_activation("r_affine", {"a": 2, "b": 1, "c": 1})
    assert spec(1j) == pytest.approx(1 + 1j)  # 2i - i + 1


def test_unknown_name():
    with pytest.raises(UnknownActivation):
        get_activation("swish")


def test_available_listing():
    names = available_activations()
    assert "cardioid" in names and "modrelu" in names and "nowhere_diff" in names


@pytest.mark.parametrize("name,params", [
    ("modrelu", {"b": -1}),
    ("cardioid", {}),
    ("exp", {}),
    ("antiholo_exp", {}),
    ("r_affine", {"a": 2, "b": 1, "c": 1}),
    ("re_square", {}),
    ("z_plus_zbar_sq", {}),
    ("abs_square", {}),
    ("exp_re", {}),
    ("tanh_re", {}),
    ("nowhere_diff", {"ktrunc": 8}),
])
def test_continuity_probe(name, params, rng):
    # |f(z') - f(z)| -> 0 along random sequences z' -> z, including across
    # the modrelu circle
    spec = get_activation(name, params)
    anchors = random_points(rng, 10, 1)[:, 0]
    if name == "modrelu":
        anchors = np.concatenate([anchors, [1.0 + 0j, 1j]])  # points on |z| = -b
    for z in anchors:
        deltas = random_points(rng, 12, 1)[:, 0]
        deltas /= np.abs(deltas)
        gaps = []
        for k in range(1, 9):
            step = 10.0 ** (-k)
            vals = spec.fn(z + step * deltas)
            gaps.append(np.max(np.abs(vals - spec.fn(np.array([z]))[0])))
        # continuity, not Lipschitz: the truncated rough member still has a
        # finite (large) modulus, so the bound is relative to the first gap
        assert gaps[-1] <= max(1e-6, 1e-2 * gaps[0])
        assert gaps[-1] <= gaps[0] + 1e-12


def test_cardioid_analytic_first_matches_numeric(rng):
    card = get_activation("cardioid")
    prof = ToleranceProfile()
    pts = random_points(rng, 25, 1)[:, 0]
    pts = pts[np.abs(pts) > 0.3]
    for z0 in pts:
        d_a, dbar_a = card.analytic_first(complex(z0))
        d_n, dbar_n, _ = wirt_first(card, z0, prof)
        assert abs(d_a - d_n) < 1e-5
        assert abs(dbar_a - dbar_n) < 1e-5


def test_nowhere_diff_fails_taylor_probe(rng):
    # documented heuristic at finite truncation: probe radii sit far above the
    # truncation scale b^-ktrunc
    spec = get_activation("nowhere_diff", {"ktrunc": 20})
    pts = random_points(rng, 20, 1)[:, 0]
    failures = sum(not rep.passed for rep in taylor_reports(spec, pts))
    assert failures == 20


def test_conjugate_combinator_swaps_flags_and_derivatives():
    card = get_activation("cardioid")
    cc = conjugate_activation(card)
    assert cc.name == "conj:cardioid"
    z = 1.3 + 0.4j
    assert cc(z) == np.conj(card(z))
    d, dbar = card.analytic_first(z)
    dc, dbarc = cc.analytic_first(z)
    assert dc == np.conj(dbar) and dbarc == np.conj(d)
    holo = get_activation("exp")
    assert "antiholomorphic" in conjugate_activation(holo).class_flags


def test_conj_prefix_resolves_through_catalog():
    cc = get_activation("conj:modrelu", {"b": -1})
    assert cc(2.0) == pytest.approx(1.0)
    assert cc.poly_flag is not None and not cc.poly_flag.is_polyharmonic


def test_scale_combinator():
    rs = get_activation("re_square")
    sc = scale_activation(rs, 2 - 1j)
    z = 0.7 + 0.2j
    assert sc(z) == pytest.approx((2 - 1j) * rs(z))
    assert sc.poly_flag == rs.poly_flag
    d, dbar = rs.analytic_first(z)
    ds, dbars = sc.analytic_first(z)
    assert ds == pytest.approx((2 - 1j) * d)
    with pytest.raises(InvalidActivationParams):
        scale_activation(rs, 0)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1, float("nan")),
                               complex(-float("inf"), 1)], ids=repr)
def test_scale_refuses_a_constant_that_is_not_finite(c):
    """A non-finite constant is refused when the spec is made, as
    get_activation refuses a non-finite parameter, not met later as NaN
    probes or a failed first probe."""
    with pytest.raises(InvalidActivationParams) as info:
        scale_activation(get_activation("cardioid"), c)
    assert info.value.args == (f"scale constant {complex(c)!r} is not finite",)


def _hex_bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in np.ravel(values)]


_SCALE_C = 2 - 1j

#: (name prefix, fn, first, second) of each variant as written out by hand:
#: conj o f swaps and conjugates the Wirtinger data, c * f scales it
_VARIANT_REFERENCES = [
    ("conj:", lambda f, z: np.conj(f(z)),
     lambda d, dbar: (np.conj(dbar), np.conj(d)),
     lambda d2, ddbar, dbar2: (np.conj(dbar2), np.conj(ddbar), np.conj(d2))),
    (f"scale({_SCALE_C!r}):", lambda f, z: _SCALE_C * f(z),
     lambda d, dbar: (_SCALE_C * d, _SCALE_C * dbar),
     lambda d2, ddbar, dbar2: (_SCALE_C * d2, _SCALE_C * ddbar, _SCALE_C * dbar2)),
]


@pytest.mark.parametrize("name", available_activations())
@pytest.mark.parametrize("prefix, fn, first, second", _VARIANT_REFERENCES,
                         ids=["conj", "scale"])
def test_variants_match_their_formulas_bit_for_bit(name, prefix, fn, first, second):
    """conj and scale variants of every catalog activation give, on the
    probe grid, the values and closed-form derivatives of the formulas
    written out by hand, to the last bit, and keep the base's params,
    polyharmonicity flag and exclusion."""
    spec = get_activation(name)
    variant = (conjugate_activation(spec) if prefix == "conj:"
               else scale_activation(spec, _SCALE_C))
    assert variant.name == prefix + name
    assert (variant.params, variant.poly_flag, variant.exclusion) == (
        spec.params, spec.poly_flag, spec.exclusion)
    prof = ToleranceProfile()
    zs = sample_box(prof.probe_box, prof.probe_grid)[:, 0]
    assert _hex_bits(variant(zs)) == _hex_bits(fn(spec.fn, zs))
    for closed, ref, base in ((variant.analytic_first, first, spec.analytic_first),
                              (variant.analytic_second, second, spec.analytic_second)):
        assert (closed is None) == (base is None)
        if base is not None:
            for z0 in zs.tolist():
                assert _hex_bits(closed(z0)) == _hex_bits(ref(*base(z0))), z0


@pytest.mark.parametrize("name, flags", [
    ("exp", {"antiholomorphic"}), ("antiholo_exp", {"holomorphic"}),
    ("r_affine", {"r_affine", "antiholomorphic"}), ("cardioid", set()),
])
def test_conjugate_maps_the_class_flags(name, flags):
    spec = get_activation(name)
    assert conjugate_activation(spec).class_flags == flags
    assert scale_activation(spec, _SCALE_C).class_flags == spec.class_flags


# Reference forms of the cardioid and modrelu evaluators: z times the real
# factor s/|z| into a zero buffer wherever the scaling is defined.  cardioid
# divides s by |z|; modrelu multiplies s by 1/|z|.
def _divide_form(z, factor, mask):
    """z * factor where mask holds, 0 elsewhere (the factor need not be
    finite outside the mask)."""
    out = np.zeros_like(z)
    np.multiply(z, factor, out=out, where=mask)
    return out


def _divide_cardioid(z):
    r = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = 0.5 * (r + np.real(z)) / r
    return _divide_form(z, factor, r > 0)


def _divide_modrelu(b):
    def fn(z):
        r = np.abs(z)
        with np.errstate(divide="ignore", over="ignore"):
            factor = (r + b) * (1.0 / r)
        # at a subnormal |z| the reciprocal overflows: 0 there
        return _divide_form(z, factor, (r + b > 0) & (r >= np.finfo(np.float64).tiny))
    return fn


def _evaluator_edge_points():
    """0 and -0 with every sign of the imaginary part, and many moduli (subnormal,
    near the modrelu dead-zone boundaries |z| = 0.5, 1, 5, huge) along the real
    and imaginary axes and off them."""
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    moduli = [5e-324, 1e-310, 2.2e-308, 1e-300, 1e-8, 0.3, 1e154, 1e200, 1e300, 1.7e308]
    for edge in (0.5, 1.0, 5.0):
        moduli += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2 * edge)]
    units = [1, -1, 1j, -1j, np.exp(0.3j), np.exp(2.5j), np.exp(-1.2j), (1 + 1j) / np.sqrt(2)]
    pts = [m * u for m in moduli for u in units]
    # the same moduli placed exactly on the axes and diagonals, no rounding
    pts += [complex(s * m, t * m) for m in moduli for s in (1, -1, 0) for t in (1, -1, 0)]
    return np.array(zeros + pts, dtype=np.complex128)


@pytest.mark.parametrize("name, params, reference", [
    ("cardioid", {}, _divide_cardioid),
    ("modrelu", {"b": -1.0}, _divide_modrelu(-1.0)),
    ("modrelu", {"b": -0.5}, _divide_modrelu(-0.5)),
    ("modrelu", {"b": -5.0}, _divide_modrelu(-5.0)),
])
def test_lean_evaluators_match_divide_form(name, params, reference):
    spec = get_activation(name, params)
    c = 0.5 - 2j
    cases = [
        (spec.fn, reference),
        (get_activation(f"conj:{name}", params).fn, lambda z: np.conj(reference(z))),
        (scale_activation(spec, c).fn, lambda z: c * reference(z)),
    ]
    zs = _evaluator_edge_points()
    with np.errstate(over="ignore", invalid="ignore"):
        for fn, ref in cases:
            assert np.array_equal(fn(zs), ref(zs), equal_nan=True)
            assert np.array_equal(fn(zs[None, :]), ref(zs[None, :]), equal_nan=True)
            for z0 in zs:
                got = fn(np.asarray(z0))
                assert np.ndim(got) == 0
                assert np.array_equal(got, ref(np.asarray(z0)), equal_nan=True)


def _masked_reciprocal_cardioid(z):
    """cardioid as z times the quotient s/|z|, taken where |z| > 0 and left
    0 in a zero buffer elsewhere."""
    r = np.abs(z)
    s = 0.5 * (r + np.real(z))
    factor = np.zeros(r.shape)
    np.divide(s, r, out=factor, where=r > 0)
    return z * factor


def _cardioid_kernel_points():
    """Signed zeros, subnormal moduli, the least normal modulus and its
    neighbours, random points and moduli up to 1e300, on and off the axes."""
    tiny = np.finfo(np.float64).tiny
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny,
             -tiny, np.nextafter(tiny, 1.0), 1e-200, 0.7, -3.0, 1e150, 1e300, -1e300]
    pts = [complex(a, b) for a in parts for b in parts]
    moduli = [np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0), 2 * tiny]
    pts += [r * np.exp(1j * t) for r in moduli for t in np.linspace(-3.1, 3.1, 9)]
    rng = np.random.default_rng(31)
    pts += list(random_points(rng, 200, 1, 2.0)[:, 0])
    pts += list(10.0 ** rng.uniform(-320, 300, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)))
    return np.array(pts, dtype=np.complex128)


def test_cardioid_equals_masked_reciprocal_form_bit_for_bit():
    """The catalog cardioid raises |z| to the least subnormal float instead of
    masking its quotient: the same bits everywhere, signed zeros and
    subnormal moduli included, as an array and one point at a time."""
    bits = lambda v: np.asarray(v, dtype=np.complex128).view(np.uint64)
    fn = get_activation("cardioid").fn
    zs = _cardioid_kernel_points()
    with np.errstate(over="ignore", invalid="ignore"):
        want = bits(_masked_reciprocal_cardioid(zs))
        assert np.array_equal(bits(fn(zs)), want)
        assert np.array_equal(bits(fn(zs[:600].reshape(20, 30))).ravel(), want[:1200])
        for z0, w in zip(zs, want.reshape(-1, 2)):
            got = fn(np.asarray(z0))
            assert np.ndim(got) == 0 and np.array_equal(bits(np.reshape(got, 1)), w)


def test_cardioid_raises_no_floating_point_error_on_finite_values():
    """No divide by zero at 0, no overflowing reciprocal at a subnormal |z|,
    no overflow at a huge |z| and no invalid operation, for any |z| up to
    1e300: cardioid and modrelu scale z by a real factor in [0, 1], so
    |f(z)| <= |z| up to rounding."""
    zs = _cardioid_kernel_points()
    zs = zs[np.abs(zs) <= 1e300]
    assert np.abs(zs).max() > 1e299
    grow = 1 + 4 * np.finfo(np.float64).eps
    for name, params in (("cardioid", {}), ("modrelu", {"b": -1.0}), ("modrelu", {"b": -0.5})):
        fn = get_activation(name, params).fn
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = fn(zs)
            for z0 in zs[::7]:
                assert np.abs(fn(np.asarray(z0))) <= np.abs(z0) * grow
        assert np.isfinite(out).all(), (name, params)
        assert (np.abs(out) <= np.abs(zs) * grow).all(), (name, params)


@pytest.mark.parametrize("name, params", [("cardioid", {}), ("modrelu", {"b": -1e-320})])
def test_subnormal_moduli_give_zero(name, params):
    """At a subnormal |z| cardioid gives its value (s/|z| stays in [0, 1]),
    and modrelu, whose 1/|z| would overflow there, gives 0, within |z| of
    the true value; no overflow or invalid operation either way.
    cardioid's first-order Taylor probe then succeeds at such a centre."""
    spec = get_activation(name, params)
    xs = np.array([5e-324, 2.2250738585e-313, 3e-320, 1e-310, 5e-309])
    zs = xs[:, None] * np.exp(1j * np.linspace(-3.0, 3.0, 7))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = spec(zs)
    if name == "cardioid":
        # cardioid is positively homogeneous: its value at z is 2^-600 times
        # its value at 2^600 z, a normal point; rounding to the subnormal
        # grid leaves a few units of 5e-324 apart
        w = zs * 2.0**600
        want = 0.5 * w * (1 + np.real(w) / np.abs(w)) * 2.0**-600
        assert np.abs(got - want).max() <= 4 * 5e-324
        assert np.count_nonzero(got) > zs.size // 2
        report, = taylor_reports(spec, [complex(xs[1])])
        assert all(np.isfinite(report.ratios))
    else:
        assert np.array_equal(got, np.zeros(zs.shape))


@pytest.mark.parametrize("name, params", [("cardioid", {}), ("modrelu", {"b": -1.0})])
def test_lean_evaluators_propagate_nan(name, params):
    # the divide form returned 0 for a NaN input (NaN fails the mask); the
    # lean form returns NaN, which eval_cvnn reports as an EvaluationFailure
    fn = get_activation(name, params).fn
    with np.errstate(invalid="ignore"):
        out = fn(np.array([np.nan, complex(np.nan, 1.0), 2.0]))
    assert np.isnan(out[:2]).all() and np.isfinite(out[2])


def _elementwise_specs():
    specs = [get_activation(name) for name in available_activations()]
    specs += [get_activation("modrelu", {"b": -0.5}),
              get_activation("nowhere_diff", {"ktrunc": 5}),
              get_activation("conj:cardioid"), get_activation("conj:nowhere_diff"),
              scale_activation(get_activation("cardioid"), 0.5 + 0.5j),
              scale_activation(get_activation("nowhere_diff"), -2j),
              custom_activation("z_abs_z", lambda z: z * np.abs(z)),
              custom_activation("sin_zbar", lambda z: np.sin(np.conj(z)) * np.exp(-np.real(z)))]
    return specs


@pytest.mark.parametrize("spec", _elementwise_specs(), ids=lambda s: s.name)
def test_value_does_not_depend_on_the_batch(spec):
    """An activation's value at a point is the same alone, inside a longer
    1-D call and inside a 2-D block: row blocks and batched probes rely on it."""
    rng = np.random.default_rng(7)
    pts = np.concatenate([[0, 1, -1, 1j, -1j, 0.3 + 0.2j, 1.5 - 0.5j, 1e-300, 40j],
                          random_points(rng, 55, 1, 2.0)[:, 0]])
    bits = lambda v: np.asarray(v, dtype=np.complex128).view(np.uint64).ravel()
    batch = bits(spec(pts))
    alone = np.concatenate([bits(spec(pts[i : i + 1])) for i in range(len(pts))])
    block = bits(spec(pts.reshape(8, 8)))
    assert np.array_equal(alone, batch)
    assert np.array_equal(block, batch)


@pytest.mark.parametrize("spec", _elementwise_specs(), ids=lambda s: s.name)
def test_value_does_not_depend_on_the_call_size(spec):
    """One call on 40,000 points gives the bits of calls on 2,000.  From
    16,384 complex values on, numpy reuses a temporary operand in place,
    which turns a * tmp into tmp * a, and a complex product in the other
    order can differ in the last bit."""
    rng = np.random.default_rng(8)
    pts = random_points(rng, 40_000, 1, 2.0)[:, 0]
    bits = lambda v: np.asarray(v, dtype=np.complex128).view(np.uint64)
    parts = np.concatenate([bits(spec(pts[i : i + 2000])) for i in range(0, len(pts), 2000)])
    assert np.array_equal(bits(spec(pts)), parts)


# ---------------------------------------------------------------------------
# Commutation with conj is declared where a spec is built; the values agree
# ---------------------------------------------------------------------------


def _commutation_points():
    """The probe grid and 2,000 seeded random points."""
    grid = sample_box(ToleranceProfile().probe_box, ToleranceProfile().probe_grid)[:, 0]
    return np.concatenate([grid, random_points(np.random.default_rng(17), 2000, 1, 2.0)[:, 0]])


def _commutes(spec) -> bool:
    """spec(conj z) == conj(spec(z)) to the last bit on the commutation
    points, up to the sign of a zero: a real-valued activation's +0
    imaginary part conjugates to -0."""
    z = _commutation_points()
    with np.errstate(all="ignore"):
        return np.array_equal(spec(np.conj(z)), np.conj(spec(z)), equal_nan=True)


@pytest.mark.parametrize("name", [form for base in available_activations()
                                  for form in (base, "conj:" + base)])
def test_declared_commutation_with_conj_matches_the_values(name):
    """Every catalog member commutes with conj except nowhere_diff, whose
    cosine series is even in Im z; a conj: form commutes when its base does."""
    spec = get_activation(name)
    assert spec.conj_equivariant == _commutes(spec)
    assert spec.conj_equivariant == (name.removeprefix("conj:") != "nowhere_diff")


@pytest.mark.parametrize("params, commutes", [
    ({}, True),
    ({"a": 2, "b": -0.5, "c": 3}, True),
    ({"a": 1j}, False),
    ({"b": 1 + 1j}, False),
    ({"c": -2j}, False),
])
def test_r_affine_commutes_with_conj_for_real_coefficients(params, commutes):
    for spec in (get_activation("r_affine", params),
                 get_activation("conj:r_affine", params)):
        assert spec.conj_equivariant == _commutes(spec) == commutes


@pytest.mark.parametrize("c, commutes", [(2, True), (-0.5, True), (0.5 + 0.5j, False)])
def test_a_real_scale_keeps_commutation_with_conj(c, commutes):
    for base in (get_activation("cardioid"), get_activation("conj:cardioid")):
        spec = scale_activation(base, c)
        assert spec.conj_equivariant == _commutes(spec) == commutes
        assert conjugate_activation(spec).conj_equivariant == commutes


def test_commutation_is_declared_not_probed():
    """custom_activation leaves the flag off unless passed, even for a
    function that commutes; dataclasses.replace keeps it; it is no class
    flag, which the classifier would read as a verdict."""
    card = get_activation("cardioid")
    assert not custom_activation("card", card.fn).conj_equivariant
    assert custom_activation("card", card.fn, conj_equivariant=True).conj_equivariant
    assert dataclasses.replace(card, fn=card.fn).conj_equivariant
    assert not dataclasses.replace(get_activation("nowhere_diff"), fn=np.sin).conj_equivariant
    assert card.class_flags == frozenset()
