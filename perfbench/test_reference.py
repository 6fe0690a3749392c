"""Tests of the benchmark's own references (run: python3 -m pytest perfbench).

They check the hand-derived formulas in reference.py against finite
differences of the closed forms, and the decision tree against the paper's
classification of the catalog.  deepnarrow itself is not imported.
"""

import json

import numpy as np
import pytest

import reference as ref

STEP = 1e-6


def numeric_wirtinger(fn, z):
    dx = (fn(z + STEP) - fn(z - STEP)) / (2 * STEP)
    dy = (fn(z + 1j * STEP) - fn(z - 1j * STEP)) / (2 * STEP)
    return (dx - 1j * dy) / 2, (dx + 1j * dy) / 2


def laplacian(fn, z, step=1e-3):
    return (fn(z + step) + fn(z - step) + fn(z + 1j * step) + fn(z - 1j * step)
            - 4 * fn(z)) / step**2


# points off every non-differentiable locus (0, the modrelu circles)
POINTS = np.array([0.7 + 0.3j, -1.3 + 0.9j, 0.4 - 1.7j, 2.5 + 1.5j, -3.1 - 2.2j, 1.9j])

CASES = [(name, {}) for name in ref.catalog_names() if name != "nowhere_diff"] + [
    ("modrelu", {"b": -0.5}), ("modrelu", {"b": -2.0}),
    ("r_affine", {"a": 2, "b": 1, "c": 1}), ("conj:cardioid", {}), ("conj:modrelu", {}),
    ("nowhere_diff", {"ktrunc": 3}),
]


@pytest.mark.parametrize("name,params", CASES)
def test_first_derivatives_match_finite_differences(name, params):
    cf = ref.closed_form(name, params)
    d, db = cf.first(POINTS)
    nd, ndb = numeric_wirtinger(cf.fn, POINTS)
    scale = 1 + np.abs(nd) + np.abs(ndb)
    assert np.all(np.abs(d - nd) <= 1e-6 * scale)
    assert np.all(np.abs(db - ndb) <= 1e-6 * scale)


@pytest.mark.parametrize("cf", [ref.z_abs_z(), ref.scaled(ref.closed_form("cardioid"), 0.5 + 0.5j),
                                ref.conjugated(ref.closed_form("tanh_re"))])
def test_derived_forms_match_finite_differences(cf):
    d, db = cf.first(POINTS)
    nd, ndb = numeric_wirtinger(cf.fn, POINTS)
    assert np.allclose(d, nd, atol=1e-6) and np.allclose(db, ndb, atol=1e-6)


@pytest.mark.parametrize("name,value", [("exp", 0), ("antiholo_exp", 0), ("z_plus_zbar_sq", 0),
                                        ("r_affine", 0), ("re_square", 2), ("abs_square", 4)])
def test_polyharmonic_orders(name, value):
    """Order 1 means harmonic; the order-2 members have a constant laplacian."""
    cf = ref.closed_form(name)
    assert cf.poly_order == (1 if value == 0 else 2)
    assert np.allclose(laplacian(cf.fn, POINTS), value, atol=1e-4)


def test_non_polyharmonic_members_have_varying_laplacian():
    for name in ("cardioid", "modrelu", "exp_re", "tanh_re"):
        cf = ref.closed_form(name)
        assert cf.poly_order is None
        lap = laplacian(cf.fn, POINTS)
        assert np.ptp(np.abs(lap)) > 1e-3, name


EXPECTED = {
    "abs_square": ("UniversalPoly_2N2Mplus5",),
    "antiholo_exp": ("NonUniversalAntiholomorphic",),
    "cardioid": ("UniversalNonPoly_NMplus1",),
    "exp": ("NonUniversalHolomorphic",),
    "exp_re": ("UniversalNonPoly_2N2Mplus1",),
    "modrelu": ("UniversalNonPoly_2N2Mplus1",),
    "nowhere_diff": ("UniversalNonPoly_NMplus1", "Inconclusive"),
    "r_affine": ("NonUniversalHolomorphic",),
    "re_square": ("UniversalPoly_2N2Mplus5",),
    "tanh_re": ("UniversalNonPoly_2N2Mplus1",),
    "z_plus_zbar_sq": ("UniversalPoly_NMplus4",),
}


@pytest.mark.parametrize("name", ref.catalog_names())
def test_catalog_verdicts(name):
    assert ref.accepted_verdicts(ref.closed_form(name)) == EXPECTED[name]


def test_special_verdicts():
    assert ref.accepted_verdicts(ref.closed_form("r_affine", {"a": 2, "b": 1, "c": 1})) == (
        "NonUniversalRAffine",)
    assert ref.accepted_verdicts(ref.closed_form("conj:cardioid")) == ("UniversalNonPoly_NMplus1",)
    # every witness of modrelu b=-5 lies outside the [-2, 2]^2 probe box
    assert ref.accepted_verdicts(ref.closed_form("modrelu", {"b": -5})) == (
        "UniversalNonPoly_2N2Mplus1", "Inconclusive")
    assert ref.accepted_verdicts(ref.z_abs_z()) == ("UniversalNonPoly_2N2Mplus1",)


def test_width_budgets_are_the_papers():
    got = {k: f(1, 1) for k, f in ref.WIDTH_BUDGETS.items()}
    assert got == {"NonPoly_NMplus1": 3, "NonPoly_Conj_NMplus1": 3, "NonPoly_2N2Mplus1": 5,
                   "Poly_NMplus4": 6, "Poly_Narrow_2N2Mplus5": 9, "Poly_Wide_2N2Mplus12": 16}
    assert ref.WIDTH_BUDGETS["Poly_Narrow_2N2Mplus5"](2, 1) == 11


def _net_json(maps, name="cardioid", params=None):
    return json.dumps({"activation": {"name": name, "params": params or {}},
                       "affine_maps": [{"rows": m.shape[0], "cols": m.shape[1],
                                        "matrix": [[c.real, c.imag] for c in m.ravel()],
                                        "bias": [[c.real, c.imag] for c in b]}
                                       for m, b in maps]})


def test_forward_pass_by_hand():
    a1 = np.array([[1 + 1j], [2.0]])
    b1 = np.array([0.5, -1j])
    a2 = np.array([[1.0, -1j]])
    b2 = np.array([0.25])
    net = ref.load_network(_net_json([(a1, b1), (a2, b2)]))
    z = np.array([[0.3 - 0.2j], [-0.7 + 0.1j]])
    card = lambda w: 0.5 * (1 + np.real(w) / np.abs(w)) * w
    hidden = card(z @ a1.T + b1)
    assert np.allclose(ref.forward(net, z, chunk=1), hidden @ a2.T + b2, atol=1e-14)
    assert (net.width, net.depth, net.params) == (2, 2, 7)


def test_forward_pass_of_modrelu_params():
    net = ref.load_network(_net_json([(np.eye(1), np.zeros(1)), (np.eye(1), np.zeros(1))],
                                     "modrelu", {"b": -1.0}))
    out = ref.forward(net, np.array([[0.5 + 0j], [3j]]))
    assert np.allclose(out[:, 0], [0, 2j])


def test_constant_error():
    check = ref.lattice(1.0, 19)   # odd, so 0 is on the lattice
    assert ref.constant_error("zzbar", check) == pytest.approx(1.0)
    assert ref.constant_error("re", check) == pytest.approx(1.0)
    assert ref.constant_error("abs", check) == pytest.approx(np.sqrt(2) / 2)
    assert ref.constant_error("z1zbar2", ref.lattice(1.0, 5, 2)) == pytest.approx(2.0)


def test_lattice_covers_corners():
    pts = ref.lattice(1.0, 18, 2)
    assert pts.shape == (18**4, 2)
    assert np.max(np.abs(pts.real)) == 1.0 and np.max(np.abs(pts.imag)) == 1.0


def test_parse_sweep_csv():
    text = ("# activation=cardioid\nh,sup_error,max_post_coeff,depth,width\n"
            "0.1,0.5,10.0,41,3\n1e-06,inf,1000000.0,41,3\n")
    assert ref.parse_sweep_csv(text) == [(0.1, 0.5, 10.0, 41, 3), (1e-06, np.inf, 1e6, 41, 3)]
