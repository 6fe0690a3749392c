"""Independent references the benchmark checks deepnarrow's outputs against.

Nothing here imports deepnarrow.  Every activation and target is written out
again in closed form, with hand-derived Wirtinger derivatives

    d = (d/dx - i d/dy)/2,   dbar = (d/dx + i d/dy)/2,

and a polyharmonicity statement derived from the formula.  From those the
paper's decision tree gives an analytic verdict for each activation, and a
plain-numpy forward pass evaluates a network read back from its JSON file.
``test_reference.py`` checks the derivatives against finite differences of
the closed forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# ---------------------------------------------------------------------------
# Activations: value, first Wirtinger derivatives, polyharmonic order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """f, (d f, dbar f) and the least m with laplacian^m f == 0 (None if no
    such m exists).  ``unresolvable`` marks functions whose variation lies
    below double-precision resolution, so no sampled probe can see a
    derivative."""

    fn: Callable
    first: Callable
    poly_order: Optional[int]
    unresolvable: bool = False


def _safe_unit(z):
    r = np.abs(z)
    return np.where(r > 0, z / np.where(r > 0, r, 1.0), 0), r


def _cardioid():
    # f = (1 + cos arg z) z / 2 = z/2 + RE(z) z / (2|z|), with u = z/|z|:
    # d = 1/2 + 3u/8 + conj(u)/8, dbar = (u - u^3)/8.  |z| is not
    # polyharmonic, nor is any nonzero multiple of RE(z) z/|z|.
    def fn(z):
        u, r = _safe_unit(z)
        return 0.5 * z + 0.5 * np.real(z) * u

    def first(z):
        u, r = _safe_unit(z)
        d = np.where(r > 0, 0.5 + 3 * u / 8 + np.conj(u) / 8, 0)
        return d, (u - u**3) / 8

    return ClosedForm(fn, first, None)


def _modrelu(b):
    # f = relu(|z| + b) z/|z|; on |z| > -b it is z + b z/|z| with
    # d = 1 + b/(2|z|), dbar = -b z^2/(2|z|^3); zero on the dead disk.
    def fn(z):
        u, r = _safe_unit(z)
        return np.maximum(r + b, 0.0) * u

    def first(z):
        u, r = _safe_unit(z)
        live = r + b > 0
        rr = np.where(live, r, 1.0)
        return (np.where(live, 1 + b / (2 * rr), 0),
                np.where(live, -b * u * u / (2 * rr), 0))

    return ClosedForm(fn, first, None)


def _weierstrass(t, ktrunc):
    ks = np.arange(ktrunc + 1)
    amp, freq = 0.5**ks, np.pi * 7.0**ks
    return (np.tensordot(amp, np.cos(np.multiply.outer(freq, t)), axes=(0, 0)),
            -np.tensordot(amp * freq, np.sin(np.multiply.outer(freq, t)), axes=(0, 0)))


def _nowhere_diff(ktrunc):
    # f = sin z + (W(x) + i W(y)) e^{-z},  W(t) = sum_k 2^-k cos(7^k pi t).
    # With P = W(x) + i W(y): dP = (W'(x) + W'(y))/2, dbar P = (W'(x) - W'(y))/2,
    # so d = cos z + e^{-z}(dP - P) and dbar = e^{-z} dbar P, which vanishes on
    # the diagonal x = y.  The k = ktrunc term turns 7^ktrunc pi radians per
    # unit: for ktrunc = 20 that is 2.5e17, far below float resolution.
    def fn(z):
        wx, _ = _weierstrass(np.real(z), ktrunc)
        wy, _ = _weierstrass(np.imag(z), ktrunc)
        return np.sin(z) + (wx + 1j * wy) * np.exp(-z)

    def first(z):
        wx, dwx = _weierstrass(np.real(z), ktrunc)
        wy, dwy = _weierstrass(np.imag(z), ktrunc)
        e = np.exp(-z)
        return (np.cos(z) + e * ((dwx + dwy) / 2 - (wx + 1j * wy)),
                e * (dwx - dwy) / 2)

    return ClosedForm(fn, first, None, unresolvable=7.0**ktrunc > 1e12)


def _r_affine(a, b, c):
    return ClosedForm(lambda z: a * z + b * np.conj(z) + c,
                      lambda z: (np.full_like(z, a), np.full_like(z, b)), 1)


def _const(value):
    return lambda z: np.full_like(z, value)


_CATALOG = {
    "cardioid": lambda p: _cardioid(),
    "modrelu": lambda p: _modrelu(float(p.get("b", -1.0))),
    # exp is holomorphic (harmonic: laplacian = 4 d dbar = 0)
    "exp": lambda p: ClosedForm(np.exp, lambda z: (np.exp(z), _const(0)(z)), 1),
    "antiholo_exp": lambda p: ClosedForm(lambda z: np.exp(np.conj(z)),
                                         lambda z: (_const(0)(z), np.exp(np.conj(z))), 1),
    "r_affine": lambda p: _r_affine(complex(p.get("a", 1)), complex(p.get("b", 0)),
                                    complex(p.get("c", 0))),
    # RE(z)^2 = x^2: d = dbar = x; laplacian = 2, so laplacian^2 = 0
    "re_square": lambda p: ClosedForm(lambda z: np.real(z) ** 2 + 0j,
                                      lambda z: (np.real(z) + 0j, np.real(z) + 0j), 2),
    # z + conj(z)^2: d = 1, dbar = 2 conj(z); harmonic
    "z_plus_zbar_sq": lambda p: ClosedForm(lambda z: z + np.conj(z) ** 2,
                                           lambda z: (_const(1)(z), 2 * np.conj(z)), 1),
    # z conj(z): d = conj(z), dbar = z; laplacian = 4, so laplacian^2 = 0
    "abs_square": lambda p: ClosedForm(lambda z: np.abs(z) ** 2 + 0j,
                                       lambda z: (np.conj(z), z + 0j), 2),
    # phi(x): d = dbar = phi'(x)/2; laplacian^m = phi^(2m), never identically 0
    "exp_re": lambda p: ClosedForm(lambda z: np.exp(np.real(z)) + 0j,
                                   lambda z: (np.exp(np.real(z)) / 2 + 0j,) * 2, None),
    "tanh_re": lambda p: ClosedForm(lambda z: np.tanh(np.real(z)) + 0j,
                                    lambda z: ((1 - np.tanh(np.real(z)) ** 2) / 2 + 0j,) * 2,
                                    None),
    "nowhere_diff": lambda p: _nowhere_diff(int(p.get("ktrunc", 20))),
}


def z_abs_z():
    """z |z| (a user callable, not in the catalog): d = 3|z|/2,
    dbar = z^2/(2|z|), so both are nonzero at every z != 0.  Laplacian =
    3z/|z| and every further laplacian is a nonzero homogeneous function."""

    def first(z):
        u, r = _safe_unit(z)
        return 1.5 * r + 0j, z * u / 2

    return ClosedForm(lambda z: z * np.abs(z), first, None)


def conjugated(cf: ClosedForm) -> ClosedForm:
    """conj o f: d(conj f) = conj(dbar f), dbar(conj f) = conj(d f)."""

    def first(z):
        d, db = cf.first(z)
        return np.conj(db), np.conj(d)

    return ClosedForm(lambda z: np.conj(cf.fn(z)), first, cf.poly_order, cf.unresolvable)


def scaled(cf: ClosedForm, c: complex) -> ClosedForm:
    """c f: both derivatives scale by c."""

    def first(z):
        d, db = cf.first(z)
        return c * d, c * db

    return ClosedForm(lambda z: c * cf.fn(z), first, cf.poly_order, cf.unresolvable)


def closed_form(name: str, params: Optional[dict] = None) -> ClosedForm:
    """Closed form of a catalog activation by its serialized name, including
    the ``conj:`` prefix."""
    params = dict(params or {})
    if name.startswith("conj:"):
        return conjugated(closed_form(name[len("conj:"):], params))
    return _CATALOG[name](params)


def catalog_names() -> tuple:
    return tuple(sorted(_CATALOG))


# ---------------------------------------------------------------------------
# The decision tree on closed-form derivatives
# ---------------------------------------------------------------------------

_ZERO = 1e-12


def lattice(half_side: float, points: int, n: int = 1) -> np.ndarray:
    """Uniform lattice on [-s, s]^2n as an (points^2n, n) complex array."""
    axis = np.linspace(-half_side, half_side, points)
    mesh = np.meshgrid(*([axis] * (2 * n)), indexing="ij")
    return np.stack([mesh[2 * j].ravel() + 1j * mesh[2 * j + 1].ravel()
                     for j in range(n)], axis=1)


def analytic_verdict(cf: ClosedForm, points: np.ndarray) -> str:
    """Walk the paper's decision tree with exact derivatives on ``points``.

    dbar == 0 everywhere: holomorphic; d == 0: antiholomorphic; d and dbar
    constant: R-affine (all second derivatives vanish).  Otherwise a point
    with exactly one nonzero derivative selects the n+m+1 family (n+m+4 when
    polyharmonic), and points with both nonzero the 2n+2m+1 family
    (2n+2m+5).  No point with a nonzero derivative (a constant restriction,
    which says nothing about the plane): Inconclusive.
    """
    d, db = (np.broadcast_to(np.asarray(v, dtype=np.complex128), points.shape)
             for v in cf.first(points))
    nz_d, nz_db = np.abs(d) > _ZERO, np.abs(db) > _ZERO
    if not (nz_d | nz_db).any():
        return "Inconclusive"
    if not nz_db.any():
        return "NonUniversalHolomorphic"
    if not nz_d.any():
        return "NonUniversalAntiholomorphic"
    if np.ptp(d.real) + np.ptp(d.imag) + np.ptp(db.real) + np.ptp(db.imag) <= _ZERO:
        return "NonUniversalRAffine"
    poly = cf.poly_order is not None
    if (nz_d ^ nz_db).any():
        return "UniversalPoly_NMplus4" if poly else "UniversalNonPoly_NMplus1"
    if (nz_d & nz_db).any():
        return "UniversalPoly_2N2Mplus5" if poly else "UniversalNonPoly_2N2Mplus1"
    return "Inconclusive"


#: The whole plane, sampled: [-8, 8]^2 at step 1/4 (contains 0, both axes and
#: the diagonal, where the lone-derivative points of the catalog lie).
PLANE = lattice(8.0, 65)[:, 0]
#: deepnarrow's default probe box and grid: [-2, 2]^2 at 9 x 9.
PROBE_BOX = lattice(2.0, 9)[:, 0]


def accepted_verdicts(cf: ClosedForm) -> tuple:
    """The verdicts a sampled classifier may return: the analytic verdict on
    the plane, plus Inconclusive when the probe box holds no witness or when
    the function varies below float resolution."""
    out = [analytic_verdict(cf, PLANE)]
    if cf.unresolvable or analytic_verdict(cf, PROBE_BOX) == "Inconclusive":
        out.append("Inconclusive")
    return tuple(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Width budgets (sufficient hidden width for C^n -> C^m, per strategy)
# ---------------------------------------------------------------------------

WIDTH_BUDGETS = {
    "NonPoly_NMplus1": lambda n, m: n + m + 1,
    "NonPoly_Conj_NMplus1": lambda n, m: n + m + 1,
    "NonPoly_2N2Mplus1": lambda n, m: 2 * n + 2 * m + 1,
    "Poly_NMplus4": lambda n, m: n + m + 4,
    "Poly_Narrow_2N2Mplus5": lambda n, m: 2 * n + 2 * m + 5,
    "Poly_Wide_2N2Mplus12": lambda n, m: 2 * n + 2 * m + 12,
}

#: The strategy each universal verdict certifies when compile picks it.
VERDICT_STRATEGY_FAMILY = {
    "UniversalNonPoly_NMplus1": ("NonPoly_NMplus1", "NonPoly_Conj_NMplus1"),
    "UniversalNonPoly_2N2Mplus1": ("NonPoly_2N2Mplus1",),
    "UniversalPoly_NMplus4": ("Poly_NMplus4",),
    "UniversalPoly_2N2Mplus5": ("Poly_Narrow_2N2Mplus5",),
}

# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

TARGETS = {
    "zzbar": (1, lambda z: np.abs(z[:, 0]) ** 2 + 0j),
    "re": (1, lambda z: np.real(z[:, 0]) + 0j),
    "abs": (1, lambda z: np.abs(z[:, 0]) + 0j),
    "z1zbar2": (2, lambda z: z[:, 0] * np.conj(z[:, 1])),
}

#: The single monomial of each exactly polynomial target:
#: (z exponents, conj(z) exponents).
UNIT_MONOMIALS = {
    "zzbar": ((1,), (1,)),
    "z1zbar2": ((1, 0), (0, 1)),
}


def target_values(name: str, z: np.ndarray) -> np.ndarray:
    return TARGETS[name][1](z)[:, None]


def constant_error(name: str, points: np.ndarray) -> float:
    """Sup error on ``points`` of the constant at the centre of the target's
    bounding box; for these targets (real-valued, or with a range symmetric
    about 0) that is the error of the best constant approximant."""
    v = TARGETS[name][1](points)
    centre = complex((v.real.min() + v.real.max()) / 2, (v.imag.min() + v.imag.max()) / 2)
    return float(np.max(np.abs(v - centre)))


# ---------------------------------------------------------------------------
# Networks read back from JSON
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Network:
    maps: tuple  # ((matrix, bias), ...)
    activation: ClosedForm
    activation_name: str

    @property
    def width(self) -> int:
        return max([self.maps[0][0].shape[1]] + [m.shape[0] for m, _ in self.maps])

    @property
    def depth(self) -> int:
        return len(self.maps)

    @property
    def params(self) -> int:
        return sum(m.size + b.size for m, b in self.maps)


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def load_network(text: str) -> Network:
    doc = json.loads(text)
    maps = []
    for d in doc["affine_maps"]:
        m = _complex(d["matrix"]).reshape(int(d["rows"]), int(d["cols"]))
        maps.append((m, _complex(d["bias"])))
    params = {k: (complex(*v) if isinstance(v, list) else v)
              for k, v in doc["activation"]["params"].items()}
    name = doc["activation"]["name"]
    return Network(tuple(maps), closed_form(name, params), name)


def forward(net: Network, z: np.ndarray, jitter: Optional[np.random.Generator] = None,
            chunk: int = 8192) -> np.ndarray:
    """Alternate affine maps and the closed-form activation, in chunks so
    that the check's memory stays far below the compiler's.  With ``jitter``,
    every activation output is scaled by 1 + u eps, u uniform in [-1, 1]: a
    rounding difference of one unit in the last place, as another formula
    for the same activation would make."""
    eps = np.finfo(np.float64).eps
    out = []
    for lo in range(0, z.shape[0], chunk):
        cur = z[lo:lo + chunk]
        for k, (m, b) in enumerate(net.maps):
            cur = cur @ m.T + b
            if k < len(net.maps) - 1:
                cur = net.activation.fn(cur)
                if jitter is not None:
                    cur = cur * (1 + eps * jitter.uniform(-1, 1, cur.shape))
        out.append(cur)
    return np.concatenate(out)


def sup_error(net: Network, target: str, z: np.ndarray) -> float:
    return errors(forward(net, z), target, z)


def errors(values: np.ndarray, target: str, z: np.ndarray) -> float:
    """Max over the points of the Euclidean output error."""
    return float(np.max(np.linalg.norm(values - target_values(target, z), axis=1)))


def uniform_points(rng: np.random.Generator, count: int, n: int,
                   half_side: float = 1.0) -> np.ndarray:
    return (rng.uniform(-half_side, half_side, (count, n))
            + 1j * rng.uniform(-half_side, half_side, (count, n)))


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------


def parse_sweep_csv(text: str) -> list:
    """Rows (h, sup_error, max_post_coeff, depth, width) of a sweep CSV."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "h,sup_error,max_post_coeff,depth,width":
        raise ValueError("unexpected sweep CSV header")
    rows = []
    for ln in lines[1:]:
        h, err, coeff, depth, width = ln.split(",")
        rows.append((float(h), float(err), float(coeff), int(depth), int(width)))
    return rows
