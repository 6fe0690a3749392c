"""Shallow building blocks: explicit affine pairs around one activation layer.

Every constructor localizes the activation at a point z0 of differentiability
via the pre-map z -> z0 + h z and undoes the first (or second) order Taylor
data in the post-map, leaving the target elementary function plus a remainder
that vanishes as h -> 0:

    identity     1 neuron    (w - f(z0)) / (h d)                  ~ z
    conjugation  1 neuron    (w - f(z0)) / (h dbar)               ~ conj(z)
    pair         2 neurons   neurons at z0 + h z and z0 + i h z   ~ (z, conj z)
    square       4 neurons   one of z conj(z) / z^2 / conj(z)^2
    mul          8-12 neurons  polarization combination of squares,
                 one of z*w / z*conj(w) / conj(z*w)

Post-map coefficients scale as h^-1 (first order) and h^-2 (squares), which
is the conditioning price of small h; a block's ``post_scale`` reads it off.
A block is evaluated and measured as the depth-2 network ``to_cvnn`` gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec
from .core import ComplexAffineMap, Cvnn
from .errors import ConstructionError
from .wirtinger import ToleranceProfile, first_derivs, probe_atlas, second_derivs

__all__ = [
    "ShallowBlock",
    "mul_apply",
    "identity_block",
    "conj_block",
    "pair_block",
    "id_conj_pair_block",
    "routed_pair_block",
    "square_block",
    "mul_block",
]

SQRT_I = np.exp(1j * np.pi / 4)  # the fixed square root of i

#: the largest residual/h a two-point id/conj pair takes without a warning
PAIR_TARGET_TOL = 1e-2

#: polarization multiplication variant (z*w | z*conj(w) | conj(z*w)) by square kind
_SQUARE_TO_MUL = {"zzbar": "mul2", "z2": "mul1", "zbar2": "mul3"}


def mul_apply(kind: str, z, w):
    if kind == "mul1":
        return z * w
    if kind == "mul2":
        return z * np.conj(w)
    if kind == "mul3":
        return np.conj(z * w)
    raise ValueError(f"unknown mul kind {kind!r}")


@dataclass(frozen=True)
class ShallowBlock:
    """One hidden layer with explicit pre/post affine maps around the
    activation, localized at the points z0.  Its width (the neurons) and its
    post scale (the largest |post-map matrix coefficient|, h^-1 or h^-2
    times the inverse derivative) are read off the maps."""

    pre: ComplexAffineMap
    post: ComplexAffineMap
    z0: tuple

    @property
    def width(self) -> int:
        return self.pre.out_dim

    @property
    def post_scale(self) -> float:
        # scalar abs: numpy's vectorized complex abs may round differently
        return float(max(map(abs, self.post.matrix.flat)))

    def to_cvnn(self, spec: ActivationSpec) -> Cvnn:
        """The block as the depth-2 network it is; evaluate and measure it
        as one (``eval_cvnn``, ``verifier.sup_error``)."""
        return Cvnn((self.pre, self.post), spec.activation_id)


def _col(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).reshape(-1, 1)


def _lone_block(spec: ActivationSpec, z0: complex, h: float, prof: ToleranceProfile,
                side: str) -> tuple:
    """Width-1 block (w - f(z0)) / (h v) at a point whose only nonzero first
    derivative v is ``side`` ("d" gives the identity, "dbar" conjugation).
    Returns (block, |other derivative| / |v|): the residual that the
    tolerance still lets through, relative to v."""
    z0 = complex(z0)
    d, dbar, est = first_derivs(spec, z0, prof)
    kind, other, v, r = (("identity", "dbar", d, dbar) if side == "d"
                         else ("conjugation", "d", dbar, d))
    if prof.pattern(d, dbar, est) != side:
        raise ConstructionError(
            f"{kind} block needs |{side}| > tol >= |{other}| at z0={z0}: "
            f"d={d:.3g}, dbar={dbar:.3g}")
    f0 = complex(spec(np.array([z0]))[0])
    c = 1.0 / (h * v)
    pre = ComplexAffineMap(_col([h]), [z0])
    post = ComplexAffineMap(_col([c]).T, [-f0 * c])
    return ShallowBlock(pre, post, (z0,)), abs(r) / abs(v)


def identity_block(spec: ActivationSpec, z0: complex, h: float,
                   prof: ToleranceProfile = ToleranceProfile()) -> ShallowBlock:
    """Width-1 approximation of the complex identity; needs d != 0 = dbar at z0."""
    return _lone_block(spec, z0, h, prof, "d")[0]


def conj_block(spec: ActivationSpec, z0: complex, h: float,
               prof: ToleranceProfile = ToleranceProfile()) -> ShallowBlock:
    """Width-1 approximation of complex conjugation; needs dbar != 0 = d at z0."""
    return _lone_block(spec, z0, h, prof, "dbar")[0]


def pair_block(spec: ActivationSpec, z0: complex, h: float,
               prof: ToleranceProfile = ToleranceProfile()) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z); needs both derivatives nonzero.

    Neurons see z0 + h z and z0 + i h z; the two outputs combine them as

        ( i y1 + y2 - (1+i) f(z0)) / ( 2 i h d)     ~ z
        (-i y1 + y2 - (1-i) f(z0)) / (-2 i h dbar)  ~ conj z
    """
    z0 = complex(z0)
    d, dbar, est = first_derivs(spec, z0, prof)
    if prof.pattern(d, dbar, est) != "both":
        raise ConstructionError(
            f"pair block needs both derivatives nonzero at z0={z0}: d={d:.3g}, dbar={dbar:.3g}")
    f0 = complex(spec(np.array([z0]))[0])
    c1 = 1.0 / (2j * h * d)
    c2 = 1.0 / (-2j * h * dbar)
    pre = ComplexAffineMap(_col([h, 1j * h]), [z0, z0])
    post = ComplexAffineMap(
        np.array([[1j * c1, c1], [-1j * c2, c2]], dtype=np.complex128),
        [-(1 + 1j) * f0 * c1, -(1 - 1j) * f0 * c2],
    )
    return ShallowBlock(pre, post, (z0,))


def id_conj_pair_block(spec: ActivationSpec, prof: ToleranceProfile, h: float) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z), routed on the probe grid
    by ``ProbeAtlas.pair_route``; see ``routed_pair_block``."""
    return routed_pair_block(spec, probe_atlas(spec, prof).pair_route(), h, prof)


def routed_pair_block(spec: ActivationSpec, route, h: float,
                      prof: ToleranceProfile = ToleranceProfile()) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z) on a pair route.

    A one-point route (z0,) uses the pair block there.  A two-point route
    (z_id, z_conj) puts the identity block at a lone-d point and the
    conjugation block at a lone-dbar point side by side.  There the
    tolerance-level residual of the "zero" derivative enters the output as
    an O(residual/h) term; a warning is raised when that exceeds
    PAIR_TARGET_TOL.  A missing route (None), or a point without the pattern
    its block needs, raises ConstructionError.
    """
    if route is None:
        raise ConstructionError(
            "no usable probe points for id/conj pair: activation appears "
            "holomorphic, antiholomorphic, or R-affine on the probe grid")
    if len(route) == 1:
        return pair_block(spec, route[0], h, prof)

    z1, z2 = route
    ident, r1 = _lone_block(spec, z1, h, prof, "d")
    conj, r2 = _lone_block(spec, z2, h, prof, "dbar")
    residual = max(r1, r2)
    if residual / h > PAIR_TARGET_TOL:
        warnings.warn(
            f"two-point id/conj pair: residual derivative {residual:.3g} over h={h:.3g} "
            f"exceeds target tolerance {PAIR_TARGET_TOL:.3g}", RuntimeWarning)
    pre = ComplexAffineMap(np.vstack([ident.pre.matrix, conj.pre.matrix]),
                           np.concatenate([ident.pre.bias, conj.pre.bias]))
    post = ComplexAffineMap(np.diag([ident.post.matrix[0, 0], conj.post.matrix[0, 0]]),
                            np.concatenate([ident.post.bias, conj.post.bias]))
    return ShallowBlock(pre, post, ident.z0 + conj.z0)


def square_block(spec: ActivationSpec, z0: complex, h: float,
                 prof: ToleranceProfile = ToleranceProfile()):
    """Width-4 approximation of one of z*conj(z), z^2, conj(z)^2 at z0.

    Which one depends on the second Wirtinger derivatives there, probed in
    the order ddbar > d2 > dbar2:

      ddbar != 0:            neurons at z0 +- h z, z0 +- i h z, post
                             (y1+y2+y3+y4 - 4 f0) / (4 h^2 ddbar)      ~ z conj(z)
      else d2 != 0:          neurons at z0 +- h z, z0 +- sqrt(i) h z, post
                             (y1+y2-i y3-i y4 + 2(-1+i) f0) / (2 h^2 d2)  ~ z^2
      else dbar2 != 0:       neurons at z0 +- h z (padded to 4), post
                             (y1+y2 - 2 f0) / (h^2 dbar2)               ~ conj(z)^2

    Returns (block, which) with which in {"zzbar", "z2", "zbar2"}.
    """
    z0 = complex(z0)
    d2, ddbar, dbar2, est = second_derivs(spec, z0, prof)
    f0 = complex(spec(np.array([z0]))[0])
    if prof.nonzero(ddbar, est):
        c = 1.0 / (4 * h**2 * ddbar)
        pre = ComplexAffineMap(_col([h, -h, 1j * h, -1j * h]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, c, c]]), [-4 * f0 * c])
        return ShallowBlock(pre, post, (z0,)), "zzbar"
    if prof.nonzero(d2, est):
        c = 1.0 / (2 * h**2 * d2)
        pre = ComplexAffineMap(_col([h, -h, SQRT_I * h, -SQRT_I * h]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, -1j * c, -1j * c]]),
                                [2 * (-1 + 1j) * f0 * c])
        return ShallowBlock(pre, post, (z0,)), "z2"
    if prof.nonzero(dbar2, est):
        c = 1.0 / (h**2 * dbar2)
        pre = ComplexAffineMap(_col([h, -h, 0, 0]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, 0, 0]]), [-2 * f0 * c])
        return ShallowBlock(pre, post, (z0,)), "zbar2"
    raise ConstructionError(
        f"all second Wirtinger derivatives vanish at z0={z0} "
        f"(locally R-affine): d2={d2:.3g}, ddbar={ddbar:.3g}, dbar2={dbar2:.3g}")


# polarization combinations: (input row over (z, w), coefficient)
_MUL_COMBOS = {
    "mul2": (((1, 1), 0.25 + 0.25j), ((1, -1), -0.25 + 0.25j), ((1, -1j), -0.5j)),
    "mul1": (((1, 1), 0.25), ((1, -1), -0.25)),
    "mul3": (((1, 1), 0.25), ((1, -1), -0.25)),
}


def mul_block(spec: ActivationSpec, z0: complex, h: float,
              prof: ToleranceProfile = ToleranceProfile()):
    """Two-input multiplication block via the polarization identities.

    The available square kind at z0 dictates the product that comes out:

      zzbar -> mul2:  (1/4+i/4)|z+w|^2 + (-1/4+i/4)|z-w|^2 - (i/2)|z-iw|^2 = z conj(w)
      z2    -> mul1:  ((z+w)^2 - (z-w)^2) / 4 = z w
      zbar2 -> mul3:  (conj(z+w)^2 - conj(z-w)^2) / 4 = conj(z w)

    Returns (block, kind) with 12 neurons for mul2 and 8 for mul1/mul3.
    """
    base, which = square_block(spec, z0, h, prof)
    kind = _SQUARE_TO_MUL[which]
    combos = _MUL_COMBOS[kind]
    sq_rows = base.pre.matrix[:, 0]
    sq_b = base.pre.bias
    sq_post = base.post.matrix[0]
    sq_bias = base.post.bias[0]
    pre_rows, pre_bias, post_coeffs = [], [], []
    bias = 0j
    for row, coef in combos:
        for k in range(4):
            pre_rows.append([sq_rows[k] * row[0], sq_rows[k] * row[1]])
            pre_bias.append(sq_b[k])
            post_coeffs.append(coef * sq_post[k])
        bias += coef * sq_bias
    pre = ComplexAffineMap(np.array(pre_rows, dtype=np.complex128), pre_bias)
    post = ComplexAffineMap(np.array([post_coeffs], dtype=np.complex128), [bias])
    return ShallowBlock(pre, post, (z0,)), kind

