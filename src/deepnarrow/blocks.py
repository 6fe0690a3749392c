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

Each constructor takes the row of its point (``wirtinger.PointRow``) and h,
and does arithmetic only: the row holds f(z0) and the derivatives it
divides out.  Whoever picks the point checks that it has the pattern or
square kind the block needs: a lowering plan, or ``wirtinger.point_row``
for a point given from outside.

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
from .wirtinger import PointRow, ToleranceProfile, probe_atlas

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


def _lone_block(row: PointRow, h: float, v: complex) -> ShallowBlock:
    """Width-1 block (w - f(z0)) / (h v) at the row's point, v its lone
    nonzero first derivative: d gives the identity, dbar conjugation."""
    c = 1.0 / (h * v)
    pre = ComplexAffineMap(_col([h]), [row.z0])
    post = ComplexAffineMap(_col([c]).T, [-row.f0 * c])
    return ShallowBlock(pre, post, (row.z0,))


def identity_block(row: PointRow, h: float) -> ShallowBlock:
    """Width-1 approximation of the complex identity at a lone-d point."""
    return _lone_block(row, h, row.d)


def conj_block(row: PointRow, h: float) -> ShallowBlock:
    """Width-1 approximation of complex conjugation at a lone-dbar point."""
    return _lone_block(row, h, row.dbar)


def pair_block(row: PointRow, h: float) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z) at a point where both
    derivatives are nonzero.

    Neurons see z0 + h z and z0 + i h z; the two outputs combine them as

        ( i y1 + y2 - (1+i) f(z0)) / ( 2 i h d)     ~ z
        (-i y1 + y2 - (1-i) f(z0)) / (-2 i h dbar)  ~ conj z
    """
    z0, f0 = row.z0, row.f0
    c1 = 1.0 / (2j * h * row.d)
    c2 = 1.0 / (-2j * h * row.dbar)
    pre = ComplexAffineMap(_col([h, 1j * h]), [z0, z0])
    post = ComplexAffineMap(
        np.array([[1j * c1, c1], [-1j * c2, c2]], dtype=np.complex128),
        [-(1 + 1j) * f0 * c1, -(1 - 1j) * f0 * c2],
    )
    return ShallowBlock(pre, post, (z0,))


def id_conj_pair_block(spec: ActivationSpec, prof: ToleranceProfile, h: float) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z) on the pair route of the
    probe atlas (``ProbeAtlas.pair_route``); see ``routed_pair_block``."""
    return routed_pair_block(probe_atlas(spec, prof).pair_route(), h)


def routed_pair_block(route: tuple, h: float) -> ShallowBlock:
    """Width-2 approximation of z -> (z, conj z) on a pair route of rows.

    A one-point route (z0,) uses the pair block there.  A two-point route
    (z_id, z_conj) puts the identity block at a lone-d point and the
    conjugation block at a lone-dbar point side by side.  There the
    tolerance-level residual of the "zero" derivative enters the output as
    an O(residual/h) term; a warning is raised when that exceeds
    PAIR_TARGET_TOL.
    """
    if len(route) == 1:
        return pair_block(route[0], h)
    ident, conj = route
    residual = max(abs(ident.dbar) / abs(ident.d), abs(conj.d) / abs(conj.dbar))
    if residual / h > PAIR_TARGET_TOL:
        warnings.warn(
            f"two-point id/conj pair: residual derivative {residual:.3g} over h={h:.3g} "
            f"exceeds target tolerance {PAIR_TARGET_TOL:.3g}", RuntimeWarning)
    c1, c2 = 1.0 / (h * ident.d), 1.0 / (h * conj.dbar)
    pre = ComplexAffineMap(_col([h, h]), [ident.z0, conj.z0])
    post = ComplexAffineMap(np.diag([c1, c2]), [-ident.f0 * c1, -conj.f0 * c2])
    return ShallowBlock(pre, post, (ident.z0, conj.z0))


def square_block(row: PointRow, h: float) -> ShallowBlock:
    """Width-4 approximation of the row's square kind at its point:

      zzbar:  neurons at z0 +- h z, z0 +- i h z, post
              (y1+y2+y3+y4 - 4 f0) / (4 h^2 ddbar)           ~ z conj(z)
      z2:     neurons at z0 +- h z, z0 +- sqrt(i) h z, post
              (y1+y2-i y3-i y4 + 2(-1+i) f0) / (2 h^2 d2)    ~ z^2
      zbar2:  neurons at z0 +- h z (padded to 4), post
              (y1+y2 - 2 f0) / (h^2 dbar2)                   ~ conj(z)^2
    """
    z0, f0 = row.z0, row.f0
    d2, ddbar, dbar2, _ = row.second
    if row.kind == "zzbar":
        c = 1.0 / (4 * h**2 * ddbar)
        pre = ComplexAffineMap(_col([h, -h, 1j * h, -1j * h]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, c, c]]), [-4 * f0 * c])
    elif row.kind == "z2":
        c = 1.0 / (2 * h**2 * d2)
        pre = ComplexAffineMap(_col([h, -h, SQRT_I * h, -SQRT_I * h]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, -1j * c, -1j * c]]),
                                [2 * (-1 + 1j) * f0 * c])
    else:
        c = 1.0 / (h**2 * dbar2)
        pre = ComplexAffineMap(_col([h, -h, 0, 0]), [z0] * 4)
        post = ComplexAffineMap(np.array([[c, c, 0, 0]]), [-2 * f0 * c])
    return ShallowBlock(pre, post, (z0,))


# polarization combinations: (input row over (z, w), coefficient)
_MUL_COMBOS = {
    "mul2": (((1, 1), 0.25 + 0.25j), ((1, -1), -0.25 + 0.25j), ((1, -1j), -0.5j)),
    "mul1": (((1, 1), 0.25), ((1, -1), -0.25)),
    "mul3": (((1, 1), 0.25), ((1, -1), -0.25)),
}


def mul_block(row: PointRow, h: float) -> ShallowBlock:
    """Two-input multiplication block via the polarization identities.

    The row's square kind dictates the product that comes out
    (``_SQUARE_TO_MUL``):

      zzbar -> mul2:  (1/4+i/4)|z+w|^2 + (-1/4+i/4)|z-w|^2 - (i/2)|z-iw|^2 = z conj(w)
      z2    -> mul1:  ((z+w)^2 - (z-w)^2) / 4 = z w
      zbar2 -> mul3:  (conj(z+w)^2 - conj(z-w)^2) / 4 = conj(z w)

    12 neurons for mul2 and 8 for mul1/mul3.
    """
    base = square_block(row, h)
    # neuron 4 c + k is square neuron k on combination c's input row
    sel, coef = (np.array(col) for col in zip(*_MUL_COMBOS[_SQUARE_TO_MUL[row.kind]]))
    pre = ComplexAffineMap((sel[:, None, :] * base.pre.matrix).reshape(-1, 2),
                           np.tile(base.pre.bias, len(coef)))
    post = ComplexAffineMap((coef[:, None] * base.post.matrix).reshape(1, -1),
                            [sum(coef * base.post.bias[0])])
    return ShallowBlock(pre, post, (row.z0,))
