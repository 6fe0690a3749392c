"""Numerical stand-ins for the existence theorems.

fit_shallow builds a depth-2 network by sampling random hidden features and
solving the output layer with complex ridge least squares on a grid; it is a
constructive substitute for shallow universality (no nonconvex training, so
results are deterministic functions of the config).  fit_poly projects a
target onto all monomials in z_1..z_n and their conjugates up to a total
degree, the working form of the density of such polynomials.

Every fit solves for its output coefficients in the complex numbers
(solve_complex_ridge): complex lstsq without a ridge, as in fit_poly, else
the Hermitian normal equations of the ridge problem, primal
(A^H A + ridge I) c = A^H y, or dual c = A^H (A A^H + ridge I)^-1 y when
the design has more columns than rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Callable

import numpy as np

from .activations import ActivationSpec
from .core import CompactBox, ComplexAffineMap, Cvnn, GridSpec, _as_batch, sample_box
from .errors import FitSingular
from .register import PolyZZbar, _graded_lex_key, _monomial

__all__ = ["FitConfig", "fit_shallow", "fit_poly", "solve_complex_ridge",
           "monomial_exponents"]


@dataclass(frozen=True)
class FitConfig:
    num_features: int = 200
    weight_scale: float = 1.0
    ridge: float = 1e-8
    box: CompactBox = CompactBox.square(1, 1.0)
    grid: GridSpec = GridSpec(21)
    seed: int = 0

    def __post_init__(self):
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")
        if not np.isfinite(self.weight_scale):
            raise ValueError(f"weight_scale must be finite, got {self.weight_scale!r}")


def solve_complex_ridge(design: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Minimize ||design @ c - targets||^2 + ridge ||c||^2 over complex c.

    With ridge == 0, complex least squares; a rank-deficient design raises
    FitSingular.  With ridge > 0, the Hermitian normal equations with the
    ridge added to the Gram diagonal in place: the dual (kernel) system
    A^H (A A^H + ridge I)^-1 y when there are more columns than rows, which
    is much smaller, else the primal (A^H A + ridge I) c = A^H y.
    """
    a = np.asarray(design, dtype=np.complex128)
    y = np.asarray(targets, dtype=np.complex128)
    p, w = a.shape
    if ridge == 0:
        c, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < w:
            raise FitSingular(
                "the design is rank deficient with ridge=0; set ridge > 0")
        return c
    ah = a.conj().T
    if w > p:
        gram = a @ ah
        gram.flat[::p + 1] += ridge
        return ah @ np.linalg.solve(gram, y)
    gram = ah @ a
    gram.flat[::w + 1] += ridge
    return np.linalg.solve(gram, ah @ y)


def _complex_normal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """scale * (x + i y), x and then y drawn standard normal of the given shape."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _sup_err(values: np.ndarray, targets: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(values - targets, axis=1)))


#: most hidden values fit_shallow passes to one activation call
ACTIVATION_BLOCK = 2 ** 15


def fit_shallow(f: Callable, spec: ActivationSpec, cfg: FitConfig = FitConfig()):
    """Random-feature shallow fit of a target f: (N, n) -> (N, m) on
    ``cfg.box``, whose coordinates give n; m is the number of columns f
    returns on the fit grid.

    Hidden weights and biases are seeded Gaussians scaled by weight_scale;
    only the output layer is solved (ridge least squares on the grid).
    Returns (network, achieved sup error on the fit grid).
    """
    rng = np.random.default_rng(cfg.seed)
    w = cfg.num_features
    a1 = _complex_normal(rng, (w, cfg.box.n), cfg.weight_scale) / np.sqrt(2)
    b1 = _complex_normal(rng, w, cfg.weight_scale) / np.sqrt(2)
    pts = sample_box(cfg.box, cfg.grid)
    targets = _as_batch(f(pts), pts.shape[0])
    # the hidden layer, evaluated once, in place: one product (a product
    # split by columns can round differently), then the activation a block
    # of columns at a time, then the ones column of the output bias
    design = np.empty((pts.shape[0], w + 1), dtype=np.complex128)
    hidden = design[:, :w]
    np.matmul(pts, a1.T, out=hidden)
    hidden += b1
    step = max(1, ACTIVATION_BLOCK // pts.shape[0])
    for j in range(0, w, step):
        hidden[:, j:j + step] = spec(hidden[:, j:j + step])
    design[:, w] = 1
    coef = solve_complex_ridge(design, targets, cfg.ridge)
    net = Cvnn((ComplexAffineMap(a1, b1), ComplexAffineMap(coef[:w].T, coef[w])),
               spec.activation_id)
    achieved = _sup_err(hidden @ coef[:w] + coef[w], targets)
    return net, achieved


def monomial_exponents(n: int, degree: int) -> list:
    """All (z_degrees, zbar_degrees) with total degree <= degree, in graded
    lexicographic order."""
    out = []
    for exps in _iter_product(range(degree + 1), repeat=2 * n):
        if sum(exps) <= degree:
            out.append((exps[:n], exps[n:]))
    out.sort(key=_graded_lex_key)
    return out


#: relative size below which fit_poly drops a coefficient
PRUNE_TOL = 1e-12


def fit_poly(f: Callable, degree: int, box: CompactBox, grid: GridSpec) -> list:
    """Least-squares fit of all monomials z^alpha conj(z)^beta with
    |alpha| + |beta| <= degree on the grid, z the box's n coordinates.
    Returns one PolyZZbar per column of f.  Raises when the grid
    under-determines the basis.

    Coefficients below PRUNE_TOL * (1 + max |coeff|) are dropped so that
    exactly-representable targets compile to minimal register programs.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    pts = sample_box(box, grid)
    # the basis size, len(monomial_exponents(n, degree)), counted before the
    # (degree + 1)^(2n) exponent tuples are walked
    count = math.comb(degree + 2 * box.n, 2 * box.n)
    if count > pts.shape[0]:
        raise FitSingular(
            f"{count} basis monomials but only {pts.shape[0]} grid points; "
            "refine the grid or lower the degree")
    targets = _as_batch(f(pts), pts.shape[0])
    exps = monomial_exponents(box.n, degree)
    conj = np.conj(pts)
    design = np.column_stack([_monomial(pts, conj, zd, bd) for zd, bd in exps])
    coef = solve_complex_ridge(design, targets, 0.0)
    polys = []
    for col in coef.T:
        cut = PRUNE_TOL * (1.0 + float(np.max(np.abs(col))))
        terms = [(c, zd, bd) for c, (zd, bd) in zip(col, exps) if abs(c) > cut]
        polys.append(PolyZZbar(box.n, tuple(terms)))
    return polys
