"""Numerical Wirtinger calculus and the activation classifier.

The Wirtinger derivatives repackage the real partials of f: C -> C,

    d f    = (df/dx - i df/dy) / 2        ("d", complex-linear part)
    dbar f = (df/dx + i df/dy) / 2        ("dbar", conjugate-linear part)

and second order via the invertible conversion

    [d2, ddbar, dbar2]^T = (1/4) [[1, -2i, -1], [1, 0, 1], [1, 2i, -1]]
                            @ [fxx, fxy, fyy]^T.

Everything is estimated with central finite differences plus Richardson
extrapolation.  "Nonzero" always means |value| > max(zero_tol, 3 est_error)
after extrapolation, which separates analytic zeros from O(h^2) noise at
desk scale and from values no larger than their own error estimate;
``ToleranceProfile.nonzero`` and ``pattern`` alone apply that rule.
Polyharmonicity (laplacian^m f == 0 for some m, with laplacian = 4 d dbar)
is undecidable from samples; the iterated-stencil probe here is advisory and
the catalog's analytic flags take precedence.

The classifier walks the decision tree: holomorphic / antiholomorphic /
R-affine activations are never universal; otherwise the pattern of nonzero
first Wirtinger derivatives at a good probe point, combined with
polyharmonicity, selects the sufficient width family (n+m+1, 2n+2m+1,
n+m+4, or 2n+2m+5).

The probe atlas keeps an activation's first-order data on the probe grid
as one array per fact (z0, d, dbar, est, pattern code), and every rule that
picks a probe point reads those columns.  Each probe stage is one activation
call: ``wirt_first`` and ``wirt_second`` evaluate all their stencil points at
once, and an atlas evaluates f(z0) at every point, and the Taylor probe of
every candidate point, in one batch each.  A classification of cardioid
(closed-form first derivatives only) thus makes three activation calls: two
second probes (the R-affine check, the witness) and one Taylor batch.  The
atlas scan calls ``first_derivs`` once per grid point rather than once per
grid, because the benchmark's tracer counts probes by that name.

A block point's facts travel as its row (``PointRow``): z0, f(z0), d, dbar
and their error estimate, and at a square point the square kind and the
second derivatives.  The lowering's point rules return rows, its plan
keeps them, and the blocks built from a plan read them and probe nothing.
A point given from outside the atlas gets its row from ``point_row``,
under the same rules.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .activations import ActivationSpec
from .core import CompactBox, GridSpec, _c2l, sample_box
from .errors import ConstructionError, ProbeFailed

__all__ = [
    "ToleranceProfile",
    "WirtingerProbe",
    "Classification",
    "TaylorReport",
    "LaplacianEstimate",
    "wirt_first",
    "wirt_second",
    "second_partials_to_wirtinger",
    "laplacian_iterate",
    "taylor_remainder_probe",
    "PointRow",
    "point_row",
    "ProbeAtlas",
    "probe_atlas",
    "find_active_point",
    "find_nonzero_second_point",
    "classify_activation",
    "first_derivs",
    "second_derivs",
    "probe_point",
    "VERDICTS",
]

_EPS = float(np.finfo(np.float64).eps)

_DEFAULT_BOX = CompactBox.square(1, 2.0)
_DEFAULT_GRID = GridSpec(9)

#: Richardson levels of every finite-difference derivative: steps h and h/2
RICHARDSON_LEVELS = 2
#: highest order of iterated laplacian the polyharmonicity heuristic tries
POLYHARMONIC_MAX_ORDER = 4
#: circle radii and points per circle of the Taylor-remainder probe
TAYLOR_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
TAYLOR_POINTS_PER_CIRCLE = 16
#: times the probe box is doubled while the structural heuristics find no
#: evidence of universality on it
PROBE_BOX_GROWTHS = 4


def _mag(v: np.ndarray) -> np.ndarray:
    """|v| elementwise: hypot of the parts, which is abs() of each value bit
    for bit (np.abs of a complex array may differ from it in the last bit)."""
    return np.hypot(v.real, v.imag)


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy for all probes.

    fd_step is the relative first-order step (the actual step is
    fd_step * max(1, |z0|)); second-order stencils use sqrt(fd_step) since
    their roundoff grows like eps/h^2.  zero_tol is the least nonzero
    threshold applied after Richardson extrapolation, by ``nonzero`` alone.
    probe_box has one coordinate: an activation acts on one complex number.
    """

    zero_tol: float = 1e-6
    fd_step: float = 1e-5
    probe_box: CompactBox = _DEFAULT_BOX
    probe_grid: GridSpec = _DEFAULT_GRID

    def __post_init__(self):
        if not (0 < self.zero_tol < np.inf and 0 < self.fd_step < np.inf):
            raise ValueError(f"tolerances must be positive and finite, got zero_tol="
                             f"{self.zero_tol!r}, fd_step={self.fd_step!r}")
        if self.probe_box.n != 1:
            raise ValueError(f"probe_box must have 1 coordinate, got {self.probe_box.n}")

    def nonzero(self, v, est):
        """Whether the derivative estimate v, with error estimate est, counts
        as nonzero: |v| > max(zero_tol, 3 est).  v and est may be arrays,
        which broadcast.  |v| is hypot of the parts, as abs of a complex
        scalar is, and a NaN 3 est leaves zero_tol, as Python's max does."""
        return _mag(np.asarray(v)) > np.fmax(self.zero_tol, 3 * np.asarray(est))

    def pattern(self, d, dbar, est: float) -> Optional[str]:
        """The first-order pattern at a point, est the error estimate of d
        and dbar: "d" or "dbar" when only that derivative is nonzero, "both"
        when both are, None when neither is."""
        return _PATTERNS[bool(self.nonzero(d, est)) + 2 * bool(self.nonzero(dbar, est))]


#: first-order pattern by nonzero(d) + 2 nonzero(dbar)
_PATTERNS = (None, "d", "dbar", "both")


@dataclass(frozen=True)
class WirtingerProbe:
    """First- and second-order Wirtinger derivative estimates at one point."""

    z0: complex
    d: complex
    dbar: complex
    d2: complex
    ddbar: complex
    dbar2: complex
    est_error: float


class PointRow(NamedTuple):
    """What a block needs of its point z0: f(z0), the first Wirtinger
    derivatives and their error estimate; at a square point also the square
    kind ("zzbar", "z2" or "zbar2") and the second derivatives (d2, ddbar,
    dbar2, est_error)."""

    z0: complex
    f0: complex
    d: complex
    dbar: complex
    est: float
    kind: Optional[str] = None
    second: Optional[tuple] = None


class TaylorReport(NamedTuple):
    z0: complex
    order: int
    radii: tuple
    ratios: tuple
    floor: float
    passed: bool


@dataclass(frozen=True)
class LaplacianEstimate:
    value: complex
    noise_floor: float
    reliable: bool


def _richardson(coarse, fine):
    """Extrapolate an O(h^2) difference quotient from its values at steps h
    and h/2; returns (best, |best - fine|)."""
    best = (4.0 * fine - coarse) / 3.0
    return best, abs(best - fine)


def _failure(pts) -> ProbeFailed:
    return ProbeFailed(f"activation evaluation failed near {pts!r}")


def _evaluate(spec: ActivationSpec, pts: list, sizes) -> np.ndarray:
    """spec on the list pts in one call, whose consecutive groups have the
    given sizes; a non-finite value raises ProbeFailed naming the first
    group that holds one."""
    vals = spec(pts)
    if not np.isfinite(vals).all():
        ends = np.cumsum(sizes)
        k = np.searchsorted(ends, np.argmin(np.isfinite(vals)), side="right")
        raise _failure(pts[ends[k] - sizes[k]:ends[k]])
    return vals


def wirt_first(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()):
    """Numerical first Wirtinger derivatives at z0.

    Returns (d, dbar, est_error): central differences on the two real
    partials, Richardson-extrapolated, mapped through d = (Dx - i Dy)/2,
    dbar = (Dx + i Dy)/2.
    """
    z0 = complex(z0)
    h0 = prof.fd_step * max(1.0, abs(z0))
    hs = (h0, h0 / 2.0)
    pts = [p for h in hs for p in (z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h)]
    vals = _evaluate(spec, pts, [len(pts)])
    fscale = max(1.0, float(np.max(np.abs(vals))))
    dx_samples, dy_samples = [], []
    for k, h in enumerate(hs):
        fp, fm, fip, fim = vals[4 * k : 4 * k + 4]
        dx_samples.append((fp - fm) / (2 * h))
        dy_samples.append((fip - fim) / (2 * h))
    dx, ex = _richardson(*dx_samples)
    dy, ey = _richardson(*dy_samples)
    roundoff = _EPS * fscale / hs[-1]
    est = max(0.5 * (ex + ey), roundoff)
    return (dx - 1j * dy) / 2, (dx + 1j * dy) / 2, float(est)


def second_partials_to_wirtinger(fxx, fxy, fyy):
    """Apply the exact conversion matrix from second partials to
    (d2, ddbar, dbar2)."""
    d2 = (fxx - 2j * fxy - fyy) / 4
    ddbar = (fxx + fyy) / 4
    dbar2 = (fxx + 2j * fxy - fyy) / 4
    return d2, ddbar, dbar2


def wirt_second(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()):
    """Numerical second Wirtinger derivatives at z0.

    Returns (d2, ddbar, dbar2, est_error).  Finite-difference second partials
    (fxx, fxy, fyy) are converted through the quarter matrix
    [[1,-2i,-1],[1,0,1],[1,2i,-1]].  f(z0) and the eight stencil points of
    both steps are evaluated in one activation call; a non-finite value
    raises ProbeFailed naming the first group that holds one: [z0], the
    points of step h, then those of step h/2.
    """
    z0 = complex(z0)
    h0 = np.sqrt(prof.fd_step) * max(1.0, abs(z0))
    hs = (h0, h0 / 2.0)
    pts = [z0] + [p for h in hs for p in (z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h,
                                           z0 + h + 1j * h, z0 + h - 1j * h,
                                           z0 - h + 1j * h, z0 - h - 1j * h)]
    vals = _evaluate(spec, pts, [1, 8, 8])
    f0 = vals[0]
    xx_s, yy_s, xy_s = [], [], []
    fscale = max(1.0, abs(f0))
    for k, h in enumerate(hs):
        v = vals[1 + 8 * k : 9 + 8 * k]
        fscale = max(fscale, float(np.max(np.abs(v))))
        xx_s.append((v[0] - 2 * f0 + v[1]) / h**2)
        yy_s.append((v[2] - 2 * f0 + v[3]) / h**2)
        xy_s.append((v[4] - v[5] - v[6] + v[7]) / (4 * h**2))
    fxx, exx = _richardson(*xx_s)
    fyy, eyy = _richardson(*yy_s)
    fxy, exy = _richardson(*xy_s)
    roundoff = 8 * _EPS * fscale / hs[-1] ** 2
    est = max((exx + eyy + exy) / 3, roundoff)
    d2, ddbar, dbar2 = second_partials_to_wirtinger(fxx, fxy, fyy)
    return d2, ddbar, dbar2, float(est)


def first_derivs(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()):
    """(d, dbar, est_error), preferring the catalog's closed form when present."""
    if spec.analytic_first is not None and not spec.is_excluded(z0):
        d, dbar = spec.analytic_first(complex(z0))
        return complex(d), complex(dbar), 0.0
    return wirt_first(spec, z0, prof)


def second_derivs(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()):
    """(d2, ddbar, dbar2, est_error), preferring the closed form when present."""
    if spec.analytic_second is not None and not spec.is_excluded(z0):
        d2, ddbar, dbar2 = spec.analytic_second(complex(z0))
        return complex(d2), complex(ddbar), complex(dbar2), 0.0
    return wirt_second(spec, z0, prof)


def probe_point(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()) -> WirtingerProbe:
    d, dbar, e1 = first_derivs(spec, z0, prof)
    d2, ddbar, dbar2, e2 = second_derivs(spec, z0, prof)
    return WirtingerProbe(complex(z0), d, dbar, d2, ddbar, dbar2, max(e1, e2))


def laplacian_iterate(spec: ActivationSpec, z0: complex, order: int) -> LaplacianEstimate:
    """Estimate laplacian^order at z0 with nested 5-point stencils.

    Each level amplifies roundoff by h^-2, so the step widens with the order
    and the estimate carries an explicit noise floor; `reliable` is False
    when the value is within 10x of that floor.  The 5^order stencil leaves
    are evaluated in one activation call and combined in the order of the
    nested recursion.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > POLYHARMONIC_MAX_ORDER:
        raise ValueError(f"order {order} exceeds POLYHARMONIC_MAX_ORDER {POLYHARMONIC_MAX_ORDER}")
    h = _EPS ** (1.0 / (2 * order + 2)) * max(1.0, abs(z0))
    leaves = []

    def collect(z, k):
        if k == 0:
            leaves.append(z)
            return
        for zz in (z + h, z - h, z + 1j * h, z - 1j * h, z):
            collect(zz, k - 1)

    collect(complex(z0), order)
    vals = _evaluate(spec, leaves, [1] * len(leaves))
    stream = iter(vals)

    def rec(k):
        # consumes the leaves in the order ``collect`` listed them
        if k == 0:
            return next(stream)
        return (rec(k - 1) + rec(k - 1) + rec(k - 1) + rec(k - 1) - 4 * rec(k - 1)) / h**2

    value = rec(order)
    fscale = max(1.0, float(np.max(_mag(vals))))
    noise = 5.0**order * _EPS * fscale / h ** (2 * order)
    return LaplacianEstimate(complex(value), float(noise), bool(abs(value) > 10 * noise))


#: circle offsets w of the Taylor-remainder probe, (radius, angle)
_TAYLOR_W = np.stack([r * np.exp(2j * np.pi * np.arange(TAYLOR_POINTS_PER_CIRCLE)
                                 / TAYLOR_POINTS_PER_CIRCLE) for r in TAYLOR_RADII])


def taylor_remainder_probe(spec: ActivationSpec, centres, d, dbar) -> list:
    """Check that the first-order Taylor remainder actually vanishes at each
    of a 1-D array of centres, whose Wirtinger derivatives are the arrays
    ``d`` and ``dbar``.

    Evaluates Theta(w) = f(z0+w) - f(z0) - d w - dbar conj(w) on shrinking
    circles |w| = r and reports max |Theta| / r per radius.  Differentiability
    shows up as a decreasing ratio sequence; a ratio sequence that stalls or
    grows marks a point where the expansion is invalid.

    The activation is called once, on every f(z0) and every circle point.
    Returns one entry per centre: its TaylorReport, or, when one of its
    values is not finite, a ProbeFailed returned rather than raised, naming
    the centre when f(z0) is not finite, else its first circle that holds a
    non-finite value.
    """
    centres = np.asarray(centres, dtype=np.complex128)
    if centres.ndim != 1 or np.shape(d) != centres.shape or np.shape(dbar) != centres.shape:
        raise ValueError("centres, d and dbar must be 1-D arrays of one length")
    c = np.array([d, dbar], dtype=np.complex128)
    zs = centres.tolist()
    out = [None] * len(zs)
    ks = range(len(zs))
    circles = centres[:, None, None] + _TAYLOR_W                    # (centre, radius, angle)
    vals = spec(np.concatenate([centres, circles.ravel()]))
    f0, fv = vals[: len(zs)], vals[len(zs):].reshape(circles.shape)
    if not np.isfinite(vals).all():
        f0_ok = np.isfinite(f0)
        circle_ok = np.isfinite(fv).all(axis=2)
        finite = f0_ok & circle_ok.all(axis=1)
        for j in np.flatnonzero(~finite):
            out[j] = (_failure([zs[j]]) if not f0_ok[j]
                      else _failure(circles[j, int(np.argmin(circle_ok[j]))]))
        if not finite.any():
            return out
        ks = np.flatnonzero(finite).tolist()
        c, f0, fv = c[:, finite], f0[finite], fv[finite]
    c = c[:, :, None, None]
    theta = fv - f0[:, None, None]
    theta -= c[0] * _TAYLOR_W
    theta -= c[1] * np.conj(_TAYLOR_W)
    ratios = np.max(np.abs(theta), axis=2) / np.array(TAYLOR_RADII)
    floors = 1e-8 * np.maximum(1.0, np.max(np.abs(fv), axis=(1, 2)))
    reports = map(TaylorReport._make, zip(
        [zs[k] for k in ks], repeat(1), repeat(TAYLOR_RADII), map(tuple, ratios.tolist()),
        floors.tolist(), _taylor_passes(ratios, floors).tolist()))
    for k, rep in zip(ks, reports):
        out[k] = rep
    return out


def _taylor_passes(ratios: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Per row of (centre, radius) remainder ratios: every ratio is at most
    the centre's floor, or each ratio is at most max(0.9 x the one before,
    floor).  A NaN ratio fails both comparisons it takes part in."""
    floors = floors[:, None]
    return ((ratios <= floors).all(1)
            | (ratios[:, 1:] <= np.maximum(0.9 * ratios[:, :-1], floors)).all(1))


#: (index in (d2, ddbar, dbar2), name, square kind) in the square block's case order
_SECOND_ORDER = ((1, "ddbar", "zzbar"), (0, "d2", "z2"), (2, "dbar2", "zbar2"))


def _square_kind(nonzero) -> Optional[tuple]:
    """The entry of _SECOND_ORDER of the first of ddbar > d2 > dbar2 whose
    flag in ``nonzero`` (one per (d2, ddbar, dbar2)) is set; None when none
    is."""
    return next((case for case in _SECOND_ORDER if nonzero[case[0]]), None)


#: the refusal of a point that lacks the first-order pattern its block needs
_BLOCK_NEEDS = {"d": "identity block needs |d| > tol >= |dbar|",
                "dbar": "conjugation block needs |dbar| > tol >= |d|",
                "both": "pair block needs both derivatives nonzero"}


def point_row(spec: ActivationSpec, z0: complex, prof: ToleranceProfile,
              pattern: str) -> PointRow:
    """The row of one point z0, by the atlas's rules, for a block that needs
    the first-order ``pattern`` there ("d", "dbar" or "both"), or a square
    kind ("square"), the first of ddbar > d2 > dbar2 that is nonzero.
    Raises ConstructionError when z0 lacks it."""
    z0 = complex(z0)
    d, dbar, est = first_derivs(spec, z0, prof)
    row = PointRow(z0, complex(spec(np.array([z0]))[0]), d, dbar, est)
    if pattern != "square":
        if prof.pattern(d, dbar, est) != pattern:
            raise ConstructionError(
                f"{_BLOCK_NEEDS[pattern]} at z0={z0}: d={d:.3g}, dbar={dbar:.3g}")
        return row
    second = second_derivs(spec, z0, prof)
    found = _square_kind(prof.nonzero(np.array(second[:3]), second[3]))
    if found is None:
        raise ConstructionError(
            f"all second Wirtinger derivatives vanish at z0={z0} (locally R-affine): "
            "d2={:.3g}, ddbar={:.3g}, dbar2={:.3g}".format(*second))
    return row._replace(kind=found[2], second=second)


def _best(idx: np.ndarray, score: np.ndarray) -> int:
    """The point of idx with the largest score (one per point of idx)."""
    return int(idx[np.argmax(score)])


def _least_load(idx: np.ndarray, score: np.ndarray, load: np.ndarray) -> int:
    """The point of least load among those of idx whose score (one per point
    of idx) is within 2x of the best; load has one per point."""
    near = idx[score >= 0.5 * score.max()]
    return int(near[np.argmin(load[near])])


class ProbeAtlas:
    """Wirtinger data of one activation on the probe grid of one profile.

    Built once by ``probe_atlas`` as read-only columns over the non-excluded
    grid points whose first probe succeeds, in grid order: ``z0``, ``d``,
    ``dbar``, ``est`` (their error estimate) and ``codes``, the first-order
    pattern nonzero(d) + 2 nonzero(dbar).  Every rule that picks a probe
    point is a method here, scoring points by magnitude columns with ties to
    the first in grid order, so the classifier, the pipelines and the
    lowering read the same facts; the lowering's rules return the chosen
    point's row (``row``).  What is computed on first query is kept:
    f(z0) at every point in one activation call, the second probe per
    point, the Taylor verdicts of every candidate point in one batch, a
    failed probe as its ProbeFailed, and the points that pass.  The atlas of
    conj o f is that of the conjugate kept on f's spec, scanned on its own;
    conj o conj o f is f's spec, with f's own atlas.
    """

    def __init__(self, spec: ActivationSpec, prof: ToleranceProfile, firsts: list):
        self.spec = spec
        self.prof = prof
        self._firsts = firsts   # (z0, d, dbar, est) per point, as first_derivs gave them
        z0, d, dbar, est = np.array(firsts, dtype=np.complex128).reshape(-1, 4).T.copy()
        self.z0, self.d, self.dbar, self.est = z0, d, dbar, est.real
        self.codes = prof.nonzero(d, self.est) + 2 * prof.nonzero(dbar, self.est)
        for col in (z0, d, dbar, self.est, self.codes):
            col.flags.writeable = False
        self._mags = _mag(d), _mag(dbar)     # (|d|, |dbar|), the scores' columns
        # per point the second probe and the Taylor verdict, None until queried
        self._seconds = [None] * len(z0)
        self._verdicts = [None] * len(z0)

    def __len__(self) -> int:
        return len(self.z0)

    def first(self, i: int) -> tuple:
        """(z0, d, dbar, est_error) at point i."""
        return (complex(self.z0[i]), complex(self.d[i]), complex(self.dbar[i]),
                float(self.est[i]))

    def pattern(self, i: int) -> Optional[str]:
        """The first-order pattern at point i: "d", "dbar", "both" or None."""
        return _PATTERNS[self.codes[i]]

    @functools.cached_property
    def _f0(self) -> np.ndarray:
        """f(z0) at every point, from one call."""
        return self.spec(self.z0)

    def value(self, i: int) -> complex:
        """f(z0) at point i."""
        return complex(self._f0[i])

    def second(self, i: int) -> tuple:
        """(d2, ddbar, dbar2, est_error) at point i; raises ProbeFailed when
        the second-order probe fails there."""
        seconds = self._seconds
        if seconds[i] is None:
            try:
                seconds[i] = second_derivs(self.spec, complex(self.z0[i]), self.prof)
            except ProbeFailed as exc:
                seconds[i] = exc
        if isinstance(seconds[i], ProbeFailed):
            raise seconds[i].with_traceback(None)  # each raise would extend the kept one
        return seconds[i]

    def taylor_passed(self, i: int) -> bool:
        """First-order remainder probe verdict at point i; raises ProbeFailed
        when an evaluation of the probe is not finite there.  The first query
        probes, in one batch, point i and every point with a first-order
        pattern."""
        verdicts = self._verdicts
        if verdicts[i] is None:
            todo = [k for k, v in enumerate(verdicts) if v is None and (k == i or self.codes[k])]
            reports = taylor_remainder_probe(self.spec, self.z0[todo], self.d[todo],
                                             self.dbar[todo])
            for k, rep in zip(todo, reports):
                verdicts[k] = rep if isinstance(rep, ProbeFailed) else rep.passed
        if isinstance(verdicts[i], ProbeFailed):
            raise verdicts[i].with_traceback(None)
        return verdicts[i]

    def taylor_passing(self) -> list:
        """The points with a first-order pattern that pass the remainder
        probe, in grid order; raises the ProbeFailed of the first of them
        whose probe failed, as querying each in turn does.  Kept once every
        verdict is known."""
        return list(self._passing)

    @functools.cached_property
    def _passing(self) -> tuple:
        return tuple(i for i in np.flatnonzero(self.codes).tolist() if self.taylor_passed(i))

    def row(self, i: int, kind: Optional[str] = None) -> PointRow:
        """The row of point i, its derivatives as ``first_derivs`` gave them
        (a block's arithmetic then rounds as on a probe of its own); given
        its square kind, with its second derivatives."""
        z0, d, dbar, est = self._firsts[i]
        return PointRow(z0, self.value(i), d, dbar, est, kind,
                        None if kind is None else self.second(i))

    def probe(self, i: int) -> WirtingerProbe:
        """First- and second-order data at point i, as ``probe_point`` gives."""
        z0, d, dbar, e1 = self.first(i)
        d2, ddbar, dbar2, e2 = self.second(i)
        return WirtingerProbe(z0, d, dbar, d2, ddbar, dbar2, max(e1, e2))

    # -- point rules -------------------------------------------------------

    def _by_pattern(self) -> list:
        """(points, conditioning scores) per pattern "d", "dbar", "both",
        among the points that pass the first-order remainder probe
        (``taylor_passing``), in grid order: the score is |d|, |dbar| or
        min(|d|, |dbar|)."""
        ad, adb = self._mags
        passing = np.array(self.taylor_passing(), dtype=int)
        idxs = [passing[self.codes[passing] == code] for code in (1, 2, 3)]
        return [(idx, score[idx]) for idx, score in zip(idxs, (ad, adb, np.minimum(ad, adb)))]

    def pattern_points(self) -> tuple:
        """The row of the best point per first-order pattern among those that
        pass the first-order remainder probe: (lone d, lone dbar, both), each
        None when absent.

        Within 2x of the best conditioning score, the point with the least
        |f(z0)| wins: the activation magnitude at the localization point sets
        the cancellation load of every block built there.
        """
        return tuple(self.row(_least_load(idx, score, _mag(self._f0))) if idx.size
                     else None for idx, score in self._by_pattern())

    def pair_route(self):
        """The rows where a width-2 (z, conj z) block localizes: (z0,) at the
        "both" point of the best conditioning score when there is one, else
        (z_id, z_conj) at the best lone-d and the best lone-dbar point, each
        among the points that pass the first-order remainder probe.  Raises
        ConstructionError when either is missing."""
        lone_d, lone_db, both = self._by_pattern()
        if both[0].size:
            return (self.row(_best(*both)),)
        if not lone_d[0].size or not lone_db[0].size:
            raise ConstructionError(
                "no usable probe points for id/conj pair: among the points that pass "
                "the first-order remainder probe none has both derivatives nonzero, "
                "and there is no lone-d and lone-dbar pair; the activation appears "
                "holomorphic, antiholomorphic, R-affine or nowhere differentiable on "
                "the probe grid")
        return self.row(_best(*lone_d)), self.row(_best(*lone_db))

    def active_point(self) -> Optional[complex]:
        """The point maximizing max(|d|, |dbar|) among those that pass the
        first-order remainder probe; None when none does.  A point is probed
        only when it would beat the best one so far."""
        best, best_score = None, 0.0
        for i, score in enumerate(np.maximum(*self._mags).tolist()):
            if self.codes[i] and not score <= best_score and self.taylor_passed(i):
                best, best_score = complex(self.z0[i]), score
        return best

    def _second_kind(self):
        """(name, square kind, points, |value| at each) for the first of
        ddbar > d2 > dbar2 that is nonzero at some point whose second probe
        succeeds (``_square_kind``), over the points where it is nonzero;
        None in the R-affine case."""
        idx, seconds = [], []
        for i in range(len(self)):
            try:
                seconds.append(self.second(i))
            except ProbeFailed:
                continue
            idx.append(i)
        if not seconds:
            return None
        cols = np.array(seconds, dtype=np.complex128)
        nonzero = self.prof.nonzero(cols[:, :3], cols[:, 3:].real)
        found = _square_kind(nonzero.any(axis=0))
        if found is None:
            return None
        k, name, which = found
        at = nonzero[:, k]
        return name, which, np.array(idx)[at], _mag(cols[at, k])

    def square_point(self) -> Optional[PointRow]:
        """The row of the square block's point, with its kind, or None when
        every second derivative vanishes (R-affine).

        Among points whose value of that derivative is within 2x of the
        best, the least |f(z0)| + |d| + |dbar| wins: the inner register
        expansion carries partial sums driven by those loads.
        """
        found = self._second_kind()
        if found is None:
            return None
        _, which, idx, mags = found
        load = _mag(self._f0) + self._mags[0] + self._mags[1]
        return self.row(_least_load(idx, mags, load), which)

    def nonzero_second_point(self):
        """(z0, which) with which the first of ddbar > d2 > dbar2 that is
        nonzero somewhere, at the point of its largest magnitude; None in the
        R-affine case."""
        found = self._second_kind()
        if found is None:
            return None
        name, _, idx, mags = found
        return complex(self.z0[_best(idx, mags)]), name

    # -- structural heuristics ---------------------------------------------

    def negative_verdict(self) -> Optional[tuple]:
        """(verdict, evidence) when the grid holds no evidence that an
        activation without class flags is universal; None when it does, and
        for a flagged activation or an empty grid.  Computed on first call
        and kept.

        No nonzero first derivative gives Inconclusive; nonzero derivatives
        all of pattern "d" (all "dbar") give NonUniversalHolomorphic
        (NonUniversalAntiholomorphic); second derivatives vanishing at every
        point give NonUniversalRAffine, a check that stops at the first point
        whose second probe fails or is nonzero."""
        return self._negative

    @functools.cached_property
    def _negative(self) -> Optional[tuple]:
        codes = set(self.codes.tolist())
        if self.spec.class_flags or not codes:
            return None
        if codes == {0}:
            verdict, why = "Inconclusive", "no nonzero first derivative"
        elif codes <= {0, 1}:
            verdict, why = "NonUniversalHolomorphic", "heuristic: no nonzero dbar"
        elif codes <= {0, 2}:
            verdict, why = "NonUniversalAntiholomorphic", "heuristic: no nonzero d"
        else:
            for i in range(len(self)):
                try:
                    second = self.second(i)
                except ProbeFailed:
                    return None
                if self.prof.nonzero(np.array(second[:3]), second[3]).any():
                    return None
            verdict, why = "NonUniversalRAffine", "heuristic: no nonzero second Wirtinger derivative"
        return verdict, (f"{why} at the {len(self)} grid points of the probe box "
                         f"{_box_text(self.prof.probe_box)}")


def _box_text(box: CompactBox) -> str:
    return " x ".join(f"[{a:g}, {b:g}] + i[{c:g}, {d:g}]" for a, b, c, d in box.intervals)


def _doubled(box: CompactBox) -> CompactBox:
    """The box with every interval twice as long, about the same centre."""
    grow = lambda lo, hi: (1.5 * lo - 0.5 * hi, 1.5 * hi - 0.5 * lo)
    return CompactBox(tuple(grow(a, b) + grow(c, d) for a, b, c, d in box.intervals))


def _scan(spec: ActivationSpec, prof: ToleranceProfile) -> ProbeAtlas:
    for growth in range(PROBE_BOX_GROWTHS + 1):
        if growth:
            prof = dataclasses.replace(prof, probe_box=_doubled(prof.probe_box))
        rows = []
        # one first_derivs call per point: the traced benchmark counts them
        for z0 in sample_box(prof.probe_box, prof.probe_grid)[:, 0].tolist():
            if spec.is_excluded(z0):
                continue
            try:
                rows.append((z0, *first_derivs(spec, z0, prof)))
            except ProbeFailed:
                continue
        atlas = ProbeAtlas(spec, prof, rows)
        if atlas.negative_verdict() is None:
            break
    return atlas


def probe_atlas(spec: ActivationSpec, prof: ToleranceProfile = ToleranceProfile()) -> ProbeAtlas:
    """The probe atlas of (spec, prof), scanned on first request.

    While the grid holds no evidence of universality
    (``ProbeAtlas.negative_verdict``), the probe box is doubled about its
    centre and scanned again, up to PROBE_BOX_GROWTHS times: a verdict
    against universality drawn from a finite box must not hide a region
    where the activation is universal.  The atlas of the last box scanned
    is returned; its ``prof`` holds that box, so the classifier and the
    lowering read the same points.

    The atlas is kept on the spec, per profile, for as long as the spec
    lives (``ActivationSpec.derived``): a shared spec of ``get_activation``
    serves every later lookup of the same name and parameters, and the
    conjugate kept on a spec (``conjugate_activation``) serves every later
    conjugation of it, while a spec made by ``custom_activation``,
    ``scale_activation`` or ``dataclasses.replace`` is scanned anew.
    """
    return spec.derived(("atlas", prof), lambda: _scan(spec, prof))


def find_active_point(spec: ActivationSpec, prof: ToleranceProfile = ToleranceProfile()) -> Optional[complex]:
    """Scan the probe grid for a point of real differentiability with
    non-vanishing derivative; returns the one maximizing max(|d|, |dbar|),
    or None when every candidate fails the remainder probe."""
    return probe_atlas(spec, prof).active_point()


def find_nonzero_second_point(spec: ActivationSpec, prof: ToleranceProfile = ToleranceProfile()):
    """Grid search for a nonzero second Wirtinger derivative.

    Preference order ddbar > d2 > dbar2 mirrors the square-block case order,
    so the mixed product (and hence mul2) is chosen whenever available.
    Returns (z0, which) or None (the R-affine case).
    """
    return probe_atlas(spec, prof).nonzero_second_point()


VERDICTS = (
    "NonUniversalHolomorphic",
    "NonUniversalAntiholomorphic",
    "NonUniversalRAffine",
    "Inconclusive",
    "UniversalNonPoly_NMplus1",
    "UniversalNonPoly_2N2Mplus1",
    "UniversalPoly_NMplus4",
    "UniversalPoly_2N2Mplus5",
)


@dataclass(frozen=True)
class Classification:
    verdict: str
    witness_point: Optional[complex]
    evidence: str
    witness_probe: Optional[WirtingerProbe] = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict.startswith("Universal") and self.witness_point is None:
            raise ValueError("Universal verdicts require a witness point")

    def to_json_dict(self, prof: ToleranceProfile = ToleranceProfile()) -> dict:
        w, p = self.witness_point, self.witness_probe
        probes = [] if p is None else [
            dict({k: _c2l(getattr(p, k)) for k in ("z0", "d", "dbar", "d2", "ddbar", "dbar2")},
                 est_error=p.est_error)]
        return {
            "verdict": self.verdict,
            "witness": None if w is None else _c2l(w),
            "evidence": self.evidence,
            "probes": probes,
            "tolerances": {
                "zero_tol": prof.zero_tol,
                "fd_step": prof.fd_step,
                "richardson_levels": RICHARDSON_LEVELS,
                "polyharmonic_max_order": POLYHARMONIC_MAX_ORDER,
            },
        }


def _is_polyharmonic(spec: ActivationSpec, prof: ToleranceProfile,
                     sample_points) -> tuple:
    """(is_polyharmonic, evidence string).  Analytic flag wins; the stencil
    heuristic only runs for unflagged activations."""
    if spec.poly_flag is not None:
        tag = "analytic flag"
        if spec.poly_flag.is_polyharmonic:
            return True, f"{tag}: polyharmonic of order {spec.poly_flag.order}"
        return False, f"{tag}: non-polyharmonic"
    pts = sample_points[: min(5, len(sample_points))]
    for order in range(1, POLYHARMONIC_MAX_ORDER + 1):
        ests = [laplacian_iterate(spec, z0, order) for z0 in pts]
        tol = max(prof.zero_tol, 10 * max(e.noise_floor for e in ests))
        if all(abs(e.value) <= tol for e in ests):
            return True, f"heuristic: laplacian^{order} ~ 0 at {len(pts)} probe points"
    return False, (
        f"heuristic: no vanishing iterated laplacian up to order {POLYHARMONIC_MAX_ORDER}"
    )


def classify_activation(spec: ActivationSpec,
                        prof: ToleranceProfile = ToleranceProfile()) -> Classification:
    """Full decision tree.  The verdict depends on the activation alone; the
    widths its name quotes are formulas in the dimensions n and m of the
    networks C^n -> C^m.  It is kept on the spec, as the atlas is: every
    call on one spec and profile returns one Classification."""
    return spec.derived(("classification", prof), lambda: _classify(spec, prof))


def _classify(spec: ActivationSpec, prof: ToleranceProfile) -> Classification:
    flags = spec.class_flags
    for flag, verdict in (
        ("holomorphic", "NonUniversalHolomorphic"),
        ("antiholomorphic", "NonUniversalAntiholomorphic"),
        ("r_affine", "NonUniversalRAffine"),
    ):
        if flag in flags:
            return Classification(verdict, None, f"analytic flag: {flag}")

    atlas = probe_atlas(spec, prof)
    negative = atlas.negative_verdict()
    if negative is not None:
        return Classification(negative[0], None, negative[1])
    # differentiable points with nonzero derivative
    passing = np.array(atlas.taylor_passing(), dtype=int)
    if not passing.size:
        return Classification("Inconclusive", None,
                              "no probe point is real differentiable with nonzero derivative")
    lone = passing[atlas.codes[passing] != 3]
    poly, poly_ev = _is_polyharmonic(spec, prof, atlas.z0[passing].tolist())
    ad, adb = atlas._mags
    if lone.size:
        i = lone[np.argmax(np.maximum(ad, adb)[lone])]
        verdict = "UniversalPoly_NMplus4" if poly else "UniversalNonPoly_NMplus1"
        why = f"lone nonzero {atlas.pattern(i)}"
    else:
        i = passing[np.argmax(np.minimum(ad, adb)[passing])]
        verdict = "UniversalPoly_2N2Mplus5" if poly else "UniversalNonPoly_2N2Mplus1"
        why = "both derivatives nonzero"
    z0, d, dbar, _ = atlas.first(i)
    ev = f"{why} at {z0}: d={d:.6g}, dbar={dbar:.6g}; {poly_ev}"
    return Classification(verdict, z0, ev, atlas.probe(i))
