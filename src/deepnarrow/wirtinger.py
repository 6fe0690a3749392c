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

Each probe stage is one activation call: ``wirt_first`` and ``wirt_second``
evaluate all their stencil points at once, and the Taylor probe of every
candidate point of an atlas is one batch.  A classification of cardioid
(closed-form first derivatives only) thus makes three activation calls: two
second probes (the R-affine check, the witness) and one Taylor batch.  The
atlas scan calls ``first_derivs`` once per grid point rather than once per
grid, because the benchmark's tracer counts probes by that name.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .activations import ActivationSpec
from .core import CompactBox, GridSpec, sample_box
from .errors import ProbeFailed

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


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy for all probes.

    fd_step is the relative first-order step (the actual step is
    fd_step * max(1, |z0|)); second-order stencils use sqrt(fd_step) since
    their roundoff grows like eps/h^2.  zero_tol is the least nonzero
    threshold applied after Richardson extrapolation, by ``nonzero`` alone.
    """

    zero_tol: float = 1e-6
    fd_step: float = 1e-5
    probe_box: CompactBox = _DEFAULT_BOX
    probe_grid: GridSpec = _DEFAULT_GRID

    def __post_init__(self):
        if not (0 < self.zero_tol < np.inf and 0 < self.fd_step < np.inf):
            raise ValueError(f"tolerances must be positive and finite, got zero_tol="
                             f"{self.zero_tol!r}, fd_step={self.fd_step!r}")

    def nonzero(self, v, est):
        """Whether the derivative estimate v, with error estimate est, counts
        as nonzero: |v| > max(zero_tol, 3 est).  v and est may be arrays,
        which broadcast.  |v| is hypot of the parts, as abs of a complex
        scalar is, and a NaN 3 est leaves zero_tol, as Python's max does."""
        v = np.asarray(v)
        return np.hypot(v.real, v.imag) > np.fmax(self.zero_tol, 3 * np.asarray(est))

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


def _eval_scalar(spec: ActivationSpec, pts) -> np.ndarray:
    out = spec(pts)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise _failure(pts)
    return out


def wirt_first(spec: ActivationSpec, z0: complex, prof: ToleranceProfile = ToleranceProfile()):
    """Numerical first Wirtinger derivatives at z0.

    Returns (d, dbar, est_error): central differences on the two real
    partials, Richardson-extrapolated, mapped through d = (Dx - i Dy)/2,
    dbar = (Dx + i Dy)/2.
    """
    z0 = complex(z0)
    h0 = prof.fd_step * max(1.0, abs(z0))
    hs = (h0, h0 / 2.0)
    pts = []
    for h in hs:
        pts.extend([z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h])
    vals = _eval_scalar(spec, pts)
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
    groups = [[z0]] + [[z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h, z0 + h + 1j * h,
                        z0 + h - 1j * h, z0 - h + 1j * h, z0 - h - 1j * h] for h in hs]
    vals = spec(groups[0] + groups[1] + groups[2])
    finite = np.isfinite(vals)
    if not finite.all():
        # value 0 is f(z0), values 1-8 step h, values 9-16 step h/2
        raise _failure(groups[(int(np.argmin(finite)) + 7) // 8])
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


def laplacian_iterate(spec: ActivationSpec, z0: complex, order: int,
                      prof: ToleranceProfile = ToleranceProfile()) -> LaplacianEstimate:
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
    vals = spec(leaves)
    finite = np.isfinite(vals)
    if not finite.all():
        raise _failure([leaves[int(np.argmin(finite))]])
    stream = iter(vals)

    def rec(k):
        # consumes the leaves in the order ``collect`` listed them
        if k == 0:
            return next(stream)
        return (rec(k - 1) + rec(k - 1) + rec(k - 1) + rec(k - 1) - 4 * rec(k - 1)) / h**2

    value = rec(order)
    # np.hypot of the parts is abs() of each value bit for bit; np.abs of a
    # complex array may differ from it in the last bit
    fscale = max(1.0, float(np.max(np.hypot(vals.real, vals.imag))))
    noise = 5.0**order * _EPS * fscale / h ** (2 * order)
    return LaplacianEstimate(complex(value), float(noise), bool(abs(value) > 10 * noise))


def taylor_remainder_probe(spec: ActivationSpec, z0, order: int,
                           prof: ToleranceProfile = ToleranceProfile(), d=None, dbar=None):
    """Check that the Taylor remainder of the given order actually vanishes.

    Evaluates Theta_k(w) = f(z0+w) - Taylor_k(w) on shrinking circles |w| = r
    and reports max |Theta_k| / r^k per radius.  Differentiability shows up
    as a decreasing ratio sequence; a ratio sequence that stalls or grows
    marks a point where the expansion is invalid.

    A scalar z0 gives one TaylorReport and raises ProbeFailed when an
    evaluation is not finite.  A 1-D array of centres gives a list with one
    entry per centre: its report, or the ProbeFailed that centre alone would
    raise, returned rather than raised.  Either way the activation is called
    once, on every f(z0) and every circle point, and each centre's arithmetic
    is that of a lone call.  ``d`` and ``dbar`` (scalars or arrays like z0)
    are the first derivatives when the caller holds them; otherwise they
    come from ``first_derivs``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if np.ndim(z0) == 0:
        out = _taylor_batch(spec, np.array([complex(z0)]), order, prof,
                            None if d is None else [d], None if dbar is None else [dbar])[0]
        if isinstance(out, ProbeFailed):
            raise out
        return out
    centres = np.asarray(z0, dtype=np.complex128)
    if centres.ndim != 1:
        raise ValueError("z0 must be a scalar or a 1-D array of centres")
    return _taylor_batch(spec, centres, order, prof, d, dbar)


#: circle offsets w of the Taylor-remainder probe, (radius, angle), their
#: conjugates, their squares, and r**order per radius
_TAYLOR_W = np.stack([r * np.exp(2j * np.pi * np.arange(TAYLOR_POINTS_PER_CIRCLE)
                                 / TAYLOR_POINTS_PER_CIRCLE) for r in TAYLOR_RADII])
_TAYLOR_WC = np.conj(_TAYLOR_W)
_TAYLOR_W2, _TAYLOR_WC2 = _TAYLOR_W**2, _TAYLOR_WC**2
_TAYLOR_R_POW = {k: np.array([r**k for r in TAYLOR_RADII]) for k in (1, 2)}


def _taylor_batch(spec: ActivationSpec, centres: np.ndarray, order: int, prof: ToleranceProfile,
                  d, dbar) -> list:
    zs = centres.tolist()
    out = [None] * len(zs)
    if d is not None and order == 1:
        live, c = np.arange(len(zs)), np.array([d, dbar], dtype=np.complex128)
    else:
        live, coefs = [], []
        for k, z in enumerate(zs):
            try:
                dk, dbk = (d[k], dbar[k]) if d is not None else first_derivs(spec, z, prof)[:2]
                if order == 2:
                    d2, ddbar, dbar2, _ = second_derivs(spec, z, prof)
                    # grouped as a lone call groups 0.5 * d2 * w**2
                    coefs.append((dk, dbk, 0.5 * d2, ddbar, 0.5 * dbar2))
                else:
                    coefs.append((dk, dbk))
            except ProbeFailed as exc:
                out[k] = exc
                continue
            live.append(k)
        if not live:
            return out
        # (coefficient, centre)
        live, c = np.array(live), np.array(coefs, dtype=np.complex128).T
    z = centres[live]
    circles = z[:, None, None] + _TAYLOR_W                          # (centre, radius, angle)
    vals = spec(np.concatenate([z, circles.ravel()]))
    f0, fv = vals[: len(z)], vals[len(z):].reshape(circles.shape)
    if not np.isfinite(vals).all():
        f0_ok = np.isfinite(f0)
        circle_ok = np.isfinite(fv).all(axis=2)
        finite = f0_ok & circle_ok.all(axis=1)
        for j in np.flatnonzero(~finite):
            out[live[j]] = (_failure([zs[live[j]]]) if not f0_ok[j]
                            else _failure(circles[j, int(np.argmin(circle_ok[j]))]))
        if not finite.any():
            return out
        live, c, f0, fv = live[finite], c[:, finite], f0[finite], fv[finite]
    c = c[:, :, None, None]
    theta = fv - f0[:, None, None]
    theta -= c[0] * _TAYLOR_W
    theta -= c[1] * _TAYLOR_WC
    if order == 2:
        theta -= c[2] * _TAYLOR_W2
        theta -= c[3] * _TAYLOR_W * _TAYLOR_WC
        theta -= c[4] * _TAYLOR_WC2
    ratios = np.max(np.abs(theta), axis=2) / _TAYLOR_R_POW[order]
    floors = 1e-8 * np.maximum(1.0, np.max(np.abs(fv), axis=(1, 2)))
    ks = live.tolist()
    reports = map(TaylorReport._make, zip(
        [zs[k] for k in ks], repeat(order), repeat(TAYLOR_RADII), map(tuple, ratios.tolist()),
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


class _Probes:
    """Probe data on the grid points of one scan, shared by an atlas and its
    conjugated view.  ``rows`` holds (z0, d, dbar, est) per point in grid
    order, as ``first_derivs`` gave them, and ``z0``, ``d``, ``dbar`` and
    ``est`` its columns; ``f0``, ``second`` and ``taylor`` hold per point
    f(z0), the second-order probe and the first-order remainder verdict,
    each filled on first query (a failed probe as its ProbeFailed message)."""

    __slots__ = ("rows", "z0", "d", "dbar", "est", "f0", "second", "taylor")

    def __init__(self, rows: tuple):
        self.rows = rows
        self.z0, self.d, self.dbar, self.est = tuple(zip(*rows)) or ((),) * 4
        self.f0, self.second, self.taylor = ([None] * len(rows) for _ in range(3))


#: (index in (d2, ddbar, dbar2), name, square kind) in the square block's case order
_SECOND_ORDER = ((1, "ddbar", "zzbar"), (0, "d2", "z2"), (2, "dbar2", "zbar2"))


class ProbeAtlas:
    """Wirtinger data of one activation on the probe grid of one profile.

    Built once by ``probe_atlas``: one scan keeps, for every non-excluded
    grid point whose first probe succeeds, z0, d, dbar and the error
    estimate, in grid order.  f(z0) and second derivatives are evaluated per
    point on first query and kept (a classification needs no f(z0)); the
    first Taylor query probes every candidate point in one batch.  Every
    rule that picks a probe point is a method here, so the classifier, the
    pipelines and the lowering read the same facts.

    A view builds its (z0, d, dbar, est) rows and the first-order pattern of
    every row, in one pass of ``ToleranceProfile.nonzero`` over the columns,
    when it is made; every rule reads those.  ``conjugated()`` is the view
    of conj o f without a rescan: its columns are swapped and conjugated
    (d(conj f) = conj(dbar f), f -> conj f), which finite differences
    reproduce exactly up to the sign of zeros.
    """

    def __init__(self, spec: ActivationSpec, prof: ToleranceProfile, probes: _Probes,
                 conj: bool = False):
        self.spec = spec
        self.prof = prof
        self._probes = probes
        self._conj = conj
        rows, d, dbar = probes.rows, probes.d, probes.dbar
        if conj:
            d, dbar = [v.conjugate() for v in dbar], [v.conjugate() for v in d]
            rows = tuple(zip(probes.z0, d, dbar, probes.est))
        self._rows = rows
        est = np.array(probes.est, dtype=np.float64)
        codes = (prof.nonzero(np.array(d, dtype=np.complex128), est)
                 + 2 * prof.nonzero(np.array(dbar, dtype=np.complex128), est))
        self._patterns = tuple(_PATTERNS[c] for c in codes.tolist())

    def __len__(self) -> int:
        return len(self._rows)

    def conjugated(self) -> "ProbeAtlas":
        """The atlas of conj o spec, sharing this one's points and lazy data."""
        return ProbeAtlas(self.spec, self.prof, self._probes, not self._conj)

    def first(self, i: int) -> tuple:
        """(z0, d, dbar, est_error) at point i."""
        return self._rows[i]

    def pattern(self, i: int) -> Optional[str]:
        """The first-order pattern at point i: "d", "dbar", "both" or None."""
        return self._patterns[i]

    def value(self, i: int) -> complex:
        """f(z0) at point i."""
        p = self._probes
        if p.f0[i] is None:
            p.f0[i] = complex(self.spec(np.array([p.z0[i]]))[0])
        return p.f0[i].conjugate() if self._conj else p.f0[i]

    def second(self, i: int) -> tuple:
        """(d2, ddbar, dbar2, est_error) at point i; raises ProbeFailed when
        the second-order probe fails there."""
        p = self._probes
        if p.second[i] is None:
            try:
                p.second[i] = second_derivs(self.spec, p.z0[i], self.prof)
            except ProbeFailed as exc:
                p.second[i] = str(exc)
        if isinstance(p.second[i], str):
            raise ProbeFailed(p.second[i])
        d2, ddbar, dbar2, est = p.second[i]
        if self._conj:
            return dbar2.conjugate(), ddbar.conjugate(), d2.conjugate(), est
        return d2, ddbar, dbar2, est

    def _taylor(self, i: int) -> list:
        """The first-order remainder verdicts, point i's filled (the remainder
        of conj o f is the conjugate of that of f).  The first query probes,
        in one batch, point i and every point with a first-order pattern,
        with the d and dbar of the scan."""
        p = self._probes
        if p.taylor[i] is None:
            todo = [k for k, pat in enumerate(self._patterns)
                    if p.taylor[k] is None and (k == i or pat is not None)]
            reports = taylor_remainder_probe(
                self.spec, np.array([p.z0[k] for k in todo]), 1, self.prof,
                d=np.array([p.d[k] for k in todo]), dbar=np.array([p.dbar[k] for k in todo]))
            for k, rep in zip(todo, reports):
                p.taylor[k] = str(rep) if isinstance(rep, ProbeFailed) else rep.passed
        return p.taylor

    def taylor_passed(self, i: int) -> bool:
        """First-order remainder probe verdict at point i; raises ProbeFailed
        when an evaluation of the probe is not finite there.  A failure is
        kept and raised only when its point is queried."""
        verdict = self._taylor(i)[i]
        if isinstance(verdict, str):
            raise ProbeFailed(verdict)
        return verdict

    def taylor_passing(self) -> list:
        """The points with a first-order pattern that pass the remainder
        probe, in grid order; raises the ProbeFailed of the first of them
        whose probe failed, as querying each in turn does."""
        todo = [i for i, pat in enumerate(self._patterns) if pat is not None]
        if not todo:
            return []
        verdicts = self._taylor(todo[0])
        for i in todo:
            if isinstance(verdicts[i], str):
                raise ProbeFailed(verdicts[i])
        return [i for i in todo if verdicts[i]]

    def probe(self, i: int) -> WirtingerProbe:
        """First- and second-order data at point i, as ``probe_point`` gives."""
        z0, d, dbar, e1 = self.first(i)
        d2, ddbar, dbar2, e2 = self.second(i)
        return WirtingerProbe(z0, d, dbar, d2, ddbar, dbar2, max(e1, e2))

    # -- point rules -------------------------------------------------------

    def _by_pattern(self) -> dict:
        """Pattern -> [(i, conditioning score)] in grid order; the score is
        |d|, |dbar| or min(|d|, |dbar|) for "d", "dbar" and "both"."""
        out = {"d": [], "dbar": [], "both": []}
        for i, (_, d, dbar, _) in enumerate(self._rows):
            pat = self._patterns[i]
            if pat is not None:
                score = min(abs(d), abs(dbar)) if pat == "both" else abs(d if pat == "d" else dbar)
                out[pat].append((i, score))
        return out

    def _least_load(self, scored, load) -> complex:
        """z0 of the least load(i) among the (i, score) within 2x of the best
        score."""
        best = max(s for _, s in scored)
        return self._rows[min((i for i, s in scored if s >= 0.5 * best), key=load)][0]

    def pattern_points(self) -> tuple:
        """Best point per first-order pattern: (lone d, lone dbar, both), each
        None when absent.

        Within 2x of the best conditioning score, the point with the least
        |f(z0)| wins: the activation magnitude at the localization point sets
        the cancellation load of every block built there.
        """
        groups = self._by_pattern()
        mag = lambda i: abs(self.value(i))
        return tuple(self._least_load(groups[p], mag) if groups[p] else None
                     for p in ("d", "dbar", "both"))

    def pair_route(self):
        """Where a width-2 (z, conj z) block localizes: (z0,) at the "both"
        point of the best conditioning score when there is one, else (z_id,
        z_conj) at the best lone-d and the best lone-dbar point; None when
        either is missing."""
        groups = self._by_pattern()
        best = lambda group: self._rows[max(group, key=lambda t: t[1])[0]][0]
        if groups["both"]:
            return (best(groups["both"]),)
        if not groups["d"] or not groups["dbar"]:
            return None
        return best(groups["d"]), best(groups["dbar"])

    def active_point(self) -> Optional[complex]:
        """The point maximizing max(|d|, |dbar|) among those that pass the
        first-order remainder probe; None when none does.  A point is probed
        only when it would beat the best one so far."""
        best, best_score = None, 0.0
        for i, (z0, d, dbar, _) in enumerate(self._rows):
            score = max(abs(d), abs(dbar))
            if self._patterns[i] is None or score <= best_score:
                continue
            if self.taylor_passed(i):
                best, best_score = z0, score
        return best

    def _second_kind(self):
        """(name, square kind, [(i, |value|)] over the points whose second
        probe succeeds) for the first of ddbar > d2 > dbar2 that is nonzero
        somewhere, the order of the square block's cases; None in the
        R-affine case."""
        seconds = []
        for i in range(len(self)):
            try:
                seconds.append((i, self.second(i)))
            except ProbeFailed:
                continue
        if not seconds:
            return None
        cols = np.array([s for _, s in seconds], dtype=np.complex128)
        anywhere = self.prof.nonzero(cols[:, :3], cols[:, 3:].real).any(axis=0)
        for k, name, which in _SECOND_ORDER:
            if anywhere[k]:
                return name, which, [(i, abs(s[k])) for i, s in seconds]
        return None

    def square_point(self):
        """(z0, which) for the square block, which in {"zzbar", "z2",
        "zbar2"}, or None when every second derivative vanishes (R-affine).

        Among points whose value of that derivative is within 2x of the
        best, the least |f(z0)| + |d| + |dbar| wins: the inner register
        expansion carries partial sums driven by those loads.
        """
        found = self._second_kind()
        if found is None:
            return None
        _, which, vals = found
        load = lambda i: abs(self.value(i)) + abs(self._rows[i][1]) + abs(self._rows[i][2])
        return self._least_load(vals, load), which

    def nonzero_second_point(self):
        """(z0, which) with which the first of ddbar > d2 > dbar2 that is
        nonzero somewhere, at the point of its largest magnitude; None in the
        R-affine case."""
        found = self._second_kind()
        if found is None:
            return None
        name, _, vals = found
        return self._rows[max(vals, key=lambda t: t[1])[0]][0], name

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
        pats = set(self._patterns)
        if self.spec.class_flags or not pats:
            return None
        if pats == {None}:
            verdict, why = "Inconclusive", "no nonzero first derivative"
        elif pats <= {None, "d"}:
            verdict, why = "NonUniversalHolomorphic", "heuristic: no nonzero dbar"
        elif pats <= {None, "dbar"}:
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


@functools.lru_cache(maxsize=8)
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
        atlas = ProbeAtlas(spec, prof, _Probes(tuple(rows)))
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

    The memo is keyed by value; specs compare their callables by identity,
    so every ``get_activation`` call makes a new key while one spec shared
    by a classification and a pipeline shares one atlas.  The 8 most
    recently used atlases are kept.
    """
    return _scan(spec, prof)


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
        w = self.witness_point
        probes = []
        if self.witness_probe is not None:
            p = self.witness_probe
            probes.append({
                "z0": [p.z0.real, p.z0.imag],
                "d": [p.d.real, p.d.imag],
                "dbar": [p.dbar.real, p.dbar.imag],
                "d2": [p.d2.real, p.d2.imag],
                "ddbar": [p.ddbar.real, p.ddbar.imag],
                "dbar2": [p.dbar2.real, p.dbar2.imag],
                "est_error": p.est_error,
            })
        return {
            "verdict": self.verdict,
            "witness": None if w is None else [w.real, w.imag],
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
        ests = [laplacian_iterate(spec, z0, order, prof) for z0 in pts]
        tol = max(prof.zero_tol, 10 * max(e.noise_floor for e in ests))
        if all(abs(e.value) <= tol for e in ests):
            return True, f"heuristic: laplacian^{order} ~ 0 at {len(pts)} probe points"
    return False, (
        f"heuristic: no vanishing iterated laplacian up to order {POLYHARMONIC_MAX_ORDER}"
    )


def classify_activation(spec: ActivationSpec, n: int = 1, m: int = 1,
                        prof: ToleranceProfile = ToleranceProfile()) -> Classification:
    """Full decision tree.  The width numbers quoted in the verdicts refer to
    the sufficient hidden width for networks C^n -> C^m; the verdict itself
    depends on the activation alone, and ``n`` and ``m`` are not read."""
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
    # differentiable point with nonzero derivative
    passing = atlas.taylor_passing()
    if not passing:
        return Classification(
            "Inconclusive", None,
            "no probe point is real differentiable with nonzero derivative")

    rows = {i: atlas.first(i) for i in passing}
    lone = [i for i in passing if atlas.pattern(i) != "both"]
    poly, poly_ev = _is_polyharmonic(spec, prof, [rows[i][0] for i in passing])

    if lone:
        i = max(lone, key=lambda i: max(abs(rows[i][1]), abs(rows[i][2])))
        z0, d, dbar, _ = rows[i]
        verdict = "UniversalPoly_NMplus4" if poly else "UniversalNonPoly_NMplus1"
        ev = (f"lone nonzero {atlas.pattern(i)} at {z0}: d={d:.6g}, dbar={dbar:.6g}; {poly_ev}")
    else:
        i = max(passing, key=lambda i: min(abs(rows[i][1]), abs(rows[i][2])))
        z0, d, dbar, _ = rows[i]
        verdict = "UniversalPoly_2N2Mplus5" if poly else "UniversalNonPoly_2N2Mplus1"
        ev = (f"both derivatives nonzero at {z0}: d={d:.6g}, dbar={dbar:.6g}; {poly_ev}")
    return Classification(verdict, z0, ev, atlas.probe(i))
