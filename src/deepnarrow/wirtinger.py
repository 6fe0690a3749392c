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
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

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
        if min(self.zero_tol, self.fd_step) <= 0:
            raise ValueError("tolerances must be positive")

    def nonzero(self, v, est: float) -> bool:
        """Whether the derivative estimate v, with error estimate est, counts
        as nonzero: |v| > max(zero_tol, 3 est)."""
        return abs(v) > max(self.zero_tol, 3 * est)

    def pattern(self, d, dbar, est: float) -> Optional[str]:
        """The first-order pattern at a point, est the error estimate of d
        and dbar: "d" or "dbar" when only that derivative is nonzero, "both"
        when both are, None when neither is."""
        if self.nonzero(d, est):
            return "both" if self.nonzero(dbar, est) else "d"
        return "dbar" if self.nonzero(dbar, est) else None


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


@dataclass(frozen=True)
class TaylorReport:
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
    [[1,-2i,-1],[1,0,1],[1,2i,-1]].
    """
    z0 = complex(z0)
    h0 = np.sqrt(prof.fd_step) * max(1.0, abs(z0))
    hs = (h0, h0 / 2.0)
    f0 = _eval_scalar(spec, [z0])[0]
    xx_s, yy_s, xy_s = [], [], []
    fscale = max(1.0, abs(f0))
    for h in hs:
        pts = [z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h,
               z0 + h + 1j * h, z0 + h - 1j * h, z0 - h + 1j * h, z0 - h - 1j * h]
        v = _eval_scalar(spec, pts)
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
        out = _taylor_batch(spec, [complex(z0)], order, prof,
                            None if d is None else [d], None if dbar is None else [dbar])[0]
        if isinstance(out, ProbeFailed):
            raise out
        return out
    centres = np.asarray(z0, dtype=np.complex128)
    if centres.ndim != 1:
        raise ValueError("z0 must be a scalar or a 1-D array of centres")
    return _taylor_batch(spec, [complex(z) for z in centres], order, prof, d, dbar)


def _taylor_batch(spec: ActivationSpec, zs: list, order: int, prof: ToleranceProfile,
                  d, dbar) -> list:
    out = [None] * len(zs)
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
    radii = TAYLOR_RADII
    angles = np.exp(2j * np.pi * np.arange(TAYLOR_POINTS_PER_CIRCLE) / TAYLOR_POINTS_PER_CIRCLE)
    w = np.stack([r * angles for r in radii])                       # (radius, angle)
    z = np.array([zs[k] for k in live])
    circles = z[:, None, None] + w                                  # (centre, radius, angle)
    vals = spec(np.concatenate([z, circles.ravel()]))
    f0, fv = vals[: len(z)], vals[len(z):].reshape(circles.shape)
    f0_ok = np.isfinite(f0)
    circle_ok = np.isfinite(fv).all(axis=2)
    finite = f0_ok & circle_ok.all(axis=1)
    for j in np.flatnonzero(~finite):
        k = live[j]
        out[k] = (_failure([zs[k]]) if not f0_ok[j]
                  else _failure(circles[j, int(np.argmin(circle_ok[j]))]))
    good = np.flatnonzero(finite)
    if not good.size:
        return out
    c = np.array([coefs[j] for j in good], dtype=np.complex128).T[:, :, None, None]
    fv, wc = fv[good], np.conj(w)
    theta = fv - f0[good][:, None, None] - c[0] * w - c[1] * wc
    if order == 2:
        theta = theta - c[2] * w**2 - c[3] * w * wc - c[4] * wc**2
    ratios = np.max(np.abs(theta), axis=2) / np.array([r**order for r in radii])
    floors = 1e-8 * np.maximum(1.0, np.max(np.abs(fv), axis=(1, 2)))
    passed = _taylor_passes(ratios, floors)
    for j, rts, floor, ok in zip(good, ratios.tolist(), floors.tolist(), passed.tolist()):
        out[live[j]] = TaylorReport(zs[live[j]], order, tuple(radii), tuple(rts), floor, ok)
    return out


def _taylor_passes(ratios: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Per row of (centre, radius) remainder ratios: every ratio is at most
    the centre's floor, or each ratio is at most max(0.9 x the one before,
    floor).  A NaN ratio fails both comparisons it takes part in."""
    floors = floors[:, None]
    return ((ratios <= floors).all(1)
            | (ratios[:, 1:] <= np.maximum(0.9 * ratios[:, :-1], floors)).all(1))


class _AtlasPoint:
    """Probe data at one grid point.  The first-order fields are filled by
    the scan; ``f0``, ``second`` and ``taylor`` on first query."""

    __slots__ = ("z0", "d", "dbar", "est", "f0", "second", "taylor")

    def __init__(self, z0, d, dbar, est):
        self.z0, self.d, self.dbar, self.est = z0, d, dbar, est
        self.f0 = None       # f(z0)
        self.second = None   # (d2, ddbar, dbar2, est) or the ProbeFailed message
        self.taylor = None   # first-order remainder verdict or the ProbeFailed message


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

    A view builds its (z0, d, dbar, est) rows and their first-order patterns
    (``ToleranceProfile.pattern``) when it is made; every rule reads those.
    ``conjugated()`` is the view of conj o f without a rescan: its columns
    are swapped and conjugated (d(conj f) = conj(dbar f), f -> conj f),
    which finite differences reproduce exactly up to the sign of zeros.
    """

    def __init__(self, spec: ActivationSpec, prof: ToleranceProfile, points: tuple,
                 conj: bool = False):
        self.spec = spec
        self.prof = prof
        self._points = points
        self._conj = conj
        if conj:
            self._rows = tuple((p.z0, p.dbar.conjugate(), p.d.conjugate(), p.est) for p in points)
        else:
            self._rows = tuple((p.z0, p.d, p.dbar, p.est) for p in points)
        self._patterns = tuple(prof.pattern(d, dbar, est) for _, d, dbar, est in self._rows)

    def __len__(self) -> int:
        return len(self._points)

    def conjugated(self) -> "ProbeAtlas":
        """The atlas of conj o spec, sharing this one's points and lazy data."""
        return ProbeAtlas(self.spec, self.prof, self._points, not self._conj)

    def first(self, i: int) -> tuple:
        """(z0, d, dbar, est_error) at point i."""
        return self._rows[i]

    def pattern(self, i: int) -> Optional[str]:
        """The first-order pattern at point i: "d", "dbar", "both" or None."""
        return self._patterns[i]

    def value(self, i: int) -> complex:
        """f(z0) at point i."""
        p = self._points[i]
        if p.f0 is None:
            p.f0 = complex(self.spec(np.array([p.z0]))[0])
        return p.f0.conjugate() if self._conj else p.f0

    def second(self, i: int) -> tuple:
        """(d2, ddbar, dbar2, est_error) at point i; raises ProbeFailed when
        the second-order probe fails there."""
        p = self._points[i]
        if p.second is None:
            try:
                p.second = second_derivs(self.spec, p.z0, self.prof)
            except ProbeFailed as exc:
                p.second = str(exc)
        if isinstance(p.second, str):
            raise ProbeFailed(p.second)
        d2, ddbar, dbar2, est = p.second
        if self._conj:
            return dbar2.conjugate(), ddbar.conjugate(), d2.conjugate(), est
        return d2, ddbar, dbar2, est

    def taylor_passed(self, i: int) -> bool:
        """First-order remainder probe verdict at point i (the remainder of
        conj o f is the conjugate of that of f); raises ProbeFailed when an
        evaluation of the probe is not finite there.

        The first query probes, in one batch, point i and every point with a
        first-order pattern, with the d and dbar of the scan; a failure is
        kept and raised only when its point is queried."""
        p = self._points[i]
        if p.taylor is None:
            todo = [q for q, pat in zip(self._points, self._patterns)
                    if q.taylor is None and (q is p or pat is not None)]
            reports = taylor_remainder_probe(
                self.spec, np.array([q.z0 for q in todo]), 1, self.prof,
                d=np.array([q.d for q in todo]), dbar=np.array([q.dbar for q in todo]))
            for q, rep in zip(todo, reports):
                q.taylor = str(rep) if isinstance(rep, ProbeFailed) else rep.passed
        if isinstance(p.taylor, str):
            raise ProbeFailed(p.taylor)
        return p.taylor

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
        for k, name, which in _SECOND_ORDER:
            if any(self.prof.nonzero(s[k], s[3]) for _, s in seconds):
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
        for a flagged activation or an empty grid.

        No nonzero first derivative gives Inconclusive; nonzero derivatives
        all of pattern "d" (all "dbar") give NonUniversalHolomorphic
        (NonUniversalAntiholomorphic); second derivatives vanishing at every
        point give NonUniversalRAffine, a check that stops at the first point
        whose second probe fails or is nonzero."""
        pats = self._patterns
        if self.spec.class_flags or not pats:
            return None
        where = f"the {len(pats)} grid points of the probe box {_box_text(self.prof.probe_box)}"
        if all(p is None for p in pats):
            return "Inconclusive", f"no nonzero first derivative at {where}"
        if all(p in (None, "d") for p in pats):
            return "NonUniversalHolomorphic", f"heuristic: no nonzero dbar at {where}"
        if all(p in (None, "dbar") for p in pats):
            return "NonUniversalAntiholomorphic", f"heuristic: no nonzero d at {where}"
        for i in range(len(self)):
            try:
                second = self.second(i)
            except ProbeFailed:
                return None
            if any(self.prof.nonzero(v, second[3]) for v in second[:3]):
                return None
        return ("NonUniversalRAffine",
                f"heuristic: no nonzero second Wirtinger derivative at {where}")


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
        points = []
        for z0 in sample_box(prof.probe_box, prof.probe_grid)[:, 0]:
            z0 = complex(z0)
            if spec.is_excluded(z0):
                continue
            try:
                d, dbar, est = first_derivs(spec, z0, prof)
            except ProbeFailed:
                continue
            points.append(_AtlasPoint(z0, d, dbar, est))
        atlas = ProbeAtlas(spec, prof, tuple(points))
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
    rows = [atlas.first(i) for i in range(len(atlas))]
    pats = [atlas.pattern(i) for i in range(len(atlas))]

    # differentiable point with nonzero derivative
    passing = [i for i, p in enumerate(pats) if p is not None and atlas.taylor_passed(i)]
    if not passing:
        return Classification(
            "Inconclusive", None,
            "no probe point is real differentiable with nonzero derivative")

    lone = [i for i in passing if pats[i] != "both"]
    poly, poly_ev = _is_polyharmonic(spec, prof, [rows[i][0] for i in passing])

    if lone:
        i = max(lone, key=lambda i: max(abs(rows[i][1]), abs(rows[i][2])))
        z0, d, dbar, _ = rows[i]
        verdict = "UniversalPoly_NMplus4" if poly else "UniversalNonPoly_NMplus1"
        ev = (f"lone nonzero {pats[i]} at {z0}: d={d:.6g}, dbar={dbar:.6g}; {poly_ev}")
    else:
        i = max(passing, key=lambda i: min(abs(rows[i][1]), abs(rows[i][2])))
        z0, d, dbar, _ = rows[i]
        verdict = "UniversalPoly_2N2Mplus5" if poly else "UniversalNonPoly_2N2Mplus1"
        ev = (f"both derivatives nonzero at {z0}: d={d:.6g}, dbar={dbar:.6g}; {poly_ev}")
    return Classification(verdict, z0, ev, atlas.probe(i))
