"""The probe atlas: one scan per (activation, profile), every point choice a
query on it.

GOLDEN pins the verdict and witness, the active and nonzero-second points,
and per strategy the lowering plan (sigma, and the points of its identity
row, pair route and square row, mul kind) or the exception planning raises.  The table was
recorded from the per-use grid scans that the atlas replaced, so it also
shows that the atlas keeps their choices.  The plans of nowhere_diff were
recorded again when a derivative came to count as nonzero only above three
times its error estimate: its estimates are the only nonzero ones in the
catalog.  For the same reason its nonzero-second and square points were
recorded again (-2 and -1-1j to -1) when those rules came to rank only the
points where the chosen second derivative counts as nonzero: no square
block built at -1-1j.  The Narrow plans took the lone-d identity point
(None where there is none, as before) when Narrow came to cross its
registers through identity blocks wherever it can.  The NonPoly_NMplus1 plans of antiholo_exp
and conj:cardioid, which have a lone dbar and no lone d, write against
conj o activation, as their Poly_NMplus4 plans do; for conj:cardioid that
is the shared cardioid spec itself, since conj o conj is the identity.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from deepnarrow import cli, lowering, wirtinger
from deepnarrow.activations import (available_activations, conjugate_activation,
                                    custom_activation, get_activation, scale_activation)
from deepnarrow.core import CompactBox
from deepnarrow.errors import ConstructionError, ProbeFailed, StrategyMismatch
from deepnarrow.lowering import STRATEGIES, plan_lowering
from deepnarrow.wirtinger import (TAYLOR_RADII, PointRow, ToleranceProfile, classify_activation,
                                  find_active_point, find_nonzero_second_point, probe_atlas)

PROF = ToleranceProfile()

# label: (verdict, witness, active point, nonzero-second point, plans); a
# plan is (sigma, id, pair route, square, mul kind)
GOLDEN = {
    'abs_square': (
        'UniversalPoly_2N2Mplus5', (-2-2j), (-2-2j), ((-2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('abs_square', None, ((-1-1j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('abs_square', None, ((-2-2j),), 0j, 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('abs_square', None, ((-2-2j),), 0j, 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'antiholo_exp': (
        'NonUniversalAntiholomorphic', None, (2-2j), ((2-2j), 'dbar2'),
        {
            'NonPoly_NMplus1':
                ('conj:antiholo_exp', (1.5-2j), None, None, None),
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': ConstructionError,
            'Poly_Narrow_2N2Mplus5': ConstructionError,
            'Poly_NMplus4': ConstructionError,
        }),
    'cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('cardioid', (0.5+0j), None, None, None),
            'NonPoly_2N2Mplus1':
                ('cardioid', None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('cardioid', None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('cardioid', (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('cardioid', (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
    'exp': (
        'NonUniversalHolomorphic', None, (2-2j), ((2-2j), 'd2'),
        {
            'NonPoly_NMplus1':
                ('exp', (1.5-2j), None, None, None),
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': ConstructionError,
            'Poly_Narrow_2N2Mplus5': ConstructionError,
            'Poly_NMplus4': ConstructionError,
        }),
    'exp_re': (
        'UniversalNonPoly_2N2Mplus1', (2-2j), (2-2j), ((2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('exp_re', None, ((1.5-2j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('exp_re', None, ((2-2j),), (1.5-2j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('exp_re', None, ((2-2j),), (1.5-2j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'modrelu': (
        'UniversalNonPoly_2N2Mplus1', (-1-0.5j), (-2-2j), ((-1-0.5j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('modrelu', None, ((-1-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('modrelu', None, ((-1-0.5j),), (-1-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('modrelu', None, ((-1-0.5j),), (-1-0.5j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    # no point passes the first-order remainder probe, so no block point
    # is ranked and every plan is refused: the lone-derivative and both
    # patterns by the plan, the poly strategies by the pair route
    'nowhere_diff': (
        'Inconclusive', None, None, ((-1+0j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': ConstructionError,
            'Poly_Narrow_2N2Mplus5': ConstructionError,
            'Poly_NMplus4': StrategyMismatch,
        }),
    'r_affine': (
        'NonUniversalHolomorphic', None, (-2-2j), None,
        {
            'NonPoly_NMplus1':
                ('r_affine', 0j, None, None, None),
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': StrategyMismatch,
            'Poly_Narrow_2N2Mplus5': StrategyMismatch,
            'Poly_NMplus4': StrategyMismatch,
        }),
    're_square': (
        'UniversalPoly_2N2Mplus5', (-2-2j), (-2-2j), ((-2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('re_square', None, ((-1-2j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('re_square', None, ((-2-2j),), -2j, 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('re_square', None, ((-2-2j),), -2j, 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'tanh_re': (
        'UniversalNonPoly_2N2Mplus1', -2j, -2j, ((-0.5-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('tanh_re', None, (-2j,), None, None),
            'Poly_Wide_2N2Mplus12':
                ('tanh_re', None, (-2j,), (-1-2j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('tanh_re', None, (-2j,), (-1-2j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'z_plus_zbar_sq': (
        'UniversalPoly_NMplus4', 0j, (-2-2j), ((-2-2j), 'dbar2'),
        {
            'NonPoly_NMplus1':
                ('z_plus_zbar_sq', 0j, None, None, None),
            'NonPoly_2N2Mplus1':
                ('z_plus_zbar_sq', None, ((-1+0j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('z_plus_zbar_sq', None, ((-2-2j),), 0j, 'mul3'),
            'Poly_Narrow_2N2Mplus5':
                ('z_plus_zbar_sq', 0j, ((-2-2j),), 0j, 'mul3'),
            'Poly_NMplus4':
                ('z_plus_zbar_sq', 0j, ((-2-2j),), 0j, 'mul3'),
        }),
    'conj:cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('cardioid', (0.5+0j), None, None, None),
            'NonPoly_2N2Mplus1':
                ('conj:cardioid', None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('conj:cardioid', None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('conj:cardioid', None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('cardioid', (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
    'modrelu b=-0.5': (
        'UniversalNonPoly_2N2Mplus1', (-0.5-0.5j), (-2-2j), ((-0.5-0.5j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('modrelu', None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('modrelu', None, ((-0.5-0.5j),), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('modrelu', None, ((-0.5-0.5j),), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'scale(0.5+0.5j):cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('scale((0.5+0.5j)):cardioid', (0.5+0j), None, None, None),
            'NonPoly_2N2Mplus1':
                ('scale((0.5+0.5j)):cardioid', None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('scale((0.5+0.5j)):cardioid', None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('scale((0.5+0.5j)):cardioid', (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('scale((0.5+0.5j)):cardioid', (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
}


def _z0(rows):
    """The point of a row, or the points of a tuple of rows; None stays None."""
    if rows is None:
        return None
    return rows.z0 if isinstance(rows, PointRow) else tuple(r.z0 for r in rows)


def _spec(label):
    if label == "modrelu b=-0.5":
        return get_activation("modrelu", {"b": -0.5})
    if label == "scale(0.5+0.5j):cardioid":
        return scale_activation(get_activation("cardioid"), 0.5 + 0.5j)
    return get_activation(label)


def test_golden_covers_the_catalog():
    assert set(available_activations()) <= set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_verdicts_and_plans(label):
    verdict, witness, active, second, plans = GOLDEN[label]
    spec = _spec(label)
    cls = classify_activation(spec, PROF)
    assert (cls.verdict, cls.witness_point) == (verdict, witness)
    assert find_active_point(spec, PROF) == active
    assert find_nonzero_second_point(spec, PROF) == second
    for strategy in STRATEGIES:
        want = plans[strategy]
        if isinstance(want, type):
            with pytest.raises(want):
                plan_lowering(spec, strategy, PROF)
            continue
        plan = plan_lowering(spec, strategy, PROF)
        assert (plan.sigma.name, _z0(plan.id_row), _z0(plan.pair_route),
                _z0(plan.square_row), plan.mul_kind) == want, strategy


@pytest.mark.parametrize("name", [prefix + name for name in available_activations()
                                  for prefix in ("", "conj:")])
def test_lone_derivative_plans_write_against_conj_exactly_without_a_lone_d(monkeypatch, name):
    """NonPoly_NMplus1 and Poly_NMplus4 plan against conj o activation
    exactly when the atlas has a lone-dbar point and no lone-d point.  Both
    plans of one spec hold the one sigma kept on it, whose atlas is scanned
    once: the conjugate of X is conj:X, and that of conj:X is the shared X."""
    scans = []
    scan = wirtinger._scan

    def counting_scan(spec, prof):
        scans.append(spec.name)
        return scan(spec, prof)

    monkeypatch.setattr(wirtinger, "_scan", counting_scan)
    spec = get_activation(name)
    lone_d, lone_db, _ = probe_atlas(spec, PROF).pattern_points()
    conj = lone_d is None and lone_db is not None
    sigmas = []
    for strategy in ("NonPoly_NMplus1", "Poly_NMplus4"):
        for _ in range(2):
            try:
                sigmas.append(plan_lowering(spec, strategy, PROF).sigma)
            except (StrategyMismatch, ConstructionError):
                pass
    conj_name = name[len("conj:"):] if name.startswith("conj:") else f"conj:{name}"
    assert scans == ([name, conj_name] if conj else [name])
    assert all(sigma is sigmas[0] for sigma in sigmas)
    if conj:
        assert sigmas and sigmas[0].name == conj_name
        assert sigmas[0] is conjugate_activation(spec)
        assert probe_atlas(sigmas[0], PROF).pattern_points()[0].z0 == lone_db.z0
    else:
        assert all(sigma is spec for sigma in sigmas)


def _columns(atlas):
    """Every column of the atlas, forced, as magnitudes."""
    rows = []
    for i in range(len(atlas)):
        z0, d, dbar, est = atlas.first(i)
        try:
            second = tuple(abs(v) for v in atlas.second(i))
        except ProbeFailed:
            second = None
        rows.append((z0, abs(d), abs(dbar), est, abs(atlas.value(i)), second,
                     atlas.taylor_passed(i)))
    return rows


def _conjugated(row):
    """A row of ``_columns`` as conj o f has it: d(conj f) = conj(dbar f),
    and likewise d2 and dbar2 trade places."""
    z0, d, dbar, est, value, second, passed = row
    if second is not None:
        second = (second[2], second[1], second[0], second[3])
    return z0, dbar, d, est, value, second, passed


@pytest.mark.parametrize("name", available_activations())
def test_conjugated_view_equals_a_rescan(name):
    """The atlas of conj o f, scanned on its own, holds the atlas of f with
    d and dbar swapped and conjugated: the same points, magnitudes, error
    estimates and Taylor verdicts, and the codes of lone d and lone dbar
    swapped."""
    spec = get_activation(name)
    atlas = probe_atlas(spec, PROF)
    rescan = probe_atlas(conjugate_activation(spec), PROF)
    assert len(atlas) == len(rescan) > 0
    assert rescan.prof == atlas.prof
    assert [_conjugated(row) for row in _columns(atlas)] == _columns(rescan)
    assert np.array_equal(rescan.d, atlas.dbar.conj())
    assert np.array_equal(rescan.dbar, atlas.d.conj())
    assert rescan.codes.tolist() == [(0, 2, 1, 3)[c] for c in atlas.codes.tolist()]
    lone_d, lone_db, both = map(_z0, atlas.pattern_points())
    assert tuple(map(_z0, rescan.pattern_points())) == (lone_db, lone_d, both)


@pytest.mark.parametrize("spec", [get_activation(name) for name in available_activations()]
                         + [get_activation("modrelu", {"b": -5}),
                            custom_activation("z_abs_z", lambda z: z * np.abs(z))],
                         ids=lambda s: s.name)
def test_atlas_patterns_are_the_profile_rule_row_by_row(spec):
    """The patterns an atlas computes over its columns in one pass are those
    ``ToleranceProfile.pattern`` gives each row, on the atlas and on the
    atlas of conj o spec."""
    for view in (probe_atlas(spec, PROF), probe_atlas(conjugate_activation(spec), PROF)):
        rows = [view.first(i) for i in range(len(view))]
        assert [view.pattern(i) for i in range(len(view))] == [
            view.prof.pattern(d, dbar, est) for _, d, dbar, est in rows]


def test_a_derivative_below_its_error_is_zero():
    """z|z| has d = 3|z|/2 and dbar = z^2/(2|z|), both zero at 0 alone.  The
    numeric d at 0 (3.3e-6) is above zero_tol but not above three times its
    error estimate (1.7e-6), so 0 is no lone-d witness: z|z| is universal
    with both derivatives nonzero, and no NMplus1 plan exists for it."""
    spec = custom_activation("z_abs_z", lambda z: z * np.abs(z))
    atlas = probe_atlas(spec, PROF)
    origin = [atlas.first(i)[0] for i in range(len(atlas))].index(0j)
    _, d, dbar, est = atlas.first(origin)
    assert PROF.zero_tol < abs(d) <= 3 * est and abs(dbar) <= PROF.zero_tol
    assert atlas.pattern(origin) is None
    assert {atlas.pattern(i) for i in range(len(atlas)) if i != origin} == {"both"}
    cls = classify_activation(spec, PROF)
    assert cls.verdict == "UniversalNonPoly_2N2Mplus1" and cls.witness_point != 0
    with pytest.raises(StrategyMismatch):
        plan_lowering(spec, "NonPoly_NMplus1", PROF)


def test_probe_box_grows_before_a_negative_verdict():
    """modrelu b=-5 vanishes on |z| <= 5, which holds the default box
    [-2, 2]^2.  The box doubles until it holds a witness: [-4, 4]^2 has
    corners at |z| = 5.66.  The classifier and the lowering read that box."""
    spec = get_activation("modrelu", {"b": -5})
    atlas = probe_atlas(spec, PROF)
    assert atlas.prof.probe_box == CompactBox.square(1, 4.0)
    cls = classify_activation(spec, PROF)
    assert cls.verdict in ("UniversalNonPoly_2N2Mplus1", "Inconclusive")
    if cls.witness_point is not None:
        assert abs(cls.witness_point) > 5
        assert _z0(plan_lowering(spec, "NonPoly_2N2Mplus1", PROF).pair_route) == (
            cls.witness_point,)


def test_probe_box_without_witness_is_inconclusive():
    """modrelu b=-100 vanishes on the largest box scanned, [-32, 32]^2 (the
    default doubled PROBE_BOX_GROWTHS times): no verdict against
    universality, and the reason names that box."""
    spec = get_activation("modrelu", {"b": -100})
    cls = classify_activation(spec, PROF)
    assert cls.verdict == "Inconclusive" and cls.witness_point is None
    half = 2 * 2 ** wirtinger.PROBE_BOX_GROWTHS
    assert f"[-{half}, {half}] + i[-{half}, {half}]" in cls.evidence


def test_atlas_is_memoised_by_value():
    """Two catalog lookups share one spec and so one atlas; a spec with a
    new callable is a new key."""
    spec = get_activation("cardioid")
    assert probe_atlas(spec, PROF) is probe_atlas(spec, ToleranceProfile())
    assert probe_atlas(spec, PROF) is probe_atlas(get_activation("cardioid"), PROF)
    fresh = dataclasses.replace(spec, fn=lambda z: spec.fn(z))
    assert probe_atlas(spec, PROF) is not probe_atlas(fresh, PROF)
    assert probe_atlas(fresh, PROF) is probe_atlas(fresh, PROF)


@pytest.mark.parametrize("argv, dead_point", [
    # the dead zone |z| < 1 of modrelu: zero derivative, no remainder probe
    (["--activation", "modrelu", "--features", "20"], 0j),
    # cardioid vanishes on the negative real axis; conj:cardioid compiles
    # under NonPoly_NMplus1 against sigma cardioid, the shared spec kept as
    # its conjugate, scanned once
    (["--activation", "conj:cardioid", "--features", "20"], -1 + 0j),
    # d = dbar = RE z vanishes on the imaginary axis
    (["--activation", "re_square", "--degree", "2"], 0.5j),
])
def test_one_scan_per_compile(monkeypatch, tmp_path, argv, dead_point):
    """At a grid point with zero derivative only the scan probes, so the
    number of first-derivative probes there counts the atlases built, as
    do the calls of the scan itself.  A compile scans each spec it reads
    once (a conj strategy's sigma is one more), a second compile in the
    same process shares the first one's specs and scans no more, and a spec
    with a new callable scans once of its own."""
    calls, scans = Counter(), []
    first_derivs, scan = wirtinger.first_derivs, wirtinger._scan

    def counting(spec, z0, prof=PROF):
        calls[complex(z0)] += 1
        return first_derivs(spec, z0, prof)

    def counting_scan(spec, prof):
        scans.append(spec.name)
        return scan(spec, prof)

    monkeypatch.setattr(wirtinger, "first_derivs", counting)
    monkeypatch.setattr(wirtinger, "_scan", counting_scan)
    compile_argv = ["compile", "--target", "zzbar", *argv, "--no-timestamp",
                    "--out", str(tmp_path / "run")]
    name = argv[1]
    want = [name, name[len("conj:"):]] if name.startswith("conj:") else [name]
    assert cli.main(compile_argv) == 0
    assert scans == want and calls[dead_point] == len(want)
    assert cli.main(compile_argv) == 0
    assert scans == want and calls[dead_point] == len(want)
    spec = get_activation(name)
    fresh = dataclasses.replace(spec, fn=lambda z: spec.fn(z))
    probe_atlas(fresh, PROF)
    probe_atlas(fresh, PROF)
    assert scans == [*want, name] and calls[dead_point] == len(want) + 1


def test_classification_probes_second_order_lazily(monkeypatch):
    calls = []
    second_derivs = wirtinger.second_derivs

    def counting(spec, z0, prof=PROF):
        calls.append(z0)
        return second_derivs(spec, z0, prof)

    monkeypatch.setattr(wirtinger, "second_derivs", counting)
    cls = classify_activation(get_activation("cardioid"), PROF)
    assert cls.verdict == "UniversalNonPoly_NMplus1"
    # the R-affine heuristic stops at the first point, plus the witness
    assert len(calls) <= 2


def _holed(bad):
    """z + |z|^2 / 4 (d = 1 + conj(z)/4, dbar = z/4, nonzero on the whole
    grid away from 0) with a NaN at the single point ``bad``."""
    return custom_activation("holed", lambda z: np.where(
        z == bad, np.nan, z + 0.25 * z * np.conj(z)))


def _grid_index(atlas, z0):
    return [atlas.first(i)[0] for i in range(len(atlas))].index(z0)


def test_taylor_failure_raises_only_where_queried(monkeypatch):
    """One circle of the grid point 0.5 holds a NaN.  The first Taylor query
    probes every candidate in one call; the failure is kept and raised only
    when 0.5 itself is queried, so active_point, which never reaches 0.5,
    gives the point it gives without the NaN, and the classifier, which
    queries every candidate, raises.  The atlas of conj o f probes its own
    batch and fails at the same point."""
    calls = []
    probe = wirtinger.taylor_remainder_probe

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return probe(*args, **kwargs)

    monkeypatch.setattr(wirtinger, "taylor_remainder_probe", counting)
    bad_circle = 0.5 + TAYLOR_RADII[-1] * np.exp(0j)
    clean = probe_atlas(_holed(np.inf), PROF)
    atlas = probe_atlas(_holed(bad_circle), PROF)
    bad = _grid_index(atlas, 0.5 + 0j)
    assert atlas.active_point() == clean.active_point() != 0.5
    assert calls == [len(clean), len(atlas)]
    for i in range(len(atlas)):
        if i != bad:
            assert atlas.taylor_passed(i) == clean.taylor_passed(i)
    for _ in range(2):
        with pytest.raises(ProbeFailed, match="activation evaluation failed near"):
            atlas.taylor_passed(bad)
    for _ in range(2):
        with pytest.raises(ProbeFailed, match="activation evaluation failed near"):
            atlas.taylor_passing()
    assert len(calls) == 2
    conj = probe_atlas(conjugate_activation(atlas.spec), PROF)
    with pytest.raises(ProbeFailed):
        conj.taylor_passed(bad)
    for _ in range(2):
        with pytest.raises(ProbeFailed, match="activation evaluation failed near"):
            conj.taylor_passing()
    assert calls == [len(clean), len(atlas), len(conj)]
    with pytest.raises(ProbeFailed):
        classify_activation(_holed(bad_circle), PROF)


def test_passing_points_are_kept_for_the_conjugated_view(monkeypatch):
    """Once every verdict is known the passing points are kept: later
    queries probe nothing.  The atlas of conj o f, with verdicts of its own,
    passes the same points."""
    spec = get_activation("cardioid")
    atlas = probe_atlas(spec, PROF)
    conj = probe_atlas(conjugate_activation(spec), PROF)
    passing = atlas.taylor_passing()
    assert passing == [i for i in range(len(atlas)) if atlas.codes[i] and atlas.taylor_passed(i)]
    assert conj.taylor_passing() == passing

    def probing(self, i):
        raise AssertionError("a kept verdict was queried again")

    monkeypatch.setattr(wirtinger.ProbeAtlas, "taylor_passed", probing)
    assert atlas.taylor_passing() == conj.taylor_passing() == passing


def test_taylor_failure_at_the_winning_point_raises():
    """When the failing point would beat the best point so far,
    active_point queries it and raises, as a per-point probe did."""
    winner = find_active_point(_holed(np.inf), PROF)
    with pytest.raises(ProbeFailed):
        find_active_point(_holed(winner + TAYLOR_RADII[0]), PROF)


@pytest.mark.parametrize("argv", [
    ["--activation", "cardioid", "--features", "20"],
    ["--activation", "conj:cardioid", "--features", "20"],
    ["--activation", "re_square", "--degree", "2"],
    ["--activation", "cardioid", "--degree", "2", "--strategy", "Poly_NMplus4"],
    ["--activation", "abs_square", "--degree", "2", "--strategy", "Poly_Wide_2N2Mplus12"],
])
def test_one_plan_per_compile(monkeypatch, tmp_path, argv):
    """plan_lowering keeps its plan on the spec: a compile plans once, not
    once for the pipeline and once more at each h, and a second compile in
    the same process shares the first one's spec and plans no more."""
    plans = []
    plan = lowering._plan

    def counting(spec, strategy, prof):
        plans.append(spec.name)
        return plan(spec, strategy, prof)

    monkeypatch.setattr(lowering, "_plan", counting)
    argv = ["compile", "--target", "zzbar", *argv, "--no-timestamp",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert len(plans) == 1
    assert cli.main(argv) == 0
    assert len(plans) == 1
