"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

from itertools import product

import numpy as np

from deepnarrow.activations import custom_activation, get_activation
from deepnarrow.blocks import (_SQUARE_TO_MUL, conj_block, identity_block, mul_block,
                               pair_block, square_block)
from deepnarrow.cli import main as cli_main
from deepnarrow.core import CompactBox, GridSpec, eval_cvnn, width_of
from deepnarrow.fitting import FitConfig
from deepnarrow.lowering import lower, plan_lowering, strategy_width_budget
from deepnarrow.register import (PolyZZbar, eval_register, plan_monomial,
                                 poly_to_register, shallow_to_register,
                                 simulate_plan)
from deepnarrow.verifier import (affine_closure_demo, end_to_end_nonpoly,
                                 end_to_end_poly, holo_floor_demo,
                                 kernel_invariance_demo, named_target,
                                 nowhere_diff_demo)
from deepnarrow.wirtinger import (ToleranceProfile, classify_activation, point_row,
                                  second_partials_to_wirtinger, wirt_first,
                                  wirt_second)

from conftest import LOWERING_CASES, block_sup_error, random_points, random_shallow

PROF = ToleranceProfile()
BOX = CompactBox.square(1, 1.0)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# -- 1 ----------------------------------------------------------------------


def test_acceptance_01_classifier_table():
    table = [
        ("exp", {}, "NonUniversalHolomorphic"),
        ("antiholo_exp", {}, "NonUniversalAntiholomorphic"),
        ("r_affine", {"a": 2, "b": 1, "c": 1}, "NonUniversalRAffine"),
        ("cardioid", {}, "UniversalNonPoly_NMplus1"),
        ("modrelu", {"b": -1}, "UniversalNonPoly_2N2Mplus1"),
        ("re_square", {}, "UniversalPoly_2N2Mplus5"),
        ("abs_square", {}, "UniversalPoly_2N2Mplus5"),
        ("z_plus_zbar_sq", {}, "UniversalPoly_NMplus4"),
    ]
    hits = sum(classify_activation(get_activation(n, p), PROF).verdict == v
               for n, p, v in table)
    _report(1, f"classifier table {hits}/8", hits == 8)


# -- 2 ----------------------------------------------------------------------


def test_acceptance_02_wirtinger_accuracy(rng):
    specs = [get_activation(n) for n in
             ("re_square", "abs_square", "z_plus_zbar_sq")]
    specs.append(custom_activation(
        "zsq", lambda z: z**2,
        analytic_first=lambda z0: (2 * z0, 0j),
        analytic_second=lambda z0: (2 + 0j, 0j, 0j)))
    card = get_activation("cardioid")
    checked = 0
    worst = 0.0
    for spec in specs:
        for z0 in random_points(rng, 22, 1)[:, 0]:
            d, dbar, _ = wirt_first(spec, z0, PROF)
            da, dbara = spec.analytic_first(complex(z0))
            d2, ddbar, dbar2, _ = wirt_second(spec, z0, PROF)
            d2a, ddbara, dbar2a = spec.analytic_second(complex(z0))
            worst = max(worst, abs(d - da), abs(dbar - dbara), abs(d2 - d2a),
                        abs(ddbar - ddbara), abs(dbar2 - dbar2a))
            checked += 1
    for z0 in random_points(rng, 20, 1)[:, 0]:
        if abs(z0) < 0.3:
            continue
        d, dbar, _ = wirt_first(card, z0, PROF)
        da, dbara = card.analytic_first(complex(z0))
        worst = max(worst, abs(d - da), abs(dbar - dbara))
        checked += 1
    # conversion matrix exact on polynomial second partials
    matrix_cases = [((2, 2j, -2), (2, 0, 0)), ((2, 0, 2), (0, 1, 0)),
                    ((2, 0, 0), (0.5, 0.5, 0.5)), ((2, -2j, -2), (0, 0, 2))]
    matrix_exact = all(
        abs(g - w) < 1e-12
        for partials, wirt in matrix_cases
        for g, w in zip(second_partials_to_wirtinger(*partials), wirt))
    ok = checked >= 100 and worst < 1e-5 and matrix_exact
    _report(2, f"wirtinger accuracy (worst {worst:.2e} over {checked} points)", ok)


# -- 3 ----------------------------------------------------------------------


def test_acceptance_03_exact_rewrites(rng):
    card = get_activation("cardioid")
    worst_shallow = 0.0
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w = int(rng.integers(1, 9))
        net = random_shallow(rng, n, m, w, card.activation_id)
        program = shallow_to_register(net)
        zs = random_points(rng, 100, n)
        diff = np.abs(eval_register(program, zs, card.fn) - eval_cvnn(net, zs, card.fn))
        worst_shallow = max(worst_shallow, float(np.max(diff)))

    worst_poly = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms, seen = [], set()
        for _ in range(int(rng.integers(1, 5))):
            while True:
                zd = tuple(int(x) for x in rng.integers(0, 3, n))
                bd = tuple(int(x) for x in rng.integers(0, 3, n))
                if sum(zd) + sum(bd) <= 4 and (zd, bd) not in seen:
                    seen.add((zd, bd))
                    break
            terms.append((complex(rng.standard_normal(), rng.standard_normal()), zd, bd))
        poly = PolyZZbar(n, tuple(terms))
        zs = random_points(rng, 60, n)
        want = poly(zs)
        scale = 1 + float(np.max(np.abs(want)))
        for kind in ("mul1", "mul2", "mul3"):
            program = poly_to_register([poly], kind)
            got = eval_register(program, zs)[:, 0]
            worst_poly = max(worst_poly, float(np.max(np.abs(got - want))) / scale)
    ok = worst_shallow < 1e-12 and worst_poly < 1e-10
    _report(3, f"exact rewrites (shallow {worst_shallow:.1e}, poly {worst_poly:.1e})", ok)


# -- 4 ----------------------------------------------------------------------


def test_acceptance_04_monomial_planning():
    count, ok = 0, True
    for n in (1, 2):
        for exps in product(range(4), repeat=2 * n):
            zd, bd = exps[:n], exps[n:]
            deg = sum(exps)
            if deg == 0 or deg > 3:
                continue
            for kind in ("mul1", "mul2", "mul3"):
                plan = plan_monomial(zd, bd, kind)
                if plan.symbolic_result() != (zd, bd):
                    ok = False
                # brute force over all conjugation-flag assignments
                factors = [i for i in range(n) for _ in range(zd[i] + bd[i])]
                valid = set()
                for flags in product((0, 1), repeat=deg):
                    steps = tuple(("zbar" if f else "z", i)
                                  for f, i in zip(flags, factors))
                    if simulate_plan(kind, steps, n) == (zd, bd):
                        valid.add(steps)
                if not valid:
                    ok = False
                count += 1
    _report(4, f"monomial planning exhaustive ({count} cases)", ok and count == 129)


# -- 5 ----------------------------------------------------------------------


def test_acceptance_05_block_convergence():
    cases = [
        ("cardioid", {}, "identity", 1.0),
        ("cardioid", {}, "square", 1.0),
        ("modrelu", {"b": -1}, "pair", 2.0),
        ("modrelu", {"b": -1}, "square", 2.0),
        ("re_square", {}, "pair", 1.0),
        ("abs_square", {}, "pair", 1.0),
        ("exp_re", {}, "pair", 0.5),
        ("exp_re", {}, "square", 0.0),
        ("tanh_re", {}, "pair", 0.5),
        ("tanh_re", {}, "square", 0.25),
        ("exp", {}, "identity", 0.0),
        ("exp", {}, "square", 0.0),
        ("antiholo_exp", {}, "conjugation", 0.0),
        ("z_plus_zbar_sq", {}, "square", 0.3),
    ]
    targets = {
        "identity": lambda zs: zs,
        "conjugation": lambda zs: np.conj(zs),
        "pair": lambda zs: np.hstack([zs, np.conj(zs)]),
        "zzbar": lambda zs: zs * np.conj(zs),
        "z2": lambda zs: zs**2,
        "zbar2": lambda zs: np.conj(zs) ** 2,
    }
    ok = True
    for name, params, kind, z0 in cases:
        spec = get_activation(name, params)
        if kind == "square":
            sq = point_row(spec, z0, PROF, "square")
            build = lambda h: square_block(sq, h)
            target = targets[sq.kind]
        elif kind == "identity":
            build = lambda h: identity_block(point_row(spec, z0, PROF, "d"), h)
            target = targets["identity"]
        elif kind == "conjugation":
            build = lambda h: conj_block(point_row(spec, z0, PROF, "dbar"), h)
            target = targets["conjugation"]
        else:
            build = lambda h: pair_block(point_row(spec, z0, PROF, "both"), h)
            target = targets["pair"]
        errs = [block_sup_error(build(1e-1 * 2.0**-k), spec, target, BOX, GridSpec(9))
                for k in range(6)]
        for cur, nxt in zip(errs, errs[1:]):
            if cur < 1e-9:
                break
            if nxt > 0.75 * cur:
                ok = False
    # quadratic exactness at h = 1
    for name in ("re_square", "abs_square", "z_plus_zbar_sq"):
        spec = get_activation(name)
        sq = point_row(spec, 0.4 - 0.2j, PROF, "square")
        if block_sup_error(square_block(sq, 1.0), spec, targets[sq.kind], BOX,
                           GridSpec(9)) > 1e-10:
            ok = False
        mblk, mkind = mul_block(sq, 1.0), _SQUARE_TO_MUL[sq.kind]
        mtargets = {
            "mul1": lambda zs: (zs[:, 0] * zs[:, 1])[:, None],
            "mul2": lambda zs: (zs[:, 0] * np.conj(zs[:, 1]))[:, None],
            "mul3": lambda zs: np.conj(zs[:, 0] * zs[:, 1])[:, None],
        }
        if block_sup_error(mblk, spec, mtargets[mkind], CompactBox.square(2, 1.0),
                           GridSpec(4)) > 1e-10:
            ok = False
    _report(5, "block h-decay and quadratic exactness", ok)


# -- 6 ----------------------------------------------------------------------


def test_acceptance_06_width_budgets(rng):
    ok = True
    for strategy, spec in LOWERING_CASES.values():
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                if strategy.startswith("NonPoly"):
                    program = shallow_to_register(
                        random_shallow(rng, n, m, 3, spec.activation_id))
                else:
                    kind = plan_lowering(spec, strategy, PROF).mul_kind
                    comps = []
                    for j in range(m):
                        zd = tuple(1 if i == 0 else 0 for i in range(n))
                        bd = tuple(1 if i == n - 1 else 0 for i in range(n))
                        comps.append(PolyZZbar(n, ((1 + 0j, zd, bd),)))
                    program = poly_to_register(comps, kind)
                net = lower(program, spec, strategy, 1e-3, PROF)
                if width_of(net) > strategy_width_budget(strategy, n, m):
                    ok = False
    _report(6, "width budgets, zero tolerance, all strategies x (n,m) in {1,2,3}^2", ok)


# -- 7 ----------------------------------------------------------------------


def test_acceptance_07_end_to_end():
    rs = get_activation("re_square")
    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (1 + 0j, (0,), (2,))))
    report = end_to_end_poly(lambda zs: p(zs)[:, None], rs, 2,
                             "Poly_Narrow_2N2Mplus5", BOX,
                             fit_grid=GridSpec(9), prof=PROF)
    net = report.best_net()
    narrow_ok = width_of(net) <= 9 and report.best_row().sup_error < 1e-2

    card = get_activation("cardioid")
    fn = named_target("zzbar")
    cfg = FitConfig(num_features=300, weight_scale=1.0, ridge=1e-6,
                    grid=GridSpec(21), seed=0)
    report2 = end_to_end_nonpoly(fn, card, cfg, "NonPoly_NMplus1")
    net2 = report2.best_net()
    nonpoly_ok = (width_of(net2) <= 3
                  and report2.best_row().sup_error
                  <= report2.fit_sup_error + 1e-2)
    _report(7, f"end-to-end (narrow err {report.best_row().sup_error:.1e}, "
               f"register err {report2.best_row().sup_error:.1e})",
            narrow_ok and nonpoly_ok)


# -- 8 ----------------------------------------------------------------------


def test_acceptance_08_lower_bound_demo():
    rep = kernel_invariance_demo(2, seed=0, mc_samples=100_000)
    threshold = 0.8 * np.pi**2 * 0.1**4 / 2
    l1 = rep["l1_estimate"]
    ok = (rep["nullspace_found"]
          and rep["invariance_residual"] < 1e-9
          and abs(rep["l1_threshold"] - threshold) < 1e-12
          and l1["value"] >= threshold - 3 * l1["stderr"])
    _report(8, f"kernel-vector invariance (residual {rep['invariance_residual']:.1e}, "
               f"L1 {l1['value']:.3g} >= {threshold:.3g})", ok)


# -- 9 ----------------------------------------------------------------------


def test_acceptance_09_closure_demos():
    aff = affine_closure_demo()
    holo = holo_floor_demo()
    ok = aff["affinity_residual"] < 1e-9 and holo["floor"] >= 0.5
    _report(9, f"closure (affinity {aff['affinity_residual']:.1e}, "
               f"holo floor {holo['floor']:.3f} over {holo['attempts']} fits)", ok)


# -- 10 ---------------------------------------------------------------------


def test_acceptance_10_nowhere_diff_demo():
    rep = nowhere_diff_demo()
    h, k, err = rep["best"]["h"], rep["best"]["k"], rep["best"]["sup_error"]
    ok = rep["passed"] and err < 1e-2 and k <= 50
    _report(10, f"nowhere-diff identity block (h={h:g}, k={k}, err {err:.1e})", ok)


# -- 11 ---------------------------------------------------------------------


def test_acceptance_11_determinism(tmp_path):
    outs = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        rc = cli_main(["compile", "--target", "zzbar", "--activation", "re_square",
                       "--degree", "2", "--h", "1e-4", "--seed", "3",
                       "--no-timestamp", "--out", str(base)])
        assert rc == 0
        rc = cli_main(["classify", "--activation", "z_plus_zbar_sq",
                       "--no-timestamp", "--out", str(base) + ".cls.json"])
        assert rc == 0
        rc = cli_main(["demo", "--name", "nowhere-diff", "--no-timestamp",
                       "--out", str(base) + ".demo.json"])
        assert rc == 0
        outs.append({
            "net": (tmp_path / f"{tag}.net.json").read_bytes(),
            "csv": (tmp_path / f"{tag}.sweep.csv").read_bytes(),
            "cls": (tmp_path / f"{tag}.cls.json").read_bytes(),
            "demo": (tmp_path / f"{tag}.demo.json").read_bytes(),
        })
    ok = all(outs[0][k] == outs[1][k] for k in outs[0])
    _report(11, "byte-identical reruns (net JSON, sweep CSV, reports)", ok)
