import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from deepnarrow import verifier
from deepnarrow.cli import _parse_kv, build_parser, expand_config, main
from deepnarrow.core import cvnn_from_json, eval_cvnn, width_of
from deepnarrow.register import PolyZZbar, poly_to_register, program_to_json
from deepnarrow.activations import get_activation


def run(args):
    return main(list(args))


def test_classify_cardioid(tmp_path, capsys):
    out = tmp_path / "card.json"
    assert run(["classify", "--activation", "cardioid", "--no-timestamp",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "UniversalNonPoly_NMplus1"
    assert doc["witness"] is not None


def test_classify_exp_and_modrelu(tmp_path):
    out = tmp_path / "r.json"
    run(["classify", "--activation", "exp", "--no-timestamp", "--out", str(out)])
    assert json.loads(out.read_text())["verdict"] == "NonUniversalHolomorphic"
    run(["classify", "--activation", "modrelu", "--param", "b=-1",
         "--no-timestamp", "--out", str(out)])
    assert json.loads(out.read_text())["verdict"] == "UniversalNonPoly_2N2Mplus1"


def test_classify_unknown_activation(capsys):
    rc = run(["classify", "--activation", "swish"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[UNKNOWN_ACTIVATION]")
    assert "\n" not in err.strip()


def test_compile_narrow_prints_width(tmp_path, capsys):
    out = tmp_path / "rs"
    rc = run(["compile", "--target", "zzbar", "--activation", "re_square",
              "--degree", "2", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "width=9" in line or "width=8" in line or "width=7" in line
    net = cvnn_from_json((tmp_path / "rs.net.json").read_text())
    assert width_of(net) <= 9
    csv_text = (tmp_path / "rs.sweep.csv").read_text()
    assert "h,sup_error,max_post_coeff,depth,width" in csv_text


def test_compile_refuses_holomorphic(capsys):
    rc = run(["compile", "--target", "zzbar", "--activation", "exp"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[STRATEGY_MISMATCH]")


def test_compile_without_finite_sweep_row_is_an_evaluation_error(monkeypatch, tmp_path, capsys):
    from deepnarrow import verifier
    from deepnarrow.errors import EvaluationFailure

    def failing_eval(*args, **kwargs):
        raise EvaluationFailure("activation produced non-finite values")

    # every lowered network fails to evaluate, so every sweep row is inf
    monkeypatch.setattr(verifier, "eval_cvnn", failing_eval)
    out = tmp_path / "none"
    rc = run(["compile", "--target", "zzbar", "--activation", "re_square",
              "--degree", "2", "--no-timestamp", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[EVALUATION] no h in the sweep")
    assert not (tmp_path / "none.net.json").exists()


@pytest.mark.parametrize("seed, status", [(0, 0), (5, 3)])
def test_compile_worse_than_a_constant_is_an_evaluation_error(tmp_path, capsys, seed, status):
    # the 40-feature exp_re fit of |z| at feature seed 5 has sup error 1.94;
    # the constant at the centre of |z|'s range on the lattice has 0.67
    out = tmp_path / "abs"
    rc = run(["compile", "--target", "abs", "--activation", "exp_re", "--features", "40",
              "--seed", str(seed), "--no-timestamp", "--out", str(out)])
    assert rc == status
    if status:
        assert capsys.readouterr().err.startswith("error[EVALUATION] best sup error")
        assert not (tmp_path / "abs.net.json").exists()


def test_compile_sweep_csv_names_the_bounded_rows(tmp_path, capsys):
    """At --grid 24 (48^2 = 2,304 verification points) the sweep bounds its
    rows on the stride-2 sub-lattice; the best row is a full measurement of
    the written network and every other row is named as a bound."""
    from deepnarrow.core import CompactBox, GridSpec
    from deepnarrow.verifier import named_target, sup_error

    out = tmp_path / "g24"
    assert run(["compile", "--target", "zzbar", "--activation", "cardioid", "--features", "40",
                "--grid", "24", "--no-timestamp", "--out", str(out)]) == 0
    line = dict(kv.split("=") for kv in capsys.readouterr().out.split()[1:])
    lines = (tmp_path / "g24.sweep.csv").read_text().splitlines()
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("#"))
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    best = min(rows, key=lambda r: float(r[1]))
    assert float(best[0]) == float(line["h"])
    bounded = meta["lower_bound_h"].split(";")
    assert bounded and best[0] not in bounded
    assert bounded == [r[0] for r in rows if r[0] in bounded]
    assert all(float(r[1]) > float(best[1]) for r in rows if r[0] in bounded)
    net = cvnn_from_json((tmp_path / "g24.net.json").read_text())
    card = get_activation("cardioid")
    fn, _ = named_target("zzbar")
    assert float(best[1]) == sup_error(fn, lambda zs: eval_cvnn(net, zs, card.fn),
                                       CompactBox.square(1, 1.0), GridSpec(48))


def test_compile_explicit_h(tmp_path, capsys):
    out = tmp_path / "one"
    rc = run(["compile", "--target", "zzbar", "--activation", "re_square",
              "--degree", "2", "--h", "1e-4", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    text = (tmp_path / "one.sweep.csv").read_text()
    data = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert len(data) == 2  # header + single row


def test_lower_command(tmp_path, capsys):
    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)),))
    program = poly_to_register([p], "mul2")
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(program))
    out = tmp_path / "low"
    rc = run(["lower", "--program", str(prog_path), "--activation", "re_square",
              "--strategy", "Poly_Narrow_2N2Mplus5", "--no-timestamp",
              "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "sup_error=" in line
    net = cvnn_from_json((tmp_path / "low.net.json").read_text())
    assert width_of(net) <= 9


def test_lower_conj_strategy_sweeps_against_conjugated_activation(tmp_path):
    """`lower` takes sigma from the lowering plan; for NonPoly_Conj_NMplus1
    that is conj o activation, so the sweep equals, byte for byte, one built
    by hand against conjugate_activation(spec)."""
    from deepnarrow.activations import conjugate_activation
    from deepnarrow.core import CompactBox, GridSpec, cvnn_to_json
    from deepnarrow.lowering import lower
    from deepnarrow.register import eval_register, shallow_to_register
    from deepnarrow.verifier import DEFAULT_SWEEP_SCHEDULE, h_sweep
    from deepnarrow.wirtinger import ToleranceProfile
    from conftest import random_shallow

    strategy = "NonPoly_Conj_NMplus1"
    spec = get_activation("conj:cardioid")
    sigma = conjugate_activation(spec)
    net = random_shallow(np.random.default_rng(3), 1, 1, 4, sigma.activation_id, scale=0.5)
    program = shallow_to_register(net)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(program))
    out = tmp_path / "low"
    assert run(["lower", "--program", str(prog_path), "--activation", "conj:cardioid",
                "--strategy", strategy, "--no-timestamp", "--out", str(out)]) == 0

    prof = ToleranceProfile()
    report = h_sweep(lambda h: lower(program, spec, strategy, h, prof),
                     DEFAULT_SWEEP_SCHEDULE, CompactBox.square(1, 1.0), GridSpec(9),
                     lambda zs: eval_register(program, zs, sigma.fn), spec,
                     metadata={"strategy": strategy, "activation": spec.name})
    best = report.extras["nets"][report.best_row().h]
    assert (tmp_path / "low.sweep.csv").read_text() == report.to_csv(False)
    assert (tmp_path / "low.net.json").read_text() == cvnn_to_json(best)


@pytest.mark.parametrize("strategy", ["NonPoly_NMplus1", "NonPoly_Conj_NMplus1",
                                      "NonPoly_2N2Mplus1"])
def test_lower_poly_program_with_nonpoly_strategy_reports_family(tmp_path, capsys, strategy):
    # re_square has no lone-derivative point, so planning NonPoly_NMplus1 or
    # NonPoly_Conj_NMplus1 would fail too; the family error comes first
    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)),))
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(poly_to_register([p], "mul2")))
    rc = run(["lower", "--program", str(prog_path), "--activation", "re_square",
              "--strategy", strategy])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error[STRATEGY_MISMATCH] {strategy} needs a shallow-family program\n")


@pytest.mark.parametrize("strategy", ["Bogus", "NonPoly_Bogus", "Poly_Bogus"])
def test_unknown_strategy_is_refused_before_fitting(monkeypatch, tmp_path, capsys, strategy):
    """compile refuses an unknown strategy when it plans, before it fits;
    lower refuses it before the program's family is checked (a poly program
    for NonPoly_*, a shallow one for Poly_*)."""
    from deepnarrow import fitting
    from deepnarrow.register import shallow_to_register
    from conftest import random_shallow

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted with an unknown strategy")

    monkeypatch.setattr(fitting, "fit_poly", no_fit)
    monkeypatch.setattr("deepnarrow.verifier.fit_shallow", no_fit)
    want = f"error[STRATEGY_MISMATCH] unknown strategy {strategy!r}\n"
    assert run(["compile", "--target", "zzbar", "--activation", "cardioid",
                "--strategy", strategy]) == 3
    assert capsys.readouterr().err == want

    if strategy.startswith("Poly"):
        net = random_shallow(np.random.default_rng(0), 1, 1, 3,
                             get_activation("cardioid").activation_id)
        program = shallow_to_register(net)
    else:
        program = poly_to_register([PolyZZbar(1, ((1 + 0j, (0,), (2,)),))], "mul2")
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(program))
    assert run(["lower", "--program", str(prog_path), "--activation", "cardioid",
                "--strategy", strategy]) == 3
    assert capsys.readouterr().err == want


def test_fit_poly_command(tmp_path, capsys):
    out = tmp_path / "p"
    rc = run(["fit-poly", "--target", "zzbar", "--degree", "2",
              "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((tmp_path / "p.poly.json").read_text())
    assert doc["n"] == 1 and len(doc["components"]) == 1


def test_fit_shallow_command(tmp_path, capsys):
    out = tmp_path / "s"
    rc = run(["fit-shallow", "--target", "re", "--activation", "modrelu",
              "--param", "b=-1", "--features", "100", "--grid", "15",
              "--no-timestamp", "--out", str(out)])
    assert rc == 0
    assert "sup_error=" in capsys.readouterr().out
    net = cvnn_from_json((tmp_path / "s.net.json").read_text())
    assert net.activation.name == "modrelu"


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--activation", "cardioid", "--block", "identity",
              "--z0", "1,0", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    data = [l for l in lines if not l.startswith("#") and not l.startswith("h,")]
    errs = [float(l.split(",")[1]) for l in data]
    assert errs[1] < errs[0]


def test_sweep_row_of_a_block_that_fails_to_evaluate_is_inf(tmp_path):
    # exp's identity block at 709.7 reads exp(709.7 + h z), which overflows
    # on the box at h = 0.1 only: that row is inf, as in an h_sweep
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--activation", "exp", "--block", "identity", "--z0", "709.7,0",
                "--no-timestamp", "--out", str(out)]) == 0
    errs = [float(l.split(",")[1]) for l in out.read_text().splitlines() if l[:1].isdigit()]
    assert errs[0] == float("inf") and all(np.isfinite(errs[1:]))


@pytest.mark.parametrize("block", ["square", "mul"])
def test_sweep_builds_each_block_once_per_h(monkeypatch, tmp_path, block):
    from deepnarrow import blocks, cli
    from deepnarrow.verifier import DEFAULT_SWEEP_SCHEDULE

    built = []
    constructor = getattr(blocks, f"{block}_block")

    def counting(*args, **kwargs):
        built.append(args[2])
        return constructor(*args, **kwargs)

    monkeypatch.setattr(cli, f"{block}_block", counting)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--activation", "cardioid", "--block", block, "--z0", "1,1",
                "--no-timestamp", "--out", str(out)]) == 0
    assert built == list(DEFAULT_SWEEP_SCHEDULE)
    rows = [l for l in out.read_text().splitlines() if l[:1].isdigit()]
    assert [float(l.split(",")[0]) for l in rows] == list(DEFAULT_SWEEP_SCHEDULE)


@pytest.mark.parametrize("strategy, extra", [
    ("Poly_Narrow_2N2Mplus5", ["--degree", "2"]),
    ("NonPoly_2N2Mplus1", ["--features", "20"]),
])
def test_compile_refuses_over_budget_lattice_before_fitting(monkeypatch, capsys, strategy,
                                                            extra):
    """n = 3 verifies on 18^6 points, above core.MAX_SAMPLE_POINTS: refused
    before the fit grid (9^6 points) is fitted."""
    from deepnarrow import fitting

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the verification budget was checked")

    monkeypatch.setattr(fitting, "fit_poly", no_fit)
    monkeypatch.setattr(fitting, "fit_shallow", no_fit)
    monkeypatch.setattr("deepnarrow.verifier.fit_shallow", no_fit)
    rc = run(["compile", "--target", "z1zbar2", "--n", "3", "--activation", "cardioid",
              "--strategy", strategy, *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[BAD_VALUE]") and "34012224 points" in err


def test_demo_commands(tmp_path):
    out = tmp_path / "demo.json"
    rc = run(["demo", "--name", "affine-closure", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["affinity_residual"] < 1e-9
    rc = run(["demo", "--name", "nowhere-diff", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True
    rc = run(["demo", "--name", "does-not-exist", "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize("name, flags, api", [
    ("lower-bound", ["--mc-samples", "1000"], lambda: verifier.kernel_invariance_demo(2, 0, 1000)),
    ("hyperplane-floor", [], verifier.affine_subspace_floor_demo),
    ("affine-closure", [], verifier.affine_closure_demo),
])
def test_demo_document_is_the_api_result_with_its_name(tmp_path, name, flags, api):
    out = tmp_path / "demo.json"
    assert run(["demo", "--name", name, *flags, "--no-timestamp", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(json.dumps(dict(api(), demo=name)))


@pytest.mark.parametrize("samples", [1, 0])
def test_lower_bound_demo_refuses_fewer_than_two_samples(tmp_path, capsys, samples):
    """One sample has no standard error (it was written as NaN, which is not
    JSON) and none has no mean: both are refused, and no document is written."""
    out = tmp_path / "demo.json"
    rc = run(["demo", "--name", "lower-bound", "--mc-samples", str(samples),
              "--no-timestamp", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[BAD_VALUE]") and "at least 2 samples" in err
    assert not out.exists()


def test_eval_command(tmp_path):
    spec = get_activation("cardioid")
    from conftest import random_shallow

    net = random_shallow(np.random.default_rng(0), 1, 1, 3, spec.activation_id)
    net_path = tmp_path / "net.json"
    from deepnarrow.core import cvnn_to_json

    net_path.write_text(cvnn_to_json(net))
    out = tmp_path / "eval.csv"
    rc = run(["eval", "--net", str(net_path), "--at", "0.5,0.5", "--no-timestamp",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("z0_re,z0_im,out0_re,out0_im")
    vals = [float(x) for x in lines[1].split(",")]
    want = eval_cvnn(net, np.array([0.5 + 0.5j]), spec.fn)
    assert vals[2] == pytest.approx(want[0].real)
    assert vals[3] == pytest.approx(want[0].imag)


def test_determinism_byte_identical_outputs(tmp_path):
    for tag in ("a", "b"):
        run(["compile", "--target", "zzbar", "--activation", "re_square",
             "--degree", "2", "--h", "1e-3", "--seed", "7", "--no-timestamp",
             "--out", str(tmp_path / tag)])
    assert (tmp_path / "a.net.json").read_bytes() == (tmp_path / "b.net.json").read_bytes()
    assert (tmp_path / "a.sweep.csv").read_bytes() == (tmp_path / "b.sweep.csv").read_bytes()
    # classify reports too
    for tag in ("c", "d"):
        run(["classify", "--activation", "modrelu", "--param", "b=-1",
             "--no-timestamp", "--out", str(tmp_path / f"{tag}.json")])
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()


def test_timestamp_header_present_by_default(tmp_path):
    out = tmp_path / "t.json"
    run(["classify", "--activation", "cardioid", "--out", str(out)])
    assert "generated" in json.loads(out.read_text())


def test_config_file_prefills_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nactivation=cardioid\nno_timestamp=true\n")
    out = tmp_path / "cfg.json"
    rc = run(["classify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "UniversalNonPoly_NMplus1"
    assert "generated" not in doc
    # flags override the file
    rc = run(["classify", "--config", str(cfg), "--activation", "exp",
              "--out", str(out)])
    assert json.loads(out.read_text())["verdict"] == "NonUniversalHolomorphic"


_BASE_ARGV = {
    "classify": ["--activation", "cardioid"],
    "fit-shallow": ["--activation", "cardioid", "--target", "zzbar"],
    "fit-poly": ["--target", "zzbar", "--degree", "2"],
    "lower": ["--activation", "re_square", "--program", "p.json", "--strategy", "Poly_NMplus4"],
    "sweep": ["--activation", "cardioid", "--block", "identity"],
    "demo": ["--name", "affine-closure"],
    "eval": ["--net", "n.json"],
}

_FLAG_VALUE = {"--box": "0,1", "--grid": "5", "--seed": "1", "--zero-tol": "1e-3",
               "--fd-step": "1e-4", "--probe-box": "0,1"}


@pytest.mark.parametrize("command, flag", [
    ("classify", "--box"), ("classify", "--grid"), ("classify", "--seed"),
    ("fit-shallow", "--zero-tol"), ("fit-shallow", "--fd-step"), ("fit-shallow", "--probe-box"),
    ("fit-poly", "--seed"), ("fit-poly", "--zero-tol"), ("fit-poly", "--fd-step"),
    ("fit-poly", "--probe-box"),
    ("lower", "--seed"), ("sweep", "--seed"),
    ("demo", "--box"), ("demo", "--grid"), ("demo", "--zero-tol"), ("demo", "--fd-step"),
    ("demo", "--probe-box"),
    ("eval", "--seed"), ("eval", "--zero-tol"), ("eval", "--fd-step"), ("eval", "--probe-box"),
])
def test_subcommand_refuses_a_flag_it_does_not_read(capsys, command, flag):
    argv = [command, *_BASE_ARGV[command]]
    build_parser().parse_args(argv)  # the argv without the flag parses
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, _FLAG_VALUE[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _subcommand_flags():
    """(subcommand, option action) for every settable flag but --config."""
    sub = build_parser()._subparsers._group_actions[0]  # the parser's only subparsers action
    return [(name, act) for name, p in sub.choices.items() for act in p._actions
            if act.option_strings and act.dest not in ("help", "config")]


# a value for each flag of type None; the ones that begin with '-' must be
# attached with '=' on the command line
_STR_VALUE = {"param": "b=-2", "box": "-1,1;-1,1", "probe_box": "-2,2", "z0": "-1,0",
              "at": "-0.5,0.5"}


def _flag_value(action):
    return {int: "3", float: "0.5"}.get(action.type, _STR_VALUE.get(action.dest, "x"))


def _recorded_args(monkeypatch, command, argv):
    """The Namespace main hands to the subcommand body for argv, without fn."""
    from deepnarrow import cli

    seen = []
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(args) or 0)
    assert main(argv) == 0
    return {k: v for k, v in vars(seen[0]).items() if k != "fn"}


@pytest.mark.parametrize("command, action", _subcommand_flags(),
                         ids=lambda x: x if isinstance(x, str) else x.option_strings[0])
def test_config_line_parses_as_its_flag(monkeypatch, tmp_path, command, action):
    flag = action.option_strings[0]
    key = flag[2:].replace("-", "_")
    required = [a for c, a in _subcommand_flags() if c == command and a.required]
    base = [command] + [t for a in required if a is not action
                        for t in (a.option_strings[0], _flag_value(a))]
    cfg = tmp_path / "run.cfg"
    if action.nargs == 0:
        cfg.write_text(f"{key}=true\n")
        on_line = [flag]
    else:
        value = _flag_value(action)
        cfg.write_text(f"{key}={value}\n")
        on_line = [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    from_file = _recorded_args(monkeypatch, command, base + ["--config", str(cfg)])
    from_flag = _recorded_args(monkeypatch, command, base + on_line)
    assert from_file.pop("config") == str(cfg)
    assert from_flag.pop("config") is None
    assert from_file == from_flag


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("activation=cardioid\nno_timestamp=true\n")
    out = tmp_path / "cfg.json"
    assert run(["classify", f"--config={cfg}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "UniversalNonPoly_NMplus1"
    assert "generated" not in doc
    # a switch set to false adds nothing
    cfg.write_text("activation=cardioid\nno_timestamp=false\n")
    assert run(["classify", f"--config={cfg}", "--out", str(out)]) == 0
    assert "generated" in json.loads(out.read_text())


@pytest.mark.parametrize("command, line", [
    ("classify", "seedx=4"),
    ("fit-poly", "zero_tol=1e-3"),
])
def test_config_key_the_subcommand_does_not_take_exits_2(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    argv = [command, *_BASE_ARGV[command], "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" + line.replace("_", "-") in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config"[:k] for k in range(3, len("--config"))])
@pytest.mark.parametrize("attached", [False, True])
def test_config_abbreviation_exits_2(tmp_path, capsys, flag, attached):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("activation=exp\n")
    given = [f"{flag}={cfg}"] if attached else [flag, str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run(["classify", *given, "--activation", "cardioid", "--no-timestamp"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    # other abbreviations are still argparse's to expand
    assert run(["classify", "--act", "cardioid", "--no-timestamp"]) == 0


def test_config_param_lines_add_up_and_flags_win(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("activation=r_affine\nparam=a=2\nparam=b=-1\n")
    args = _recorded_args(monkeypatch, "classify",
                          ["classify", "--config", str(cfg), "--param", "b=3"])
    assert _parse_kv(args["param"]) == {"a": 2.0, "b": 3.0}


def test_box_with_a_leading_minus_is_attached_with_equals(tmp_path, capsys):
    argv = ["compile", "--target", "zzbar", "--activation", "re_square", "--degree", "2",
            "--h", "1e-3", "--no-timestamp"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--box", "-1,1;-1,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("box=-1,1;-1,1\n")
    for tag, extra in (("default", []), ("flag", ["--box=-1,1;-1,1"]),
                       ("config", ["--config", str(cfg)])):
        assert run(argv + extra + ["--out", str(tmp_path / tag)]) == 0
    for suffix in (".net.json", ".sweep.csv"):
        want = (tmp_path / f"default{suffix}").read_bytes()
        assert (tmp_path / f"flag{suffix}").read_bytes() == want
        assert (tmp_path / f"config{suffix}").read_bytes() == want


def test_every_csv_cell_is_a_number(tmp_path):
    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)),))
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(poly_to_register([p], "mul2")))
    runs = {
        "compile.sweep.csv": ["compile", "--target", "zzbar", "--activation", "re_square",
                              "--degree", "2", "--out", str(tmp_path / "compile")],
        "lower.sweep.csv": ["lower", "--program", str(prog_path), "--activation", "re_square",
                            "--strategy", "Poly_Narrow_2N2Mplus5",
                            "--out", str(tmp_path / "lower")],
        "shallow.csv": ["fit-shallow", "--target", "re", "--activation", "modrelu",
                        "--param", "b=-1", "--features", "40", "--out", str(tmp_path / "shallow")],
    }
    # the square block of cardioid and the pair block of modrelu at 1 (an
    # excluded point) take finite-difference derivatives
    for block, act, z0 in (("identity", "cardioid", "1,0"), ("conjugation", "antiholo_exp", "1,0"),
                           ("pair", "cardioid", "0.5,1"), ("square", "re_square", "1,0"),
                           ("mul", "re_square", "1,0"), ("square", "cardioid", "1,0"),
                           ("pair", "modrelu", "1,0")):
        name = f"{block}-{act}.csv"
        runs[name] = ["sweep", "--activation", act, "--block", block,
                      "--z0", z0, "--out", str(tmp_path / name)]
    for name, argv in runs.items():
        assert run(argv + ["--no-timestamp"]) == 0, name
        lines = [l for l in (tmp_path / name).read_text().splitlines() if l[:1] != "#"]
        assert lines[0] == "h,sup_error,max_post_coeff,depth,width"
        for cell in (c for l in lines[1:] for c in l.split(",")):
            float(cell)


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(l) for l in block.splitlines() if l.startswith("deepnarrow ")]
    assert len(commands) == 14
    for argv in commands:
        build_parser().parse_args(expand_config(argv[1:]))


# ---------------------------------------------------------------------------
# One parser per process: later calls build none and share no state
# ---------------------------------------------------------------------------


def _classify_bytes(tmp_path, *flags):
    out = tmp_path / "classify.json"
    assert run(["classify", *flags, "--no-timestamp", "--out", str(out)]) == 0
    return out.read_bytes()


def test_later_calls_construct_no_parser(monkeypatch, tmp_path):
    import argparse

    cfg = tmp_path / "run.cfg"
    cfg.write_text("activation=cardioid\n")
    _classify_bytes(tmp_path, "--activation", "cardioid")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    _classify_bytes(tmp_path, "--activation", "cardioid")
    _classify_bytes(tmp_path, "--config", str(cfg))
    assert run(["compile", "--target", "zzbar", "--activation", "re_square", "--degree", "2",
                "--out", str(tmp_path / "c"), "--no-timestamp"]) == 0
    assert built == []
    build_parser()  # the count sees a parser when one is built
    assert built


def test_param_lists_do_not_build_up(tmp_path):
    alone = _classify_bytes(tmp_path, "--activation", "modrelu")
    assert _classify_bytes(tmp_path, "--activation", "modrelu", "--param", "b=-2") != alone
    assert _classify_bytes(tmp_path, "--activation", "modrelu") == alone


def test_config_flags_do_not_carry_into_the_next_call(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fd_step=1e-4\nno_timestamp=true\nparam=b=-2\n")
    plain = ["classify", "--activation", "modrelu"]
    before = _recorded_args(monkeypatch, "classify", plain)
    configured = _recorded_args(monkeypatch, "classify", plain + ["--config", str(cfg)])
    assert (configured["fd_step"], configured["no_timestamp"], configured["param"]) == (
        1e-4, True, ["b=-2"])
    assert _recorded_args(monkeypatch, "classify", plain) == before


def test_classify_does_not_read_n_or_m(tmp_path):
    default = _classify_bytes(tmp_path, "--activation", "cardioid")
    assert _classify_bytes(tmp_path, "--activation", "cardioid", "--n", "3", "--m", "2") == default


@pytest.mark.parametrize("flag, value", [("--zero-tol", "nan"), ("--zero-tol", "inf"),
                                         ("--fd-step", "nan"), ("--fd-step", "inf")])
def test_non_finite_tolerance_is_refused(tmp_path, capsys, flag, value):
    """A NaN zero_tol made no derivative nonzero (the classifier grew the
    probe box to its largest and answered Inconclusive); an infinite fd_step
    made every probe fail.  Both are refused before any probe."""
    out = tmp_path / "c.json"
    assert run(["classify", "--activation", "cardioid", flag, value,
                "--no-timestamp", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[BAD_VALUE]") and "positive and finite" in err
    assert not out.exists()


def _h_argv(command, tmp_path):
    if command == "compile":
        return ["compile", "--target", "zzbar", "--activation", "cardioid", "--features", "20"]
    if command == "sweep":
        return ["sweep", "--block", "identity", "--activation", "cardioid"]
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(
        poly_to_register([PolyZZbar(1, ((1 + 0j, (0,), (2,)),))], "mul2")))
    return ["lower", "--program", str(prog_path), "--activation", "re_square",
            "--strategy", "Poly_Narrow_2N2Mplus5"]


@pytest.mark.parametrize("command", ["compile", "lower", "sweep"])
@pytest.mark.parametrize("h", ["0", "-1e-3", "nan", "inf"])
def test_h_must_be_positive_and_finite(tmp_path, capsys, command, h):
    """--h 0 divided by zero inside the blocks (error[INTERNAL], exit 4)."""
    out = tmp_path / "run"
    assert run(_h_argv(command, tmp_path) + [f"--h={h}", "--no-timestamp",
                                             "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[BAD_VALUE] --h must be auto or a positive finite number")
    assert list(tmp_path.glob("run*")) == []


def test_probe_failure_is_a_listed_error(tmp_path, capsys):
    """exp(Re z) overflows on a probe box reaching Re z = 800: the probe's
    ProbeFailed exits 3 as error[PROBE_FAILED], not as an internal error."""
    out = tmp_path / "c.json"
    with np.errstate(over="ignore"):
        rc = run(["classify", "--activation", "exp_re", "--probe-box=-800,800;-800,800",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error[PROBE_FAILED] activation evaluation failed near")
    assert not out.exists()
