"""Command-line front end.

Subcommands: classify | fit-shallow | fit-poly | compile | lower | sweep |
demo | eval.  Every run is a deterministic function of its flags and seed;
the only non-reproducible output line is the timestamp header, suppressed by
--no-timestamp.  Each key=value line of a --config file is read as the flag
--key=value (flags on the command line win).  Precondition violations exit
nonzero with a single machine-parsable line "error[CODE] message" on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import verifier
from .activations import get_activation
from .blocks import (_SQUARE_TO_MUL, conj_block, identity_block, mul_apply, mul_block,
                     pair_block, square_block)
from .core import (CompactBox, GridSpec, check_sample_budget, cvnn_from_json, cvnn_to_json,
                   depth_of, eval_cvnn, sample_box, width_of)
from .errors import (ConstructionError, DimensionMismatch, EvaluationFailure, FitSingular,
                     InvalidActivationParams, ProbeFailed, StrategyMismatch,
                     UnknownActivation)
from .fitting import FitConfig, fit_poly, fit_shallow
from .lowering import default_strategy, lower, plan_lowering, STRATEGIES
from .register import eval_register, poly_to_json_dict, program_from_json
from .verifier import (DEFAULT_SWEEP_SCHEDULE, NetSweep, SweepReport, h_sweep, named_target,
                       sup_error)
from .wirtinger import ToleranceProfile, classify_activation, point_row

_ERR_CODES = (
    (UnknownActivation, ("UNKNOWN_ACTIVATION", 2)),
    (InvalidActivationParams, ("BAD_PARAMS", 2)),
    (StrategyMismatch, ("STRATEGY_MISMATCH", 3)),
    (ConstructionError, ("CONSTRUCTION", 3)),
    (FitSingular, ("FIT_SINGULAR", 3)),
    (EvaluationFailure, ("EVALUATION", 3)),
    (ProbeFailed, ("PROBE_FAILED", 3)),
    (DimensionMismatch, ("DIMENSION", 2)),
    (KeyError, ("BAD_NAME", 2)),
    (ValueError, ("BAD_VALUE", 2)),
    (FileNotFoundError, ("IO", 2)),
)


def _parse_kv(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    return out


def _parse_box(text: str) -> CompactBox:
    """Coordinates separated by '|'; each coordinate 're_lo,re_hi;im_lo,im_hi'."""
    coords = []
    for part in text.split("|"):
        re_part, _, im_part = part.partition(";")
        re_lo, re_hi = (float(x) for x in re_part.split(","))
        if im_part:
            im_lo, im_hi = (float(x) for x in im_part.split(","))
        else:
            im_lo, im_hi = re_lo, re_hi
        coords.append((re_lo, re_hi, im_lo, im_hi))
    return CompactBox(tuple(coords))


def _parse_point(text: str, flag: str) -> complex:
    """The complex number of a point flag, written 're' or 're,im'; it must
    be finite."""
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"{flag} expects 're' or 're,im', got {text!r}")
    if not np.isfinite(parts).all():
        raise ValueError(f"{flag} expects a finite point, got {text!r}")
    return complex(*parts)


def _box_or_default(args, n: int) -> CompactBox:
    if args.box:
        box = _parse_box(args.box)
        if box.n != n:
            raise DimensionMismatch(f"box has {box.n} coordinates, expected {n}")
        return box
    return CompactBox.square(n, 1.0)


def _profile(args) -> ToleranceProfile:
    kwargs = {}
    if args.zero_tol is not None:
        kwargs["zero_tol"] = args.zero_tol
    if args.fd_step is not None:
        kwargs["fd_step"] = args.fd_step
    if args.probe_box:
        kwargs["probe_box"] = _parse_box(args.probe_box)
    return ToleranceProfile(**kwargs)


def _target(args):
    """The function of --target; DimensionMismatch when it reads more inputs
    than --n gives."""
    fn = named_target(args.target)
    least = verifier.TARGETS[args.target][2]
    if args.n < least:
        raise DimensionMismatch(f"target {args.target!r} reads {least} inputs, --n gives {args.n}")
    return fn


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dump(doc: dict, timestamp: bool) -> str:
    if timestamp:
        doc = dict(doc, generated=datetime.now(timezone.utc).isoformat())
    return json.dumps(doc, sort_keys=True, indent=1)


def _schedule(args):
    if args.h == "auto":
        return DEFAULT_SWEEP_SCHEDULE
    h = float(args.h)
    if not 0 < h < np.inf:
        raise ValueError(f"--h must be auto or a positive finite number, got {args.h!r}")
    return (h,)


def _write_compiled(args, verb: str, strategy: str, report: NetSweep) -> int:
    """Write the best network and the sweep CSV of compile or lower; print the best row."""
    best, net = report.best_row(), report.best_net()
    _write(f"{args.out}.net.json" if args.out else None, cvnn_to_json(net))
    _write(f"{args.out}.sweep.csv" if args.out else None,
           report.to_csv(not args.no_timestamp))
    print(f"{verb} strategy={strategy} width={width_of(net)} depth={depth_of(net)} "
          f"h={best.h:g} sup_error={best.sup_error:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_classify(args):
    spec = get_activation(args.activation, _parse_kv(args.param))
    prof = _profile(args)
    result = classify_activation(spec, prof)
    doc = result.to_json_dict(prof)
    doc["activation"] = spec.name
    _write(args.out, _json_dump(doc, not args.no_timestamp))
    return 0


def _cmd_fit_shallow(args):
    spec = get_activation(args.activation, _parse_kv(args.param))
    fn = _target(args)
    box = _box_or_default(args, args.n)
    cfg = FitConfig(num_features=args.features, weight_scale=args.scale,
                    ridge=args.ridge, box=box, grid=GridSpec(args.grid), seed=args.seed)
    net, err = fit_shallow(fn, spec, cfg)
    _write(f"{args.out}.net.json" if args.out else None, cvnn_to_json(net))
    report = SweepReport([], {"sup_error": repr(err), "features": args.features,
                              "seed": args.seed, "activation": spec.name})
    _write(f"{args.out}.csv" if args.out else None, report.to_csv(not args.no_timestamp))
    print(f"fit-shallow sup_error={err:.6g} width={width_of(net)} depth={depth_of(net)}")
    return 0


def _cmd_fit_poly(args):
    fn = _target(args)
    box = _box_or_default(args, args.n)
    fit_grid = GridSpec(args.grid)
    check_sample_budget(box, verifier._finer(fit_grid))
    polys = fit_poly(fn, args.degree, box, fit_grid)
    doc = poly_to_json_dict(polys)
    _write(f"{args.out}.poly.json" if args.out else None,
           _json_dump(doc, not args.no_timestamp))
    err = sup_error(fn, lambda zs: np.column_stack([p(zs) for p in polys]),
                    box, verifier._finer(fit_grid))
    print(f"fit-poly degree={args.degree} sup_error={err:.6g}")
    return 0


def _cmd_compile(args):
    spec = get_activation(args.activation, _parse_kv(args.param))
    prof = _profile(args)
    cls = classify_activation(spec, prof)
    if not cls.verdict.startswith("Universal"):
        meaning = ("no probe point showed real differentiability with a nonzero "
                   "derivative, which does not prove that networks over it are not universal"
                   if cls.verdict == "Inconclusive" else "networks over it are not universal")
        raise StrategyMismatch(
            f"activation {spec.name!r} classified {cls.verdict}: {meaning}, refusing to compile")
    strategy = args.strategy
    if strategy in (None, "auto"):
        strategy = default_strategy(cls.verdict)

    fn = _target(args)
    box = _box_or_default(args, args.n)
    schedule = _schedule(args)
    if strategy.startswith("Poly"):
        report = verifier.end_to_end_poly(
            fn, spec, args.degree, strategy, box,
            fit_grid=GridSpec(args.grid), schedule=schedule, prof=prof)
    else:
        cfg = FitConfig(num_features=args.features, weight_scale=args.scale,
                        ridge=args.ridge, box=box, grid=GridSpec(args.grid),
                        seed=args.seed)
        report = verifier.end_to_end_nonpoly(fn, spec, cfg, strategy, schedule=schedule,
                                             prof=prof)
    return _write_compiled(args, "compile", strategy, report)


def _cmd_lower(args):
    with open(args.program) as fh:
        program = program_from_json(fh.read())
    spec = get_activation(args.activation, _parse_kv(args.param))
    prof = _profile(args)
    box = _box_or_default(args, program.input_dim)
    grid = GridSpec(args.grid)
    check_sample_budget(box, grid)
    # The program's neurons are written against the plan's sigma.  It is
    # planned on first use: h_sweep lowers before it evaluates the reference,
    # so a program of the wrong family reports lower's family error first.
    reference = lambda zs: eval_register(program, zs,
                                         plan_lowering(spec, args.strategy, prof).sigma.fn)
    report = h_sweep(lambda h: lower(program, spec, args.strategy, h, prof),
                     _schedule(args), box, grid, reference, spec,
                     metadata={"strategy": args.strategy, "activation": spec.name})
    return _write_compiled(args, "lower", args.strategy, report)


#: block -> what its point must have (``wirtinger.point_row``): a first-order
#: pattern, or a square kind
_SWEEP_BLOCKS = {"conjugation": "dbar", "identity": "d", "mul": "square", "pair": "both",
                 "square": "square"}

#: the --target help: each name of ``verifier.TARGETS`` with the function it names
_TARGET_HELP = "; ".join(f"{name} = {label}"
                        for name, (_, label, _) in verifier.TARGETS.items())

def _sweep_case(block: str, row, h: float, box: CompactBox):
    """(block at the row's point and h, the function it approximates, the box
    to measure on).  Square and mul blocks approximate the product of the
    row's square kind: mul(z, z) and mul(z, w)."""
    if block == "identity":
        return identity_block(row, h), lambda zs: zs, box
    if block == "conjugation":
        return conj_block(row, h), np.conj, box
    if block == "pair":
        return pair_block(row, h), lambda zs: np.hstack([zs, np.conj(zs)]), box
    kind = _SQUARE_TO_MUL[row.kind]
    if block == "square":
        return square_block(row, h), lambda zs: mul_apply(kind, zs, zs), box
    return (mul_block(row, h), lambda zs: mul_apply(kind, zs[:, 0], zs[:, 1])[:, None],
            CompactBox(tuple(box.intervals) * 2))


def _cmd_sweep(args):
    """Sweep one block at --z0, the one point a user gives: its row comes
    from ``point_row``, which refuses a point that lacks what the block
    needs."""
    spec = get_activation(args.activation, _parse_kv(args.param))
    prof = _profile(args)
    z0 = _parse_point(args.z0, "--z0") if args.z0 else 1.0
    box = _box_or_default(args, 1)
    grid = GridSpec(args.grid)
    if args.block not in _SWEEP_BLOCKS:
        raise ValueError(f"unknown block {args.block!r}; known: {list(_SWEEP_BLOCKS)}")
    schedule = _schedule(args)
    row = point_row(spec, z0, prof, _SWEEP_BLOCKS[args.block])
    rows = []
    for h in schedule:
        blk, target, blk_box = _sweep_case(args.block, row, h, box)
        err = verifier._net_error(lambda g: sup_error(target, g, blk_box, grid),
                                  blk.to_cvnn(spec), spec)
        rows.append(verifier.SweepRow(h, err, blk.post_scale, 2, blk.width))
    report = SweepReport(rows, {"block": args.block, "activation": spec.name,
                                "z0": repr(z0)})
    _write(args.out, report.to_csv(not args.no_timestamp))
    return 0


_DEMOS = {
    "lower-bound": lambda args: verifier.kernel_invariance_demo(args.n, args.seed,
                                                                args.mc_samples),
    "hyperplane-floor": lambda args: verifier.affine_subspace_floor_demo(),
    "holo-floor": lambda args: verifier.holo_floor_demo(),
    "affine-closure": lambda args: verifier.affine_closure_demo(),
    "nowhere-diff": lambda args: verifier.nowhere_diff_demo(),
}


def _cmd_demo(args):
    if args.name not in _DEMOS:
        raise ValueError(f"unknown demo {args.name!r}")
    doc = dict(_DEMOS[args.name](args), demo=args.name)
    _write(args.out, _json_dump(doc, not args.no_timestamp))
    return 0


def _cmd_eval(args):
    with open(args.net) as fh:
        net = cvnn_from_json(fh.read())
    if args.at:
        points = [[_parse_point(c, "--at") for c in part.split(";")]
                  for part in args.at.split("|")]
        if len({len(z) for z in points}) != 1:
            raise ValueError("--at expects every point to have the same number of "
                             f"coordinates, got {args.at!r}")
        zs = np.asarray(points, dtype=np.complex128)
    else:
        box = _box_or_default(args, net.input_dim)
        zs = sample_box(box, GridSpec(args.grid))
    vals = eval_cvnn(net, zs)
    lines = []
    if not args.no_timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    header = [f"z{i}_{p}" for i in range(net.input_dim) for p in ("re", "im")]
    header += [f"out{i}_{p}" for i in range(net.output_dim) for p in ("re", "im")]
    lines.append(",".join(header))
    for z, v in zip(zs, vals):
        row = []
        for c in z:
            row += [repr(float(c.real)), repr(float(c.imag))]
        for c in v:
            row += [repr(float(c.real)), repr(float(c.imag))]
        lines.append(",".join(row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, activation=False, box=False, seed=False, tolerances=False):
    """--out, --config and --no-timestamp, plus the option groups a subcommand reads."""
    if activation:
        p.add_argument("--activation", required=True)
        p.add_argument("--param", action="append", metavar="K=V")
    if box:
        p.add_argument("--box", help="per coordinate 're_lo,re_hi;im_lo,im_hi', '|'-separated; "
                                     "attach with '=' (--box=-1,1;-1,1) when it begins with '-'")
        p.add_argument("--grid", type=int, default=9)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    if tolerances:
        p.add_argument("--zero-tol", type=float, default=None)
        p.add_argument("--fd-step", type=float, default=None)
        p.add_argument("--probe-box", default=None,
                       help="as --box; attach with '=' when it begins with '-'")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  Each sets ``fn`` to a lambda that
    looks its body up by name when called, so the parser holds no body and a
    body replaced on the module is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="deepnarrow",
        description="Classify complex activations, compile deep narrow "
                    "complex-valued networks, and verify them numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Wirtinger decision tree for one activation")
    _add_common(p, activation=True, tolerances=True)
    p.add_argument("--n", type=int, default=1,
                   help="input dimension; the verdict does not depend on it")
    p.set_defaults(fn=lambda args: _cmd_classify(args))

    p = sub.add_parser("fit-shallow", help="random-feature ridge fit of a named target")
    _add_common(p, activation=True, box=True, seed=True)
    p.add_argument("--target", required=True, help=_TARGET_HELP)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--features", type=int, default=200)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.set_defaults(fn=lambda args: _cmd_fit_shallow(args))

    p = sub.add_parser("fit-poly", help="least-squares polynomial in z and conj(z)")
    _add_common(p, box=True)
    p.add_argument("--target", required=True, help=_TARGET_HELP)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=lambda args: _cmd_fit_poly(args))

    p = sub.add_parser("compile", help="end-to-end target -> narrow network")
    _add_common(p, activation=True, box=True, seed=True, tolerances=True)
    p.add_argument("--target", required=True, help=_TARGET_HELP)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--strategy", default="auto",
                   help="auto or one of " + ", ".join(STRATEGIES))
    p.add_argument("--h", default="auto")
    p.add_argument("--features", type=int, default=120)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.set_defaults(fn=lambda args: _cmd_compile(args))

    p = sub.add_parser("lower", help="lower a serialized register program")
    _add_common(p, activation=True, box=True, tolerances=True)
    p.add_argument("--program", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--h", default="auto")
    p.set_defaults(fn=lambda args: _cmd_lower(args))

    p = sub.add_parser("sweep", help="h-sweep one building block")
    _add_common(p, activation=True, box=True, tolerances=True)
    p.add_argument("--block", required=True, help=" | ".join(_SWEEP_BLOCKS))
    p.add_argument("--z0", default=None, metavar="RE,IM",
                   help="attach with '=' (--z0=-1,0) when it begins with '-'")
    p.add_argument("--h", default="auto")
    p.set_defaults(fn=lambda args: _cmd_sweep(args))

    p = sub.add_parser("demo", help="necessity and robustness demos")
    _add_common(p, seed=True)
    p.add_argument("--name", required=True, help=" | ".join(_DEMOS))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.set_defaults(fn=lambda args: _cmd_demo(args))

    p = sub.add_parser("eval", help="evaluate a serialized network")
    _add_common(p, box=True)
    p.add_argument("--net", required=True)
    p.add_argument("--at", default=None,
                   help="points 're,im' (coords ';'-separated, points '|'-separated); "
                        "attach with '=' when it begins with '-'")
    p.set_defaults(fn=lambda args: _cmd_eval(args))
    return parser


#: Built once, at import, so a process pays for them when it sets up, not on
#: every call.  argparse makes a fresh Namespace on every parse and copies
#: the defaults it appends to, so no parse sees another's flags.
_PARSER = build_parser()

_CONFIG_PARSER = argparse.ArgumentParser(prog="deepnarrow", add_help=False, allow_abbrev=False)
_CONFIG_PARSER.add_argument("--config")


def expand_config(argv: list) -> list:
    """Read the file of ``--config PATH`` or ``--config=PATH`` as flags: each
    ``key=value`` line becomes ``--key=value`` (``key=true`` the bare switch,
    ``key=false`` nothing) right after the subcommand name, so argparse checks
    it as it checks a flag, and flags on the command line, parsed later, win.
    An abbreviation of ``--config``, which the subcommand would accept without
    the file being read, exits 2."""
    for flag in (arg.partition("=")[0] for arg in argv):
        if 2 < len(flag) < len("--config") and "--config".startswith(flag):
            _CONFIG_PARSER.exit(2, f"deepnarrow: error: {flag} is not read as a config "
                                   "file: write --config in full\n")
    path = _CONFIG_PARSER.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = []
    with open(path) as fh:
        for line in map(str.strip, fh):
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                flag, value = "--" + key.strip().replace("_", "-"), value.strip()
                if value != "false":
                    flags.append(flag if value == "true" else f"{flag}={value}")
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(expand_config(argv))
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001
        for klass, (code, status) in _ERR_CODES:
            if isinstance(exc, klass):
                print(f"error[{code}] {exc}", file=sys.stderr)
                return status
        print(f"error[INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
