"""Timing and counting shims around deepnarrow's public functions.

``install`` replaces each traced function everywhere it is bound, in the
module that defines it and in every module that imported it by name (for
example ``verifier.lower`` and ``blocks.second_derivs``), and returns a
handle whose ``restore`` puts the originals back.  Nothing in deepnarrow
changes; the shims live only in this file.

Each shim call is one frame on a stack.  On exit a frame adds its duration
to its parent's child time, so self time = duration - child time.  Frames
also belong to a group (say ``wirtinger.probe``); the outermost frame of a
group adds to the group's time, so nested calls are not counted twice.
Recorded spans (name, start, end, parent span, operation id, attributes) are
kept in memory and written out by ``Tracer.dump``.  High-frequency leaf calls
(activation evaluations, probes, affine-map constructions) are aggregated
instead of recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._span = None          # innermost open recorded span
        self._open = defaultdict(int)
        self.new_round()

    def new_round(self):
        self.names = defaultdict(lambda: [0, 0.0, 0.0])   # count, inclusive, self
        self.groups = defaultdict(lambda: [0, 0.0])       # outermost count, time
        self.counts = defaultdict(float)
        self.peak_bytes = 0

    def enter(self, name, group, record, attrs=None):
        span_id = None
        if record:
            span_id = len(self.spans)
            self.spans.append([span_id, name, 0.0, 0.0, self._span, self.op, attrs])
        frame = [name, group, 0.0, 0.0, span_id, self._span]
        if record:
            self._span = span_id
        self._open[group] += 1
        self._stack.append(frame)
        frame[2] = _clock()
        return frame

    def exit(self, frame):
        end = _clock()
        self._stack.pop()
        name, group, start, child, span_id, parent_span = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        stats = self.names[name]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - child
        self._open[group] -= 1
        if not self._open[group]:
            g = self.groups[group]
            g[0] += 1
            g[1] += dur
        if span_id is not None:
            self._span = parent_span
            self.spans[span_id][2] = start
            self.spans[span_id][3] = end

    def outermost(self, group) -> bool:
        return self._open[group] == 0

    def wrap(self, fn, name, group=None, record=True, attrs=None, on_result=None):
        group = group or name

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = self.enter(name, group, record, attrs(*args) if attrs else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(out, *args)
            return out

        return shim

    # -- derived numbers -----------------------------------------------------

    def group_time(self, group) -> float:
        return self.groups[group][1]

    def group_count(self, group) -> int:
        return self.groups[group][0]

    def name_count(self, name) -> int:
        return self.names[name][0]

    def self_time(self, name) -> float:
        return self.names[name][2]

    def dump(self, path, extra):
        """Write spans, per-h rows and ``extra`` as one JSON document."""
        fields = ("id", "name", "start", "end", "parent", "op", "attrs")
        doc = dict(extra, spans=[dict(zip(fields, s)) for s in self.spans],
                   per_h=self.per_h_rows())
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def per_h_rows(self) -> list:
        """One row per (sweep, h): the lowering span and the sup-error span
        that measured its network."""
        rows = []
        children = defaultdict(list)
        for s in self.spans:
            children[s[4]].append(s)
        for sweep in (s for s in self.spans if s[1] == "verifier.h_sweep"):
            pending = None
            for c in children[sweep[0]]:
                if c[1] == "lowering.lower":
                    pending = c
                elif c[1] == "verifier.sup_error" and pending is not None:
                    rows.append({"op": sweep[5], "h": pending[6]["h"],
                                 "lower_s": pending[3] - pending[2],
                                 "sup_s": c[3] - c[2]})
                    pending = None
        return rows


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------

#: (module, function, span name, group, recorded as a span)
_FUNCTIONS = (
    ("wirtinger", "classify_activation", "wirtinger.classify", None, True),
    ("wirtinger", "find_active_point", "wirtinger.find_active_point", None, True),
    ("wirtinger", "find_nonzero_second_point", "wirtinger.find_nonzero_second_point", None, True),
    ("wirtinger", "first_derivs", "wirtinger.first_derivs", "wirtinger.probe", False),
    ("wirtinger", "second_derivs", "wirtinger.second_derivs", "wirtinger.probe", False),
    ("wirtinger", "wirt_first", "wirtinger.wirt_first", "wirtinger.probe", False),
    ("wirtinger", "wirt_second", "wirtinger.wirt_second", "wirtinger.probe", False),
    ("wirtinger", "taylor_remainder_probe", "wirtinger.taylor_remainder_probe",
     "wirtinger.probe", False),
    ("wirtinger", "laplacian_iterate", "wirtinger.laplacian_iterate", "wirtinger.probe", False),
    ("wirtinger", "probe_point", "wirtinger.probe_point", "wirtinger.probe", False),
    ("fitting", "fit_shallow", "fitting.fit_shallow", "fitting.fit", True),
    ("fitting", "fit_poly", "fitting.fit_poly", "fitting.fit", True),
    ("fitting", "solve_complex_ridge", "fitting.solve_complex_ridge", "fitting.fit", True),
    ("register", "shallow_to_register", "register.shallow_to_register", "register.rewrite", True),
    ("register", "poly_to_register", "register.poly_to_register", "register.rewrite", True),
    ("register", "plan_monomial", "register.plan_monomial", "register.rewrite", False),
    ("register", "eval_register", "register.eval_register", "register.eval", True),
    ("blocks", "identity_block", "blocks.identity_block", "blocks.build", True),
    ("blocks", "conj_block", "blocks.conj_block", "blocks.build", True),
    ("blocks", "pair_block", "blocks.pair_block", "blocks.build", True),
    ("blocks", "id_conj_pair_block", "blocks.id_conj_pair_block", "blocks.build", True),
    ("blocks", "square_block", "blocks.square_block", "blocks.build", True),
    ("blocks", "mul_block", "blocks.mul_block", "blocks.build", True),
    ("lowering", "lower_pieces", "lowering.lower_pieces", "lowering.pieces", True),
    ("lowering", "assemble_pieces", "lowering.assemble_pieces", "lowering.assemble", True),
    ("lowering", "default_strategy", "lowering.default_strategy", None, True),
    ("core", "sample_box", "core.sample_box", "core.sample", True),
    ("core", "fuse_affine", "core.fuse_affine", "core.fuse", False),
    ("verifier", "end_to_end_poly", "verifier.end_to_end_poly", "verifier.pipeline", True),
    ("verifier", "end_to_end_nonpoly", "verifier.end_to_end_nonpoly", "verifier.pipeline", True),
    ("verifier", "mul_kind_for", "verifier.mul_kind_for", None, True),
)

_ACTIVATION_FACTORIES = ("get_activation", "conjugate_activation", "scale_activation",
                         "custom_activation")


def _timed_activation(tracer, fn):
    def timed(z):
        outer = tracer.outermost("activations.eval")
        frame = tracer.enter("activations.eval", "activations.eval", False)
        try:
            return fn(z)
        finally:
            tracer.exit(frame)
            if outer:
                tracer.counts["activations.values"] += getattr(z, "size", 1)

    return timed


def _sup_error_with_peak(tracer, fn):
    """sup_error with tracemalloc running inside its outermost call: the peak
    of memory allocated while measuring one network."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        outer = tracer.outermost("verifier.sup")
        frame = tracer.enter("verifier.sup_error", "verifier.sup", True)
        if outer:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if outer:
                tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            tracer.exit(frame)

    return shim


class Installed:
    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def install(tracer: Tracer, package, memory: bool = False) -> Installed:
    """Shim ``package``'s public functions in every module that binds them;
    with ``memory``, sup_error also records its tracemalloc peak."""
    names = ("core", "activations", "wirtinger", "blocks", "register", "lowering",
             "fitting", "verifier", "cli")
    modules = {n: importlib.import_module(f"{package.__name__}.{n}") for n in names}
    bound = [package] + list(modules.values())
    inst = Installed()

    def replace_everywhere(orig, shim):
        for mod in bound:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    inst.set(mod, attr, shim)

    def count(key, measure):
        def on_result(out, *args):
            tracer.counts[key] += measure(out, *args)
        return on_result

    results = {
        "register.shallow_to_register": count("register.program_layers", lambda p, *a: len(p.layers)),
        "register.poly_to_register": count("register.program_layers", lambda p, *a: len(p.layers)),
    }
    for mod_name, fn_name, span, group, record in _FUNCTIONS:
        orig = getattr(modules[mod_name], fn_name)
        replace_everywhere(orig, tracer.wrap(orig, span, group, record,
                                             on_result=results.get(span)))

    lower = modules["lowering"].lower
    replace_everywhere(lower, tracer.wrap(
        lower, "lowering.lower", attrs=lambda program, spec, strategy, h, *a: {"h": h},
        on_result=count("lowering.hidden_layers", lambda net, *a: len(net.affine_maps) - 1)))

    h_sweep = modules["verifier"].h_sweep
    replace_everywhere(h_sweep, tracer.wrap(
        h_sweep, "verifier.h_sweep", "verifier.sweep",
        on_result=count("verifier.rows", lambda rep, *a: len(rep.rows))))

    sup_error = modules["verifier"].sup_error
    replace_everywhere(sup_error, _sup_error_with_peak(tracer, sup_error) if memory else
                       tracer.wrap(sup_error, "verifier.sup_error", "verifier.sup"))

    eval_cvnn = modules["core"].eval_cvnn
    replace_everywhere(eval_cvnn, tracer.wrap(
        eval_cvnn, "core.eval_cvnn", "core.eval",
        on_result=count("core.point_layers",
                        lambda out, net, z, *a: len(z) * (len(net.affine_maps) - 1))))

    to_json = modules["core"].cvnn_to_json
    replace_everywhere(to_json, tracer.wrap(
        to_json, "core.cvnn_to_json", "core.to_json",
        on_result=count("core.net_json_bytes", lambda text, *a: len(text))))

    affine = modules["core"].ComplexAffineMap
    inst.set(affine, "__post_init__", tracer.wrap(
        affine.__post_init__, "core.affine_map", record=False))

    for fn_name in _ACTIVATION_FACTORIES:
        orig = getattr(modules["activations"], fn_name)

        def factory(*args, _orig=orig, **kwargs):
            spec = _orig(*args, **kwargs)
            return dataclasses.replace(spec, fn=_timed_activation(tracer, spec.fn))

        replace_everywhere(orig, functools.wraps(orig)(factory))
    return inst


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures of one round, from the tracer's round counters."""
    eval_s = t.group_time("activations.eval")
    lower_s = t.group_time("lowering.lower")
    cvnn_s = t.group_time("core.eval")
    return {
        "activations.eval_s": eval_s,
        "activations.values_per_s": t.counts["activations.values"] / eval_s if eval_s else 0.0,
        "core.eval_s": t.self_time("core.eval_cvnn"),
        "verifier.sweep_s": t.group_time("verifier.sweep") - lower_s,
        "verifier.sup_s": t.group_time("verifier.sup"),
        "verifier.point_layers_per_s": t.counts["core.point_layers"] / cvnn_s if cvnn_s else 0.0,
        "verifier.peak_mb": t.peak_bytes / 2**20,
        "verifier.rows": t.counts["verifier.rows"],
        "lowering.lower_s": lower_s,
        "lowering.pieces_s": t.group_time("lowering.pieces"),
        "lowering.assemble_s": t.group_time("lowering.assemble"),
        "lowering.hidden_layers_per_s": t.counts["lowering.hidden_layers"] / lower_s if lower_s else 0.0,
        "core.affine_maps_built": t.name_count("core.affine_map"),
        "core.affine_build_s": t.group_time("core.affine_map"),
        "wirtinger.classify_s": t.group_time("wirtinger.classify"),
        "wirtinger.first_probes": t.name_count("wirtinger.first_derivs"),
        "wirtinger.second_probes": t.name_count("wirtinger.second_derivs"),
        "wirtinger.taylor_probes": t.name_count("wirtinger.taylor_remainder_probe"),
        "wirtinger.probe_s": t.group_time("wirtinger.probe"),
        "blocks.builds": t.group_count("blocks.build"),
        "blocks.build_s": t.group_time("blocks.build"),
        "fitting.fit_s": t.group_time("fitting.fit"),
        "register.rewrite_s": t.group_time("register.rewrite"),
        "register.program_layers": t.counts["register.program_layers"],
        "register.eval_s": t.group_time("register.eval"),
        "core.sample_s": t.group_time("core.sample"),
        "core.to_json_s": t.group_time("core.to_json"),
        "core.net_json_bytes": t.counts["core.net_json_bytes"],
    }
