"""Catalog of concrete complex activation functions.

Each entry bundles a vectorized evaluator with whatever analytic side data is
known: closed-form first/second Wirtinger derivatives, a polyharmonicity flag
(the order m with laplacian^m == 0, or the statement that no such order
exists), structural class flags (holomorphic / antiholomorphic / R-affine),
and a predicate marking the non-differentiable locus.  The analytic flags are
authoritative where present; numerical probes are only a fallback.

Wirtinger derivative convention: d = (d/dx - i d/dy)/2, dbar = (d/dx + i d/dy)/2.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .core import ActivationId
from .errors import InvalidActivationParams, UnknownActivation

__all__ = [
    "MEMO_SIZE",
    "ActivationSpec",
    "PolyharmonicFlag",
    "get_activation",
    "available_activations",
    "conjugate_activation",
    "scale_activation",
    "custom_activation",
]


@dataclass(frozen=True)
class PolyharmonicFlag:
    """Analytic polyharmonicity statement: laplacian^order == 0, or none exists."""

    is_polyharmonic: bool
    order: Optional[int] = None


@dataclass(frozen=True)
class ActivationSpec:
    name: str
    params: tuple = ()
    fn: Callable = None
    analytic_first: Optional[Callable] = None    # z0 -> (d, dbar)
    analytic_second: Optional[Callable] = None   # z0 -> (d2, ddbar, dbar2)
    poly_flag: Optional[PolyharmonicFlag] = None
    class_flags: frozenset = frozenset()         # subset of {"holomorphic","antiholomorphic","r_affine"}
    exclusion: Optional[Callable] = None         # z0 -> bool, True on non-differentiable loci
    # act(conj z) == conj(act z) for every z: a fact declared where the spec
    # is built, not probed, and not a class flag
    conj_equivariant: bool = False
    # what is derived from this spec (probe atlases, lowering plans), by key;
    # a spec made by ``dataclasses.replace`` starts empty
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, z) -> np.ndarray:
        """The activation on z, scalar or array, as complex128 values."""
        return np.asarray(self.fn(np.asarray(z, dtype=np.complex128)), dtype=np.complex128)

    @property
    def activation_id(self) -> ActivationId:
        return ActivationId(self.name, self.params)

    def is_excluded(self, z0: complex) -> bool:
        return bool(self.exclusion(complex(z0))) if self.exclusion is not None else False

    def derived(self, key, build: Callable):
        """The fact kept under key, build() on first request: it lives as
        long as this spec.  A build that raises keeps nothing; concurrent
        first requests may each build, and all get the one object kept."""
        if key not in self._derived:  # kept entries are never dropped
            return self._derived.setdefault(key, build())
        return self._derived[key]


def conjugate_activation(spec: ActivationSpec) -> ActivationSpec:
    """conj o spec, kept on spec: every call on one spec returns one
    conjugate, which keeps spec as its own conjugate, so
    ``conjugate_activation(conjugate_activation(s)) is s``.  Wirtinger data
    swaps and conjugates: d(conj f) = conj(dbar f), dbar(conj f) = conj(d f);
    conj o f commutes with conj exactly when f does."""
    return _conjugate(spec)


#: the class flag of conj o f for each class flag of f
_CONJ_FLAGS = {"holomorphic": "antiholomorphic", "antiholomorphic": "holomorphic",
               "r_affine": "r_affine"}


def _conjugate(spec: ActivationSpec) -> ActivationSpec:
    def build():
        conj = _variant(spec, f"conj:{spec.name}", np.conj,
                        lambda d, dbar: (np.conj(dbar), np.conj(d)),
                        lambda d2, ddbar, dbar2: (np.conj(dbar2), np.conj(ddbar), np.conj(d2)),
                        frozenset(_CONJ_FLAGS[flag] for flag in spec.class_flags),
                        spec.conj_equivariant)
        conj.derived("conj", lambda: spec)
        return conj

    return spec.derived("conj", build)


def scale_activation(spec: ActivationSpec, c: complex) -> ActivationSpec:
    """c * spec for a finite nonzero constant c, a fresh spec.  Preserves
    every class property, and commutation with conj where c is real."""
    c = complex(c)
    if c == 0:
        raise InvalidActivationParams("scale constant must be nonzero")
    if not np.isfinite(c):
        raise InvalidActivationParams(f"scale constant {c!r} is not finite")
    times_c = lambda *values: tuple(c * v for v in values)
    return _variant(spec, f"scale({c!r}):{spec.name}", lambda v: c * v, times_c, times_c,
                    spec.class_flags, spec.conj_equivariant and c.imag == 0)


def _variant(spec: ActivationSpec, name: str, fn: Callable, first: Callable,
             second: Callable, class_flags: frozenset,
             conj_equivariant: bool) -> ActivationSpec:
    """fn o spec, named name: spec's closed-form first and second Wirtinger
    derivatives, where it has them, mapped by first(d, dbar) and second(d2,
    ddbar, dbar2); spec's params, polyharmonicity flag and exclusion."""
    first_of, second_of = spec.analytic_first, spec.analytic_second
    return ActivationSpec(
        name=name,
        params=spec.params,
        fn=lambda z: fn(spec.fn(z)),
        analytic_first=None if first_of is None else lambda z0: first(*first_of(z0)),
        analytic_second=None if second_of is None else lambda z0: second(*second_of(z0)),
        poly_flag=spec.poly_flag,
        class_flags=class_flags,
        exclusion=spec.exclusion,
        conj_equivariant=conj_equivariant,
    )


def custom_activation(name: str, fn: Callable, **kwargs) -> ActivationSpec:
    """Wrap a user callable; not reachable through the catalog by name.  It
    commutes with conj only where ``conj_equivariant=True`` says so."""
    return ActivationSpec(name=name, params=(), fn=fn, **kwargs)


# ---------------------------------------------------------------------------
# Catalog members
# ---------------------------------------------------------------------------


#: The least normal float.  1/r is finite from here up; below it, among the
#: subnormal moduli, it overflows.
_TINY = np.finfo(np.float64).tiny


def _modrelu(params: dict) -> ActivationSpec:
    b = float(params.pop("b", -1.0))
    if b >= 0:
        raise InvalidActivationParams(f"modrelu requires b < 0, got {b}")

    # r > -b is s > 0, exactly; the bound only moves for a subnormal b
    r_min = max(-b, _TINY)

    def fn(z):
        # z * (s * (1/r)) outside the dead zone r <= -b and 0 inside it.  The
        # mask also excludes a subnormal r, whose 1/r overflows.  The real
        # factor s/r lies in (0, 1), so the one complex multiply is finite
        # wherever z is (z * s, about r^2, overflows from r ~ 1.3e154).
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z)
        s = r + b
        scl = np.zeros(r.shape)
        np.divide(1.0, r, out=scl, where=r > r_min)
        scl *= s
        return z * scl

    def first(z0):
        r = abs(z0)
        if r + b < 0:
            return 0j, 0j
        # modrelu = z + b*z/|z| on the active region
        return 1 + b / (2 * r), -b * z0 * z0 / (2 * r**3)

    def excl(z0):
        return abs(abs(z0) + b) < 1e-12

    return ActivationSpec(
        name="modrelu",
        params=(("b", b),),
        fn=fn,
        analytic_first=first,
        poly_flag=PolyharmonicFlag(False),
        exclusion=excl,
        conj_equivariant=True,
    )


def _cardioid(params: dict) -> ActivationSpec:
    def fn(z):
        # z * (s / r) with s = (r + Re z)/2, where r is raised to the least
        # subnormal float so that 0 gives 0/5e-324 = 0 without a divide by
        # zero.  The real factor s/r lies in [0, 1], so the one complex
        # multiply is finite wherever z is (to |z| ~ 9e307, where r + Re z
        # overflows), a subnormal r gives the true value, and NaN stays NaN.
        # r is an array even for a scalar z, to be reused in place.
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z, out=np.empty(z.shape))
        s = r + z.real
        s *= 0.5
        s /= np.maximum(r, 5e-324, out=r)
        return z * s

    def first(z0):
        r = abs(z0)
        if r == 0:
            return 0j, 0j
        u = z0 / r
        return 0.5 + np.conj(u) / 8 + 3 * u / 8, -(u**3) / 8 + u / 8

    def excl(z0):
        return abs(z0) < 1e-12

    return ActivationSpec(
        name="cardioid",
        params=(),
        fn=fn,
        analytic_first=first,
        poly_flag=PolyharmonicFlag(False),
        exclusion=excl,
        conj_equivariant=True,
    )


def _holo_exp(params: dict) -> ActivationSpec:
    return ActivationSpec(
        name="exp",
        params=(),
        fn=np.exp,
        analytic_first=lambda z0: (np.exp(z0), 0j),
        analytic_second=lambda z0: (np.exp(z0), 0j, 0j),
        poly_flag=PolyharmonicFlag(True, 1),
        class_flags=frozenset({"holomorphic"}),
        conj_equivariant=True,
    )


def _antiholo_exp(params: dict) -> ActivationSpec:
    return ActivationSpec(
        name="antiholo_exp",
        params=(),
        fn=lambda z: np.exp(np.conj(z)),
        analytic_first=lambda z0: (0j, np.exp(np.conj(z0))),
        analytic_second=lambda z0: (0j, 0j, np.exp(np.conj(z0))),
        poly_flag=PolyharmonicFlag(True, 1),
        class_flags=frozenset({"antiholomorphic"}),
        conj_equivariant=True,
    )


def _r_affine(params: dict) -> ActivationSpec:
    a = complex(params.pop("a", 1))
    b = complex(params.pop("b", 0))
    c = complex(params.pop("c", 0))
    flags = {"r_affine"}
    if b == 0:
        flags.add("holomorphic")
    if a == 0:
        flags.add("antiholomorphic")
    return ActivationSpec(
        name="r_affine",
        params=(("a", a), ("b", b), ("c", c)),
        fn=lambda z: a * z + b * np.conj(z) + c,
        analytic_first=lambda z0: (a, b),
        analytic_second=lambda z0: (0j, 0j, 0j),
        poly_flag=PolyharmonicFlag(True, 1),
        class_flags=frozenset(flags),
        conj_equivariant=all(v.imag == 0 for v in (a, b, c)),
    )


def _re_square(params: dict) -> ActivationSpec:
    # RE(z)^2 = (z^2 + 2 z zbar + zbar^2)/4; laplacian == 2, so order 2.
    return ActivationSpec(
        name="re_square",
        params=(),
        fn=lambda z: np.real(z).astype(np.complex128) ** 2,
        analytic_first=lambda z0: (complex(np.real(z0)), complex(np.real(z0))),
        analytic_second=lambda z0: (0.5 + 0j, 0.5 + 0j, 0.5 + 0j),
        poly_flag=PolyharmonicFlag(True, 2),
        conj_equivariant=True,
    )


def _z_plus_zbar_sq(params: dict) -> ActivationSpec:
    # z + zbar^2 is harmonic: d = 1 everywhere, dbar = 2 zbar.
    return ActivationSpec(
        name="z_plus_zbar_sq",
        params=(),
        fn=lambda z: z + np.conj(z) ** 2,
        analytic_first=lambda z0: (1 + 0j, 2 * np.conj(z0)),
        analytic_second=lambda z0: (0j, 0j, 2 + 0j),
        poly_flag=PolyharmonicFlag(True, 1),
        conj_equivariant=True,
    )


def _abs_square(params: dict) -> ActivationSpec:
    def fn(z):
        # conj(z) is bound to a name so that numpy cannot reuse it in place:
        # from 16,384 values on it would compute conj(z) * z, and a complex
        # product in the other order can differ in the last bit
        zbar = np.conj(z)
        return (z * zbar).astype(np.complex128)

    return ActivationSpec(
        name="abs_square",
        params=(),
        fn=fn,
        analytic_first=lambda z0: (np.conj(z0), complex(z0)),
        analytic_second=lambda z0: (0j, 1 + 0j, 0j),
        poly_flag=PolyharmonicFlag(True, 2),
        conj_equivariant=True,
    )


def _exp_re(params: dict) -> ActivationSpec:
    # phi(RE z) with phi = exp; d = dbar = exp(x)/2, never polyharmonic.
    def first(z0):
        v = np.exp(np.real(z0)) / 2
        return complex(v), complex(v)

    def second(z0):
        v = np.exp(np.real(z0)) / 4
        return complex(v), complex(v), complex(v)

    return ActivationSpec(
        name="exp_re",
        params=(),
        fn=lambda z: np.exp(np.real(z)).astype(np.complex128),
        analytic_first=first,
        analytic_second=second,
        poly_flag=PolyharmonicFlag(False),
        conj_equivariant=True,
    )


def _tanh_re(params: dict) -> ActivationSpec:
    def first(z0):
        x = np.real(z0)
        v = (1 - np.tanh(x) ** 2) / 2
        return complex(v), complex(v)

    def second(z0):
        x = np.tanh(np.real(z0))
        v = (-2 * x * (1 - x**2)) / 4
        return complex(v), complex(v), complex(v)

    return ActivationSpec(
        name="tanh_re",
        params=(),
        fn=lambda z: np.tanh(np.real(z)).astype(np.complex128),
        analytic_first=first,
        analytic_second=second,
        poly_flag=PolyharmonicFlag(False),
        conj_equivariant=True,
    )


#: Truncation order of the cosine series standing in for a genuinely
#: nowhere-differentiable bump.  With (a, b) = (0.5, 7) the k-th term
#: oscillates at wavelength ~ 2 / 7^k, so the truncated sum is technically
#: smooth below that scale; probes are only meaningful above it.
_WEIERSTRASS_A = 0.5
_WEIERSTRASS_B = 7.0
#: The largest truncation order whose top frequency 7^k pi is finite; from
#: 365 on it overflows and every value is NaN.
_KTRUNC_MAX = 364


def _nowhere_diff(params: dict) -> ActivationSpec:
    ktrunc = params.pop("ktrunc", 20)
    if not (1 <= ktrunc <= _KTRUNC_MAX and float(ktrunc).is_integer()):
        raise InvalidActivationParams(
            f"ktrunc must be an integer in [1, {_KTRUNC_MAX}], got {ktrunc!r}")
    ktrunc = int(ktrunc)
    ks = np.arange(ktrunc + 1)
    amps = _WEIERSTRASS_A**ks
    freqs = _WEIERSTRASS_B**ks * np.pi

    def wsum(x):
        # reduces each point's terms on its own, in a fixed order, so a value
        # does not depend on the other points of the call (a BLAS tensordot
        # may sum them differently for different batch shapes); one
        # (points, terms) buffer, updated in place
        terms = np.multiply.outer(x, freqs)
        np.cos(terms, out=terms)
        terms *= amps
        return terms.sum(axis=-1)

    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        w = wsum(np.real(z)) + 1j * wsum(np.imag(z))
        decay = np.exp(-z)  # named, as conj(z) in _abs_square
        return np.sin(z) + w * decay

    return ActivationSpec(
        name="nowhere_diff",
        params=(("ktrunc", ktrunc),),
        fn=fn,
        poly_flag=PolyharmonicFlag(False),
    )


_BUILDERS = {
    "modrelu": _modrelu,
    "cardioid": _cardioid,
    "exp": _holo_exp,
    "antiholo_exp": _antiholo_exp,
    "r_affine": _r_affine,
    "re_square": _re_square,
    "z_plus_zbar_sq": _z_plus_zbar_sq,
    "abs_square": _abs_square,
    "exp_re": _exp_re,
    "tanh_re": _tanh_re,
    "nowhere_diff": _nowhere_diff,
}


def available_activations() -> tuple:
    return tuple(sorted(_BUILDERS))


#: How many catalog specs ``get_activation`` keeps, the most recently used:
#: every catalog name at two parameter settings.  A ``conj:`` form is kept on
#: its base spec and takes no room of its own, and a spec's probe atlases and
#: lowering plans live on it, so this bounds them too.
MEMO_SIZE = 2 * len(_BUILDERS)


#: The shared catalog specs, least recently used first, keyed by name and
#: the repr of the built parameters: repr, unlike ==, tells -0.0 from 0.0,
#: which build different specs.  No key names a ``conj:`` form.
_SHARED_SPECS: "OrderedDict[tuple, ActivationSpec]" = OrderedDict()
_SPECS_LOCK = threading.Lock()


def get_activation(name: str, params: Optional[Mapping] = None) -> ActivationSpec:
    """Look up a catalog activation.  A ``conj:`` prefix gives the conjugate
    kept on the inner activation (``conjugate_activation``), so
    ``conj:conj:X`` is X itself.  A parameter value that is not finite, or a
    parameter the activation does not read, raises InvalidActivationParams.

    Calls that build the same name and parameter values (the sign of a zero
    included) return one shared spec while it is among the MEMO_SIZE most
    recently used, so its probe atlases and lowering plans, which live on
    it, serve every such call; a ``conj:`` form lives, and is evicted, with
    its base spec.  Every call validates its parameters; a failed one is not
    remembered.  ``custom_activation``, ``scale_activation`` and
    ``dataclasses.replace`` make a fresh spec on every call, which derives
    its facts anew."""
    return _shared(name, dict(params or {}))


def _shared(name: str, params: dict) -> ActivationSpec:
    """The shared spec of a catalog name, through private names only, so
    that a wrapper installed over a public constructor never enters the
    shared specs."""
    if name.startswith("conj:"):
        return _conjugate(_shared(name[len("conj:"):], params))
    spec = _build(name, params)
    key = (spec.name, repr(spec.params))
    with _SPECS_LOCK:
        spec = _SHARED_SPECS.pop(key, spec)
        _SHARED_SPECS[key] = spec
        if len(_SHARED_SPECS) > MEMO_SIZE:
            _SHARED_SPECS.popitem(last=False)
    return spec


def _build(name: str, params: dict) -> ActivationSpec:
    """A new spec of a catalog name without a ``conj:`` prefix."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownActivation(f"unknown activation {name!r}")
    for key, value in params.items():
        if not np.isfinite(value):
            raise InvalidActivationParams(f"{name} parameter {key}={value!r} is not finite")
    spec = builder(params)  # each builder pops the parameters it reads
    if params:
        raise InvalidActivationParams(f"{name} reads no parameter {', '.join(sorted(params))}")
    return spec
