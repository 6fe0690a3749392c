import numpy as np
import pytest
from hypothesis import settings

from deepnarrow import activations
from deepnarrow.activations import get_activation
from deepnarrow.core import ComplexAffineMap, Cvnn, eval_cvnn
from deepnarrow.verifier import sup_error
from deepnarrow.wirtinger import ToleranceProfile, first_derivs, taylor_remainder_probe

# Every property test draws the same examples on every run and keeps no
# example database.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


#: A lowering case by label: (strategy, activation).  Each strategy lowers
#: over an activation it plans for directly, and "NonPoly_Conj_NMplus1"
#: labels NonPoly_NMplus1 over conj:cardioid, which has a lone dbar and no
#: lone d: its plan writes the program against sigma = conj o conj:cardioid
#: = cardioid, and, since conj:cardioid commutes with conj, its network is
#: cardioid's with every odd map conjugated (after one more stage of identity
#: blocks on the outputs where cardioid's has an odd count of hidden layers).
LOWERING_CASES = {
    "NonPoly_NMplus1": ("NonPoly_NMplus1", get_activation("cardioid")),
    "NonPoly_Conj_NMplus1": ("NonPoly_NMplus1", get_activation("conj:cardioid")),
    "NonPoly_2N2Mplus1": ("NonPoly_2N2Mplus1", get_activation("modrelu", {"b": -1})),
    "Poly_Wide_2N2Mplus12": ("Poly_Wide_2N2Mplus12", get_activation("re_square")),
    "Poly_Narrow_2N2Mplus5": ("Poly_Narrow_2N2Mplus5", get_activation("re_square")),
    "Poly_NMplus4": ("Poly_NMplus4", get_activation("z_plus_zbar_sq")),
}


def random_affine(rng, out_dim, in_dim, scale=1.0):
    m = scale * (rng.standard_normal((out_dim, in_dim))
                 + 1j * rng.standard_normal((out_dim, in_dim)))
    b = scale * (rng.standard_normal(out_dim) + 1j * rng.standard_normal(out_dim))
    return ComplexAffineMap(m, b)


def random_shallow(rng, n, m, width, activation_id, scale=1.0):
    return Cvnn((random_affine(rng, width, n, scale),
                 random_affine(rng, m, width, scale)), activation_id)


def random_points(rng, count, n, scale=1.0):
    return scale * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))


def block_values(blk, spec, zs):
    """A shallow block's values on zs: the depth-2 network it is, evaluated."""
    return eval_cvnn(blk.to_cvnn(spec), zs, spec.fn)


def block_sup_error(blk, spec, target, box, grid):
    """A shallow block's sup error against target, measured as its network."""
    return sup_error(target, lambda zs: block_values(blk, spec, zs), box, grid)


def taylor_reports(spec, centres, prof=ToleranceProfile()):
    """The Taylor-remainder probe of the centres, with each centre's d and
    dbar from ``first_derivs``."""
    firsts = [first_derivs(spec, z0, prof) for z0 in centres]
    return taylor_remainder_probe(spec, np.asarray(centres, dtype=np.complex128),
                                  np.array([f[0] for f in firsts]),
                                  np.array([f[1] for f in firsts]))


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with no shared catalog specs, and so with no probe
    atlas or lowering plan kept on one, so that the scans and plans a test
    counts do not depend on the tests that ran before it.  A spec built at
    collection time keeps what is derived from it: a test that counts
    builds its spec itself."""
    activations._SHARED_SPECS.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
