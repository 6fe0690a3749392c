"""deepnarrow: constructive toolkit for deep narrow complex-valued networks.

Classifies complex activation functions by the pattern of their Wirtinger
derivatives, synthesizes explicit bounded-width networks through a
register-model compiler, and verifies approximation behavior and width
budgets numerically on compact boxes.
"""

from .activations import (ActivationSpec, PolyharmonicFlag, available_activations,
                          conjugate_activation, custom_activation, get_activation,
                          scale_activation)
from .blocks import (ShallowBlock, conj_block, id_conj_pair_block, identity_block,
                     mul_block, pair_block, square_block)
from .core import (CompactBox, ComplexAffineMap, Cvnn, GridSpec, cvnn_from_json,
                   cvnn_to_json, depth_of, eval_affine, eval_cvnn, fuse_affine,
                   hidden_widths, sample_box, width_of)
from .errors import (ConstructionError, DimensionMismatch, EvaluationFailure,
                     FitSingular, InvalidActivationParams, ProbeFailed,
                     StrategyMismatch, UnknownActivation)
from .fitting import FitConfig, fit_poly, fit_shallow
from .lowering import STRATEGIES, default_strategy, lower, strategy_width_budget
from .register import (MonomialPlan, PolyZZbar, RegisterProgram, eval_register,
                       plan_monomial, poly_to_register, program_from_json,
                       program_to_json, shallow_to_register)
from .verifier import (SweepReport, end_to_end_nonpoly, end_to_end_poly, h_sweep,
                       l1_error_mc, sup_error)
from .wirtinger import (Classification, ProbeAtlas, ToleranceProfile, WirtingerProbe,
                        classify_activation, find_active_point,
                        find_nonzero_second_point, laplacian_iterate, probe_atlas,
                        taylor_remainder_probe, wirt_first, wirt_second)

__version__ = "0.1.0"
