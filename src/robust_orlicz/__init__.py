"""Robust Orlicz norms over discrete multi-prior scenario models.

Worst-case Luxemburg norms and their penalised variants, Köthe-dual
norms with dual witnesses, dominating-measure construction, closure and
membership diagnostics on truncated Gaussian ladders, option-span
approximation, and aggregation of variational preferences into Orlicz
families.
"""

from .diagnostics import (MomentGrowthReport, TailProfile, Truncation,
                          discretise_standard_normal, gaussian_abs_moment,
                          gaussian_power_ladder,
                          gaussian_uniform_family_ladder, membership_classify,
                          mixture_witness, moment_growth, tail_membership)
from .domination import (DominationReport, UIProfile, dominating_measure,
                         uniform_integrability_report)
from .duality import (DualWitness, L1ReductionReport, canonical_projection,
                      dual_witness, kothe_dual_norm, prior_norm_bound,
                      verify_l1_reduction)
from .errors import ConsistencyError, ValidationError
from .model import (MeasureVector, RandomVariable, ScenarioModel,
                    canonicalise, expectation, qs_max, qs_min, qs_order)
from .norms import (NormResult, OrliczFamily, luxemburg_norm, modular,
                    penalised_norm, risk_measure, single_prior_luxemburg,
                    weighted_lp_norm)
from .orlicz import (EssSupIndicator, Exponential, OrliczFunction,
                     PiecewiseLinear, Power, Scaled, validate_orlicz)
from .preferences import (Agent, AggregateOrlicz, CARAUtility, LinearUtility,
                          PiecewiseLinearUtility, aggregate_family,
                          evaluate_utility, verify_extension_bound)
from .serialization import (agents_from_json, decode_float, dumps_report,
                            encode_float, family_from_json, family_to_json,
                            jsonify, model_from_json, model_to_json,
                            orlicz_from_json, orlicz_to_json,
                            utility_from_json)
# no module imports scalar, but perfbench's tracer looks it up in sys.modules
from . import scalar
from .spanning import (OptionBasis, ProjectionResult, SpanningReport,
                       option_basis, project_onto_span, spanning_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
