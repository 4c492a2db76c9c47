"""Exact-rational workbench for sequence-space combinatorics."""

__version__ = "0.1.0"

from .caps import Caps, load_caps
from .constants import (ConstantQuery, ConstantReport, ConstantWitness,
                        compute_constant, verify_witness)
from .elton import (EltonLayout, EltonParams, LayoutVector,
                    StructuredFunctional, VectorTriple, brute_miniature,
                    build_layout, build_vectors, case_bounds, elton_ladder,
                    k_lower_certificate, layout_norm, quasi_case_bounds,
                    quasi_certificate, structured_dp, validate_params)
from .errors import (DomainError, InternalError, MissingInputError,
                     RationalFormatError, SchemaError, SizeError, UnclabError)
from .mrdemo import coded_norm_instance, mr_demo, special_sequence
from .norms import (Certificate, Functional, NormInstance, SparseVector,
                    build_standard, dual_certificate, eval_norm)
from .ramsey import (ColourFamily, MatchingWitness, PrefixContinuousMap,
                     is_initial_segment, make_pattern, matching_from_map,
                     remark_family, restrict_pattern, search_matching,
                     validate_matching, validate_matching_data,
                     validate_pure_matching, weakly_hereditary)
from .rationals import format_rational, parse_rational
from .resolutions import (Resolution, bracket, build_rademacher,
                          choose_multiplicities, eta_orthogonal,
                          explore_orthogonal_family, longest_chain,
                          mutual_bracket, pattern_embeds, rademacher_bound,
                          repeat_resolution, ris_condition)
from .schreier import (LevelSplit, SchreierDecomposition, interval_ladder,
                       level_split, oscillation, schreier_decompose,
                       schreier_member)
