"""Skew perspective configurations: construction, analysis, classification,
isomorphism testing and projective realization of partial Steiner triple
systems built by joining complete graphs through a center.
"""

__version__ = "1.0.0"

from .incidence import (Configuration, ConfigurationSignature, IncidenceError,
                        PointLabel, ViolationReport, a_point, b_point, c_point,
                        center, free_point, from_json, join, parse_label,
                        third_point, to_json, verify)
from .perms import (PairPermutation, Permutation, all_permutations,
                    induced_pair_map, kappa, kappa_composed, parse_cycles)
from .families import (SkewPerspectiveSpec, desargues, enumerate_veblen, fez,
                       grassmannian, kantor, kappa_spec, multiveblen,
                       perm_spec, quasi_grassmannian, skew_perspective,
                       veblen_catalog, veronesian, zeta)
from .analysis import (classify_pair_skew, free_complete_subgraphs, free_count,
                       is_freely_contained, reperspective,
                       third_graph_criterion)
from .iso import (are_isomorphic, automorphism_count, canonical_form,
                  criterion_iso, is_isomorphism)
from .census import (CensusEntry, census_n4, classify_grasaxis, full_census,
                     identify)
from .realize import (Realization, closure_check, collinear, embed_search,
                      fez_closure_witness, parametric_realization,
                      verify_pg_embedding, verify_realization)
