"""Exact Chevalley-Eilenberg models of compact homogeneous manifolds:
contact and locally conformal symplectic structures of the first kind,
basic cohomology, and hard Lefschetz verification by finite rational
linear algebra."""

__version__ = "0.1.0"

from .errors import (DegreeError, HardLefError, InternalConsistencyError,
                     ModelMismatchError, NonUniqueLeeFieldError,
                     NonUniqueReebError, NotClosedError, NotLefschetzError,
                     NotProjectableError, NotVolumeError, ParseError,
                     PreconditionError, RankDefectError, ValidationError)
from .exterior import (Form, Vector, contract, top_coefficient, wedge,
                       wedge_power)
from .model import StructureModel
from .cohomology import (CohomologySpace, Subcomplex, basic_complex,
                         betti_numbers, full_complex, splitting_check,
                         splitting_map)
from .structures import (ContactStructure, LcsStructure, product_with_circle,
                         quotient_contact, vaisman_candidate_report,
                         validate_contact, validate_lcs)
from .lefschetz import (CohomologyRelation, LefschetzVerdict,
                        basic_lefschetz_relation, betti_parity_check,
                        contact_lefschetz_relation, de_rham_lefschetz_relation,
                        gysin_sequence_check, is_graph_of_isomorphism,
                        lefschetz_equivalence_report, lefschetz_map_basic,
                        lefschetz_map_de_rham, pairing_psi,
                        search_lefschetz_mismatches, t_map,
                        uv_basic_lefschetz)
from .catalog import CatalogEntry, builtin_entries

__all__ = [name for name in dir() if not name.startswith("_")]
