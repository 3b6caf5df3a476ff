"""Joint measurability of binary qubit POVMs.

Closed-form compatibility criteria, explicit joint-POVM constructors,
structure enumeration and canonical forms, a projection-based feasibility
oracle, and certified realizations of all 20 four-vertex structures.
"""

from .povm import (
    BinaryQubitPovm,
    BlochVector,
    Effect,
    JointPovm,
    ValidationReport,
    apply_orthogonal,
    povms_from_json_dict,
    povms_to_json_dict,
    relabel_outcomes,
    unbiased_povm,
    validate_povm,
)
from .criteria import (
    COMPATIBLE,
    INCOMPATIBLE,
    UNKNOWN,
    IFF,
    NECESSARY_ONLY,
    SUFFICIENT_ONLY,
    Verdict,
    best_chain_ordering,
    chain_margin,
    coplanar_chain_bound,
    fermat_torricelli,
    general_binary_sufficient,
    n_necessary_sufficient,
    pair_general,
    pair_same_purity_bound,
    pair_unbiased,
    planar_nwise_bound,
    planar_pair_bound,
    planar_subset_bound,
    planar_symmetric_nwise,
    triple_unbiased,
)
from .surgery import (
    AppliedRelabeling,
    PlanarSymmetricFamily,
    build_coplanar_same_purity_joint,
    build_general_binary_joint,
    build_planar_symmetric_joint,
    surgery_mtuple,
)
from .structures import (
    JmStructure,
    canonicalize,
    enumerate_structures,
    n_cycle,
    n_specker,
    nm_compatible,
    structure_of,
)
from .symmetry import (
    IDENTITY,
    SymmetryElement,
    act_on_index,
    act_on_indices,
    compose,
    group_elements,
    inverse,
    rotation_matrix,
)
from .oracle import (
    FEASIBLE,
    INCONCLUSIVE,
    LIKELY_INFEASIBLE,
    FeasibilityVerdict,
    OracleParams,
    agreement_sweep,
    decide,
    verify_dual,
    verify_witness,
)
from .realizer import (
    ATLAS_IDS,
    MISC_SCENARIOS,
    UNDECIDED_INTERVAL_N5,
    RealizationCertificate,
    VerificationReport,
    atlas_manifest,
    closed_form_decider,
    n_cycle_window,
    n_specker_window,
    oracle_decider,
    realize_four_vertex,
    realize_misc,
    realize_n_cycle,
    realize_n_specker,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
