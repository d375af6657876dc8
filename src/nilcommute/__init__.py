"""Jordan types of commuting nilpotent matrices at desk scale.

Partitions and their block calculus, the binary-word coding, the box
attached to a stable partition, exact commutant linear algebra over a
prime field, locus equations and their Monte-Carlo verification, and
min-plus corank prediction.
"""

from .partitions import (
    EMPTY,
    Dominance,
    Partition,
    almost_rectangular,
    ar_blocks,
    ar_notation,
    classify,
    delta,
    dominance_compare,
    dominance_max,
    dominates,
    frequency,
    is_almost_rectangular,
    is_stable,
    jordan_from_coranks,
    key,
    min_ar_cover,
    partitions_of,
    r_set,
)
from .burge import (
    BurgeDecodeError,
    BurgeWord,
    box_codes,
    box_partitions,
    decode,
    dmap,
    encode,
    table,
    two_part_code,
)
from .modpoly import DEFAULT_PRIME, TruncPoly, det2, is_prime, matmul, rank
from .commutator import (
    CommutatorElement,
    TwoPartElement,
    assemble_blocks,
    dmap_oracle,
    jordan_type_of_matrix,
    jordan_types,
    sample_commutator,
    sample_two_part,
)
from .tropical import (
    INF,
    TropicalHypothesisError,
    closed_form_power,
    corank_from_orders,
    minplus_mul,
    minplus_power,
    order_matrix,
    predicted_coranks,
    predicted_jordan_type,
)
from .loci import (
    BranchReport,
    CellReport,
    ContainmentReport,
    EquationSet,
    IntersectReport,
    Quadric,
    SurveyReport,
    closure_contains,
    equations,
    intersect_experiment,
    sample_on_locus,
    survey,
    verify_cell,
)

__all__ = [name for name in dir() if not name.startswith("_")]
