"""Jordan types of commuting nilpotent matrices at desk scale.

Partitions and their block calculus, the binary-word coding, the box
attached to a stable partition, exact commutant linear algebra over a
prime field, locus equations and their Monte-Carlo verification, and
min-plus corank prediction.
"""

from .partitions import (
    EMPTY,
    Partition,
    almost_rectangular,
    ar_blocks,
    ar_notation,
    classify,
    delta,
    dominance_max,
    dominates,
    frequency,
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
from .modpoly import DEFAULT_PRIME, TruncPoly, is_prime, matmul, rank
from .commutator import (
    CommutatorElement,
    assemble_blocks,
    dmap_oracle,
    jordan_type_of_matrix,
    jordan_types,
    sample_commutator,
)
from .tropical import (
    closed_form_power,
    minplus_mul,
    minplus_power,
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
