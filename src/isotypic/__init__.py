"""Exact symmetric-group representation combinatorics.

Partitions and their order theory, Specht dimensions, Kostka and
Littlewood-Richardson numbers, decompositions of induced modules, admissible
supports for bounded-degree symmetric sets, and exact multiplicity bounds.
All arithmetic is exact (arbitrary-precision integers).
"""

from .admissible import (
    AdmissibleSet,
    admissible_for,
    admissible_for_partition,
    admissible_set,
    admissible_set_tuple,
    is_admissible,
    restriction_check,
    restriction_threshold,
)
from .bounds import (
    DEFAULT_TERM_CAP,
    BoundParams,
    BoundReport,
    affine_multiplicity_bound,
    complex_multiplicity_bound,
    equivariant_bound,
    g_factor,
    general_position_degree,
    projection_image_bound,
    projective_multiplicity_bound,
    sa_multiplicity_bound,
    sa_prefactor,
)
from .errors import DomainError, EnumerationCapExceeded, ParseError
from .induction import (
    Decomposition,
    irreducible,
    max_split_multiplicities,
    outer_product,
    pieri_col,
    pieri_row,
    sign_twist,
    split_module,
    split_multiplicity,
    tuple_outer,
    young_module,
)
from .oracles import ORACLE_WEIGHT_CAP, oracle_count_ssyt, oracle_count_syt, oracle_lr
from .orbits import (
    OrbitSpec,
    PowerIdentityCheck,
    closed_form_multiplicity,
    example_variety,
    h0_decomposition,
    mv_check,
    orbit_intersection,
    orbit_union,
    projective_example_variety,
    top_cohomology,
    verify_power_identity,
)
from .partitions import (
    Partition,
    PartitionTuple,
    count_by_length_profile,
    count_exact_length,
    count_partition_tuples,
    count_partitions,
    dominates,
    enumerate_partition_tuples,
    enumerate_partitions,
    parse_partition,
    parse_partition_tuple,
    splits,
)
from .tableaux import (
    SkewShape,
    hook_lengths,
    horizontal_strip_extensions,
    horizontal_strip_restrictions,
    kostka,
    lr_coefficient,
    specht_dim,
    two_row_dim,
    vertical_strip_extensions,
)

__version__ = "0.1.0"
