"""hookcomb: exact combinatorics of partitions graded by largest hook length.

The perimeter of a partition is its largest hook length, equivalently
``largest part + number of parts - 1``.  This package enumerates and counts
partitions of fixed perimeter under various part constraints, expands the
matching generating functions exactly, and verifies the counting theorems,
q-series identities and congruences that govern them.
"""

from .partitions import (
    ConstraintClass,
    DISTINCT,
    EmptyPartition,
    NonPositivePart,
    NotWeaklyDecreasing,
    ODD,
    Partition,
    PartitionError,
    UNRESTRICTED,
    conjugate,
    d_distinct,
    g_class,
    hook_lengths,
    make_partition,
    mod_one,
    rank,
)
from .profile import (
    EmptyWord,
    InvalidLetter,
    MustEndWithN,
    MustStartWithE,
    ProfileWord,
    from_profile,
    to_profile,
)
from .counting import (
    InvalidKeyForClass,
    LargestPart,
    NumParts,
    Rank,
    count_by_perimeter,
    count_parity_split,
    count_refined,
    enumerate_by_perimeter,
    enumerate_by_size,
    excess_e,
    fibonacci,
)
from .series import (
    MultiPoly,
    NonUnitDenominator,
    RationalGF,
    VariableMismatch,
    expand,
    gf_of_class,
    pochhammer,
    poly_gens,
    series_inverse,
)
from .identities import (
    CHECKS,
    InvalidD,
    NotDistinct,
    TheoremReport,
    franklin,
    run_checks,
    scan_congruence,
    verify_andrews_identity,
    verify_congruences,
    verify_d_chain,
    verify_euler_analogue,
    verify_fibonacci,
    verify_franklin,
    verify_gf_coefficients,
    verify_pentagonal_analogue,
    verify_powers_of_two,
    verify_refined_identity,
    verify_refinements,
    verify_rogers_fine,
)

__version__ = "0.1.0"
