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
    ODD,
    Partition,
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
    from_profile,
    to_profile,
)
from .counting import (
    LargestPart,
    NumParts,
    Rank,
    count_by_perimeter,
    count_parity_split,
    count_refined,
    enumerate_by_perimeter,
    excess_e,
    fibonacci,
)
from .series import (
    MultiPoly,
    RationalGF,
    expand,
    gf_of_class,
    pochhammer,
    series_inverse,
)
from .identities import (
    CHECKS,
    TheoremReport,
    franklin,
    run_checks,
)

__version__ = "0.1.0"
