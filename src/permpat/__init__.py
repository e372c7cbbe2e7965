"""permpat: pattern-restricted permutation counting and exact verification.

Builds the first-entry pattern families T(k,m), enumerates and counts the
permutations avoiding them (or containing one designated pattern exactly
once), evaluates the matching closed-form counting formulas, and verifies
formula against brute force over desk-scale grids.
"""

from .bijections import insert_bottom, prepend_insert, remove_bottom
from .core import (
    Permutation,
    count_occurrences,
    iter_occurrences,
    parse_compact,
    parse_permutation,
)
from .enumeration import (
    DESK_SCALE_LIMIT,
    count_avoiders,
    count_exactly_once,
    enumerate_avoiders,
    enumerate_exactly_once,
    occurrence_histogram,
)
from .families import (
    PatternSet,
    adhoc_set,
    avoids_all,
    build_m,
    build_tkm,
    build_union_tkm,
    contains_exactly_once,
    parse_set_expression,
)
from .formulas import (
    bona,
    catalan,
    formula_corollary_interval,
    formula_theorem1,
    formula_theorem3,
    formula_theorem4,
    noonan,
    recurrence_coefficient,
    robertson_both,
    robertson_single,
)
from .verify import (
    ADVISORY_CLAIMS,
    Claim,
    VerificationRecord,
    builtin_claims,
    failed_records,
    run_suite,
    verify_claim,
    write_report,
)

__version__ = "0.1.0"
