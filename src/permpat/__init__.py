"""permpat: pattern-restricted permutation counting and exact verification.

Builds the first-entry pattern families T(k,m), enumerates and counts the
permutations avoiding them (or containing one designated pattern exactly
once), evaluates the matching closed-form counting formulas, and verifies
formula against brute force over desk-scale grids.

`import permpat` loads none of its submodules.  Reading a public name loads
the submodule that defines it, and the modules that one imports: a count
(`core`, `families`, `enumeration`) loads neither `verify`, `formulas` nor
`bijections`.  The command line, `python -m permpat`, loads every module.
`json` and `csv` are loaded only when a verify report is written.
"""

import importlib

# each public name, by the submodule that defines it
_NAMES = {
    "bijections": ("insert_bottom", "prepend_insert", "remove_bottom"),
    "core": ("Permutation", "count_occurrences", "iter_occurrences",
             "parse_compact", "parse_permutation"),
    "enumeration": ("DESK_SCALE_LIMIT", "count_avoiders", "count_exactly_once",
                    "enumerate_avoiders", "enumerate_exactly_once",
                    "occurrence_histogram"),
    "families": ("PatternSet", "adhoc_set", "avoids_all", "build_m",
                 "build_tkm", "build_union_tkm", "contains_exactly_once",
                 "parse_set_expression"),
    "formulas": ("bona", "catalan", "formula_corollary_interval",
                 "formula_theorem1", "formula_theorem3", "formula_theorem4",
                 "noonan", "recurrence_coefficient", "robertson_both",
                 "robertson_single"),
    "verify": ("ADVISORY_CLAIMS", "Claim", "VerificationRecord",
               "builtin_claims", "failed_records", "run_suite",
               "verify_claim", "write_report"),
}
_SUBMODULE = {name: module for module, names in _NAMES.items()
              for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a name is looked up here only while it is not a module global, and it
    # never becomes one: sys.modules holds each submodule once it is loaded
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
