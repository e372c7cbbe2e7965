"""Closed-form evaluators for the counting formulas the verifier checks.

Everything here is exact integer arithmetic; a division that does not come
out exact on a formula's stated domain is an internal error, never a float.
"""

from __future__ import annotations

from math import comb, factorial

__all__ = [
    "formula_theorem1",
    "formula_corollary_interval",
    "recurrence_coefficient",
    "formula_theorem3",
    "formula_theorem4",
    "catalan",
    "noonan",
    "bona",
    "robertson_single",
    "robertson_both",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(
            f"inexact division {numerator}/{denominator}; formula applied "
            "outside its integral domain")
    return q


def formula_theorem1(n: int, k: int, m: int | None = None) -> int:
    """|S_n(T(k,m))| = (k-2)! * (k-1)^(n+2-k) for 2 < k <= n.

    The count is the same for every first entry m; m is accepted only so
    callers can label reports.
    """
    _require(k > 2, f"k={k} must be at least 3")
    _require(k <= n, f"requires k <= n, got k={k}, n={n}")
    if m is not None:
        _require(1 <= m <= k, f"m={m} outside 1..{k}")
    return factorial(k - 2) * (k - 1) ** (n + 2 - k)


def formula_corollary_interval(n: int, k: int, a: int, b: int) -> int:
    """|S_n(T(k,a) u ... u T(k,b))| = (k-1)! * (k+a-b-1)^(n+1-k)
    for 1 <= a <= b <= k and 2 < k <= n."""
    _require(k > 2, f"k={k} must be at least 3")
    _require(k <= n, f"requires k <= n, got k={k}, n={n}")
    _require(1 <= a <= b <= k, f"need 1 <= a <= b <= k, got a={a}, b={b}, k={k}")
    return factorial(k - 1) * (k + a - b - 1) ** (n + 1 - k)


def recurrence_coefficient(k: int, indices: tuple[int, ...] | list[int]) -> int:
    """The factor k + i_1 - i_d - 1 relating |S_n| to |S_(n-1)| for the union
    over an arbitrary ascending list of first entries; may be zero."""
    idx = tuple(indices)
    _require(bool(idx), "index list must be nonempty")
    _require(list(idx) == sorted(set(idx)), "indices must be strictly increasing")
    _require(1 <= idx[0] and idx[-1] <= k, f"indices outside 1..{k}")
    return k + idx[0] - idx[-1] - 1


def formula_theorem3(n: int, k: int) -> int:
    """|S_n(T(k,1); tau)| = (n+1-k) * (k-1)^(n-k) for 3 <= k <= n.

    Independent of which tau in T(k,1) is designated; by complementation the
    same value counts |S_n(T(k,k); tau)| for tau in T(k,k).
    """
    _require(k >= 3, f"k={k} must be at least 3")
    _require(k <= n, f"requires k <= n, got k={k}, n={n}")
    return (n + 1 - k) * (k - 1) ** (n - k)


def formula_theorem4(n: int, k: int, m: int | None = None) -> int:
    """|S_n(T(k,m); tau)| = (k-1)^(n-k) for 3 <= k <= n and 2 <= m <= k-1;
    independent of m and of which tau in T(k,m) is designated."""
    _require(k >= 3, f"k={k} must be at least 3")
    _require(k <= n, f"requires k <= n, got k={k}, n={n}")
    if m is not None:
        _require(2 <= m <= k - 1, f"m={m} outside 2..{k - 1}")
    return (k - 1) ** (n - k)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n,n)/(n+1); counts S_n avoiding any one
    length-3 pattern."""
    _require(n >= 0, f"n={n} must be nonnegative")
    return _exact_div(comb(2 * n, n), n + 1)


def noonan(n: int) -> int:
    """(3/n) * C(2n, n+3): permutations of length n containing exactly one
    ascending-triple pattern 123; defined for n >= 3."""
    _require(n >= 3, f"n={n} must be at least 3")
    return _exact_div(3 * comb(2 * n, n + 3), n)


def bona(n: int) -> int:
    """C(2n-3, n-3): permutations of length n containing exactly one
    132-pattern; defined for n >= 3."""
    _require(n >= 3, f"n={n} must be at least 3")
    return comb(2 * n - 3, n - 3)


def robertson_single(n: int) -> int:
    """(n-2) * 2^(n-3): permutations avoiding 123 and containing 132 exactly
    once; defined for n >= 3."""
    _require(n >= 3, f"n={n} must be at least 3")
    return (n - 2) * 2 ** (n - 3)


def robertson_both(n: int) -> int:
    """(n-3)(n-4) * 2^(n-5): permutations containing exactly one 123 and
    exactly one 132; defined for n >= 5."""
    _require(n >= 5, f"n={n} must be at least 5")
    return (n - 3) * (n - 4) * 2 ** (n - 5)
