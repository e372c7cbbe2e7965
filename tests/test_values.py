"""The package's value classes: `Permutation`, `PatternSet`, `Claim` and
`VerificationRecord`.

Each is built from its fields, positionally or by keyword, and is then an
immutable value: equal and hashed by its fields in order, printed as
`Name(field=value, ...)`, and carried whole through pickle and deepcopy.
Only `Permutation` is ordered.
"""

import copy
import pickle

import pytest

from permpat.core import Permutation, parse_compact
from permpat.families import PatternSet, build_m, build_union_tkm
from permpat.verify import Claim, VerificationRecord, builtin_claims

_THEOREM1 = builtin_claims()[0]

# (value, its fields in order, an equal value built by keyword, one that
# differs in the last field)
_CASES = {
    "Permutation": (
        Permutation((2, 1, 3)), ("values",),
        Permutation(values=(2, 1, 3)), Permutation((2, 3, 1))),
    "PatternSet-union": (
        build_union_tkm(4, (1, 2)), ("k", "listed", "ms", "tau"),
        PatternSet(k=4, ms=(1, 2)), build_union_tkm(4, (1, 3))),
    "PatternSet-mkm": (
        build_m(4, 2, parse_compact("2143")), ("k", "listed", "ms", "tau"),
        PatternSet(4, (), (2,), parse_compact("2143")),
        build_m(4, 2, parse_compact("2134"))),
    "PatternSet-adhoc": (
        PatternSet(3, (parse_compact("123"), parse_compact("132"))),
        ("k", "listed", "ms", "tau"),
        PatternSet(k=3, listed=(parse_compact("123"), parse_compact("132"))),
        PatternSet(3, (parse_compact("123"), parse_compact("213")))),
    "Claim": (
        _THEOREM1,
        ("claim_id", "summary", "bindings", "run", "route", "advisory"),
        Claim(claim_id=_THEOREM1.claim_id, summary=_THEOREM1.summary,
              bindings=_THEOREM1.bindings, run=_THEOREM1.run, route="rows"),
        Claim(_THEOREM1.claim_id, _THEOREM1.summary, _THEOREM1.bindings,
              _THEOREM1.run, "rows", True)),
    "VerificationRecord": (
        VerificationRecord("theorem1", (("k", 3), ("m", 1), ("n", 3)), 2, 2,
                           True, 0),
        ("claim", "params", "oracle", "formula", "passed", "ms"),
        VerificationRecord(claim="theorem1",
                           params=(("k", 3), ("m", 1), ("n", 3)), oracle=2,
                           formula=2, passed=True, ms=0),
        VerificationRecord("theorem1", (("k", 3), ("m", 1), ("n", 3)), 2, 2,
                           True, 1)),
}

cases = pytest.mark.parametrize("value, fields, same, other",
                                list(_CASES.values()), ids=list(_CASES))


def _fields(value, fields):
    return tuple(getattr(value, name) for name in fields)


class TestValueBehaviour:
    @cases
    def test_equal_by_fields_in_order(self, value, fields, same, other):
        assert value == same and not value != same
        assert value != other and not value == other
        # a tuple of the same fields is not the value
        assert value != _fields(value, fields)

    @cases
    def test_hash_is_the_hash_of_the_field_tuple(self, value, fields, same,
                                                 other):
        assert hash(value) == hash(_fields(value, fields)) == hash(same)

    def test_permutation_hash_is_that_of_its_values_in_a_tuple(self):
        p = Permutation((3, 1, 2))
        assert hash(p) == hash((p.values,))

    @cases
    def test_repr_names_each_field(self, value, fields, same, other):
        body = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{type(value).__name__}({body})"

    def test_repr_text(self):
        assert repr(Permutation((2, 1))) == "Permutation(values=(2, 1))"
        assert repr(build_m(3, 1, parse_compact("132"))) == (
            "PatternSet(k=3, listed=(), ms=(1,), "
            "tau=Permutation(values=(1, 3, 2)))")
        assert repr(_CASES["VerificationRecord"][0]) == (
            "VerificationRecord(claim='theorem1', params=(('k', 3), "
            "('m', 1), ('n', 3)), oracle=2, formula=2, passed=True, ms=0)")

    @cases
    def test_no_field_can_be_set_or_deleted(self, value, fields, same, other):
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == same

    @cases
    def test_pickle_round_trip(self, value, fields, same, other):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)

    @cases
    def test_deepcopy_round_trip(self, value, fields, same, other):
        back = copy.deepcopy(value)
        assert back == value and hash(back) == hash(value)
        assert copy.copy(value) == value

    def test_a_pickled_set_still_lists_its_patterns(self):
        union = build_union_tkm(4, (1, 2))
        assert pickle.loads(pickle.dumps(union)).patterns == union.patterns

    def test_permutations_sort_by_their_values(self):
        perms = [Permutation(v) for v in
                 ((3, 1, 2), (1, 2), (1, 3, 2), (2, 1), (1,), (1, 2, 3))]
        assert [p.values for p in sorted(perms)] == sorted(
            p.values for p in perms)
        a, b = Permutation((1, 3, 2)), Permutation((2, 1, 3))
        assert a < b and a <= b and b > a and b >= a
        assert a <= a and a >= a and not a < a and not a > a

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_a_permutation_does_not_order_against_a_tuple(self, op):
        with pytest.raises(TypeError):
            eval(f"Permutation((1,)) {op} (1,)")

    @pytest.mark.parametrize("name", ["PatternSet-union", "Claim",
                                      "VerificationRecord"])
    def test_the_other_values_are_unordered(self, name):
        value, _, same, _ = _CASES[name]
        with pytest.raises(TypeError):
            value < same


class TestSequenceFields:
    """A list given for a tuple field is stored as a tuple, so the value
    stays hashable, equal to the one built from a tuple, and immutable."""

    def test_permutation_from_a_list(self):
        p = Permutation([2, 1])
        assert p.values == (2, 1) and type(p.values) is tuple
        assert p == Permutation((2, 1))
        assert hash(p) == hash(Permutation((2, 1)))
        with pytest.raises(AttributeError):
            p.values.append(5)
        assert str(p) == "2,1"

    def test_union_from_a_list_of_ms(self):
        union = PatternSet(k=4, ms=[1, 2])
        assert union.ms == (1, 2)
        assert union == build_union_tkm(4, [1, 2])
        assert hash(union) == hash(build_union_tkm(4, (1, 2)))

    def test_adhoc_set_from_a_list(self):
        listed = [parse_compact("123"), parse_compact("132")]
        adhoc = PatternSet(k=3, listed=listed)
        listed.append(parse_compact("213"))
        assert adhoc.listed == adhoc.patterns == (parse_compact("123"),
                                                  parse_compact("132"))
        assert adhoc == PatternSet(k=3, listed=tuple(listed[:2]))
        assert hash(adhoc) == hash(PatternSet(k=3, listed=tuple(listed[:2])))
