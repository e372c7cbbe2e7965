import pytest

from permpat.formulas import (
    _exact_div,
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


class TestTheorem1:
    @pytest.mark.parametrize("n, k, expected", [
        (5, 3, 16),
        (6, 4, 162),
        (5, 5, 96),
    ])
    def test_known_values(self, n, k, expected):
        assert formula_theorem1(n, k) == expected

    def test_k3_specialization_is_power_of_two(self):
        for n in range(3, 12):
            assert formula_theorem1(n, 3) == 2 ** (n - 1)

    def test_k4_m_any_specialization(self):
        for n in range(4, 12):
            assert formula_theorem1(n, 4) == 2 * 3 ** (n - 2)

    def test_k5_specialization(self):
        for n in range(5, 12):
            assert formula_theorem1(n, 5) == 3 * 2 ** (2 * n - 5)

    def test_growth_recurrence(self):
        for k in (3, 4, 5):
            for n in range(k + 1, 12):
                assert formula_theorem1(n, k) == (k - 1) * formula_theorem1(n - 1, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            formula_theorem1(5, 2)
        with pytest.raises(ValueError):
            formula_theorem1(3, 4)
        with pytest.raises(ValueError):
            formula_theorem1(5, 3, m=4)


class TestCorollaryInterval:
    def test_reduces_to_theorem1_at_a_equals_b(self):
        for k in (3, 4, 5):
            for m in range(1, k + 1):
                for n in range(k, 11):
                    assert (formula_corollary_interval(n, k, m, m)
                            == formula_theorem1(n, k, m))

    @pytest.mark.parametrize("n, k, a, b, expected", [
        (5, 3, 1, 2, 2),
        (6, 4, 1, 2, 48),
        (5, 3, 1, 3, 0),
    ])
    def test_values(self, n, k, a, b, expected):
        assert formula_corollary_interval(n, k, a, b) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            formula_corollary_interval(5, 3, 2, 1)
        with pytest.raises(ValueError):
            formula_corollary_interval(2, 3, 1, 1)
        with pytest.raises(ValueError):
            formula_corollary_interval(5, 2, 1, 1)


class TestRecurrenceCoefficient:
    @pytest.mark.parametrize("k, idx, expected", [
        (4, (1, 3), 1),
        (3, (1, 2, 3), 0),
        (4, (2, 3), 2),
        (5, (2,), 4),
    ])
    def test_values(self, k, idx, expected):
        assert recurrence_coefficient(k, idx) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            recurrence_coefficient(3, ())
        with pytest.raises(ValueError):
            recurrence_coefficient(3, (2, 1))
        with pytest.raises(ValueError):
            recurrence_coefficient(3, (0, 2))


class TestTheorem3:
    @pytest.mark.parametrize("n, k, expected", [
        (6, 3, 32),
        (3, 3, 1),
        (4, 4, 1),
        (7, 4, 108),
    ])
    def test_values(self, n, k, expected):
        assert formula_theorem3(n, k) == expected

    def test_k3_is_robertson(self):
        for n in range(3, 12):
            assert formula_theorem3(n, 3) == (n - 2) * 2 ** (n - 3)
            assert formula_theorem3(n, 3) == robertson_single(n)

    def test_growth_recurrence(self):
        for k in (3, 4, 5):
            for n in range(k + 1, 12):
                assert (formula_theorem3(n, k)
                        == (k - 1) * formula_theorem3(n - 1, k)
                        + (k - 1) ** (n - k))

    def test_domain(self):
        with pytest.raises(ValueError):
            formula_theorem3(3, 2)
        with pytest.raises(ValueError):
            formula_theorem3(2, 3)


class TestTheorem4:
    @pytest.mark.parametrize("n, k, expected", [
        (5, 3, 4),
        (3, 3, 1),
        (7, 4, 27),
    ])
    def test_values(self, n, k, expected):
        assert formula_theorem4(n, k) == expected

    def test_k3_specialization(self):
        for n in range(3, 12):
            assert formula_theorem4(n, 3) == 2 ** (n - 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            formula_theorem4(5, 3, m=1)
        with pytest.raises(ValueError):
            formula_theorem4(5, 3, m=3)
        with pytest.raises(ValueError):
            formula_theorem4(2, 3)


class TestIntroFormulas:
    def test_catalan_sequence(self):
        assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_noonan_values(self):
        assert noonan(4) == 6
        assert noonan(3) == 1
        assert noonan(5) == 27

    def test_bona_values(self):
        assert bona(5) == 21
        assert bona(3) == 1
        assert bona(4) == 5

    def test_robertson_values(self):
        assert robertson_single(3) == 1
        assert robertson_single(4) == 4
        assert robertson_both(5) == 2
        assert robertson_both(6) == 12

    def test_domains(self):
        with pytest.raises(ValueError):
            catalan(-1)
        with pytest.raises(ValueError):
            noonan(2)
        with pytest.raises(ValueError):
            bona(2)
        with pytest.raises(ValueError):
            robertson_single(2)
        with pytest.raises(ValueError):
            robertson_both(4)

    def test_all_evaluations_are_ints(self):
        values = [
            catalan(8), noonan(8), bona(8), robertson_single(8),
            robertson_both(8),
        ]
        assert all(type(v) is int for v in values)

    def test_inexact_division_raises(self):
        assert _exact_div(8, 2) == 4
        with pytest.raises(ArithmeticError, match="inexact division 7/2"):
            _exact_div(7, 2)
