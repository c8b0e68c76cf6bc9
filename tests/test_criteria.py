"""Model selection criteria: identities, hand counts, error contracts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmentropy import (Categorical, CriterionInput, HmmModel, Poisson, bic,
                        free_parameter_count, icl_bic, nec)


def make_input(ll=-100.0, h=10.0, d=5, n=100, ll1=None):
    return CriterionInput(log_likelihood=ll, global_entropy=h, free_params=d,
                          sample_size=n, log_likelihood_1=ll1)


class TestFreeParameterCount:
    def test_two_state_binary_categorical(self):
        model = HmmModel([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                         [[Categorical([0.8, 0.2])], [Categorical([0.2, 0.8])]])
        assert free_parameter_count(model) == 5  # 1 + 2 + 2

    def test_single_state_poisson(self):
        model = HmmModel([1.0], [[1.0]], [[Poisson(2.0)]])
        assert free_parameter_count(model) == 1  # 0 + 0 + 1

    def test_three_state_poisson(self):
        third = 1.0 / 3.0
        model = HmmModel([third] * 3, [[third] * 3] * 3,
                         [[Poisson(13.1)], [Poisson(19.7)], [Poisson(29.7)]])
        assert free_parameter_count(model) == 11  # 2 + 6 + 3

    def test_multivariate(self):
        model = HmmModel([0.5, 0.5], [[0.5, 0.5]] * 2,
                         [[Categorical([0.2, 0.3, 0.5]), Poisson(1.0)],
                          [Categorical([0.1, 0.2, 0.7]), Poisson(2.0)]])
        # 1 + 2 + 2 * (2 + 1)
        assert free_parameter_count(model) == 9


class TestNec:
    def test_direct_arithmetic(self):
        assert nec(make_input(ll=-10.0, h=1.0, ll1=-12.0)) == pytest.approx(0.5)

    def test_zero_entropy(self):
        assert nec(make_input(h=0.0, ll=-10.0, ll1=-12.0)) == 0.0

    def test_missing_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            nec(make_input())

    def test_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="not positive"):
            nec(make_input(ll=-12.0, ll1=-10.0))

    @given(c=st.floats(-50, 50), h=st.floats(0, 20),
           gap=st.floats(0.1, 30))
    @settings(max_examples=50, deadline=None)
    def test_depends_only_on_loglik_difference(self, c, h, gap):
        base = nec(make_input(ll=-5.0, h=h, ll1=-5.0 - gap))
        shifted = nec(make_input(ll=-5.0 + c, h=h, ll1=-5.0 - gap + c))
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["ll", "h", "ll1"])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            make_input(**{field: value})


class TestBicIclBic:
    def test_zero_parameters_zero_loglik(self):
        assert bic(make_input(ll=0.0, d=0, n=1, h=0.0)) == 0.0

    def test_bic_log_scale(self):
        # n = e^2 makes log(n) = 2 up to float rounding
        inp = make_input(ll=-100.0, d=5, n=math.e ** 2, h=0.0)
        assert bic(inp) == pytest.approx(-210.0, abs=1e-12)

    def test_icl_arithmetic(self):
        inp = CriterionInput(log_likelihood=-100.0, global_entropy=10.0,
                             free_params=5, sample_size=math.e ** 2)
        assert icl_bic(inp) == pytest.approx(-230.0, abs=1e-12)

    def test_identity_icl_equals_bic_minus_2h(self):
        for h in (0.0, 0.5, 3.25, 17.0):
            inp = make_input(h=h)
            assert icl_bic(inp) == bic(inp) - 2.0 * h

    def test_equal_when_entropy_zero(self):
        inp = make_input(h=0.0)
        assert icl_bic(inp) == bic(inp)

    @given(ll=st.floats(-1e5, 0), h=st.floats(0, 1e3),
           d=st.integers(1, 50), n=st.integers(1, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_icl_never_exceeds_bic(self, ll, h, d, n):
        inp = make_input(ll=ll, h=h, d=d, n=n)
        assert icl_bic(inp) <= bic(inp)


class TestInputValidation:
    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            make_input(n=0)

    def test_negative_entropy(self):
        with pytest.raises(ValueError):
            make_input(h=-1.0)

    def test_negative_free_params(self):
        with pytest.raises(ValueError, match="free_params must be non-negative"):
            make_input(d=-1)
