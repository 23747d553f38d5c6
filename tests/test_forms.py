"""Form and polynomial plumbing: evaluation, clearing, depression, sandwich."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import forms
from factcert.forms import (
    BUNDLED_FORMS,
    BUNDLED_POLYS,
    BinaryForm,
    FormDataError,
    UnivariatePoly,
    clear_denominators,
    depress,
    distinct_root_count,
    is_monomial_after_depression,
    sandwich_threshold,
)


def test_binary_form_evaluate_is_homogeneous():
    f = BinaryForm((2, -3, 0, 5))
    for x, y in ((1, 2), (-4, 7), (3, 0), (0, -2), (9, 9)):
        base = f.evaluate(x, y)
        for t in (2, -3, 10):
            assert f.evaluate(t * x, t * y) == t**3 * base


def test_univariate_evaluate_leading_first():
    p = UnivariatePoly((2, 0, -1))
    # 2x^2 - 1
    assert p.evaluate(0) == -1
    assert p.evaluate(3) == 17
    assert p.evaluate(-3) == 17
    assert p.degree == 2


def test_clear_denominators():
    ints, mult = clear_denominators([Fraction(1, 2), Fraction(1), Fraction(-3, 4)])
    assert ints == (2, 4, -3)
    assert mult == 4
    ints, mult = clear_denominators([1, 0, 1])
    assert ints == (1, 0, 1)
    assert mult == 1


def test_declared_factorization_is_checked():
    BinaryForm(
        (1, 0, 2, 0, 1),
        factors=((BinaryForm((1, 0, 1)), 2),),
        factor_constant=1,
    )
    with pytest.raises(FormDataError):
        BinaryForm(
            (1, 0, 2, 0, 1),
            factors=((BinaryForm((1, 0, -1)), 2),),
            factor_constant=1,
        )


@pytest.mark.parametrize(
    "coeffs, factors, constant",
    [
        # (x2+xy+y2)^2 = x4+2x3y+3x2y2+2xy3+y4, with each end off by one
        ((1, 2, 3, 2, 2), (((1, 1, 1), 2),), 1),
        ((1, 2, 3, 2, 1), (((1, 1, 1), 2),), 2),
        ((1, 2, 3, 2, 1), (((1, 1, 2), 2),), 1),
        # the product has the wrong total degree; the huge exponent is
        # refused before any multiplication
        ((1, 0, 1), (((1, 0, 1), 1), ((1, 0), 1)), 1),
        ((1, 0, 2, 0, 1), (((1, 0, 1), 1),), 1),
        ((1, 0, 2, 0, 1), (((1, 0, 1), 10**12),), 1),
        ((1, 0, 0), (((1, 0), 3), ((1, 0), -1)), 1),
    ],
)
def test_declared_factorization_must_multiply_out_exactly(coeffs, factors, constant):
    with pytest.raises(FormDataError, match="multiplies out to|total degree"):
        BinaryForm(
            coeffs,
            factors=tuple((BinaryForm(f), e) for f, e in factors),
            factor_constant=constant,
        )


def test_native_factor_lists_build_for_every_small_form():
    # with_found_factors rebuilds each form from its factor list, which must
    # multiply out exactly; quartics sample the coefficient box sparsely
    boxes = {d: itertools.product(range(-3, 4), repeat=d + 1) for d in (1, 2, 3)}
    boxes[4] = itertools.product((-2, 0, 1, 3), repeat=5)
    built = 0
    for coeffs in itertools.chain(*boxes.values()):
        if any(coeffs):
            BinaryForm(coeffs).with_found_factors()
            built += 1
    for form in BUNDLED_FORMS.values():
        form.with_found_factors()
    assert built == 7**2 + 7**3 + 7**4 + 4**5 - 4


@given(
    coeffs=st.lists(
        st.integers(min_value=-9, max_value=9), min_size=3, max_size=5
    ).filter(lambda c: c[0] != 0),
    x=st.integers(min_value=-40, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_depress_identity(coeffs, x):
    # multiplier * f(x) == Q(a0*d*x + a1) is the whole point of depression
    f = UnivariatePoly(tuple(coeffs))
    d = f.degree
    a0, a1 = coeffs[0], coeffs[1]
    dep = depress(f)
    z = a0 * d * x + a1
    assert dep.q.evaluate(z) == dep.multiplier * f.evaluate(x)


def test_depress_shape():
    for poly in BUNDLED_POLYS.values():
        dep = depress(poly)
        assert dep.q.coeffs[0] == 1
        assert dep.q.coeffs[1] == 0
        assert dep.q.degree == poly.degree


def test_depress_rejects_degree_below_two():
    with pytest.raises(ValueError):
        depress(UnivariatePoly((3, 1)))


def test_monomial_after_depression():
    assert is_monomial_after_depression(UnivariatePoly((1, 0, 0)))
    assert is_monomial_after_depression(UnivariatePoly((4, 4, 1)))  # (2x+1)^2 shifts clean
    assert not is_monomial_after_depression(UnivariatePoly((1, 0, -1)))
    assert not is_monomial_after_depression(UnivariatePoly((1, 0, 0, -2)))


def test_sandwich_threshold_monic_only():
    with pytest.raises(ValueError):
        sandwich_threshold(UnivariatePoly((2, 0, -1)))


def test_sandwich_holds_beyond_threshold():
    for name, poly in BUNDLED_POLYS.items():
        dep = depress(poly)
        t = sandwich_threshold(dep.q)
        d = dep.q.degree
        for z in list(range(t, t + 60)) + [-z for z in range(t, t + 60)]:
            val = abs(dep.q.evaluate(z))
            assert abs(z) ** d < 2 * val, (name, z)
            assert val < 2 * abs(z) ** d, (name, z)


def test_distinct_root_count():
    # (x-1)^2 * (x+2) has two distinct roots
    assert distinct_root_count(UnivariatePoly((1, 0, -3, 2))) == 2
    assert distinct_root_count(UnivariatePoly((1, 0, -1))) == 2
    assert distinct_root_count(UnivariatePoly((1, 2, 1))) == 1
    assert distinct_root_count(UnivariatePoly((1, 0, 0))) == 1


def test_modified_discriminant_values():
    assert forms.modified_discriminant(BinaryForm((1, 0, 1))) == -4
    assert forms.modified_discriminant(BinaryForm((1, 1, 1))) == -3
    # content 2 divides out: 2x^2+2y^2 has the same modified discriminant
    assert forms.modified_discriminant(BinaryForm((2, 0, 2))) == -4


def test_quadratic_definite_detection():
    assert forms.is_positive_definite(BinaryForm((1, 0, 1)))
    assert forms.is_positive_definite(BinaryForm((2, 1, 3)))
    assert not forms.is_positive_definite(BinaryForm((1, 0, -2)))
    assert not forms.is_positive_definite(BinaryForm((-1, 0, -1)))


def test_bundled_catalogs_shape():
    assert len(BUNDLED_FORMS) == 8
    assert len(BUNDLED_POLYS) == 8
    for name, f in BUNDLED_FORMS.items():
        assert f.degree >= 2, name
    for name, p in BUNDLED_POLYS.items():
        assert p.degree >= 2, name
