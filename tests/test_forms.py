"""Form and polynomial plumbing: evaluation, clearing, depression, sandwich."""

import itertools
import random
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
    # factorization builds each form from its native factor list, which must
    # multiply out exactly; quartics sample the coefficient box sparsely
    boxes = {d: itertools.product(range(-3, 4), repeat=d + 1) for d in (1, 2, 3)}
    boxes[4] = itertools.product((-2, 0, 1, 3), repeat=5)
    built = 0
    for coeffs in itertools.chain(*boxes.values()):
        if any(coeffs):
            assert BinaryForm(coeffs).factorization is not None
            built += 1
    for form in BUNDLED_FORMS.values():
        assert form.factorization is not None
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
    assert not depress(UnivariatePoly((1, 0, 0))).residual()
    assert not depress(UnivariatePoly((4, 4, 1))).residual()  # (2x+1)^2 shifts clean
    assert depress(UnivariatePoly((1, 0, -1))).residual()
    assert depress(UnivariatePoly((1, 0, 0, -2))).residual()


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


# str() of every bundled target, spelled out: the CLI prints targets this way
@pytest.mark.parametrize(
    "target, text",
    [
        (BUNDLED_FORMS["x2+y2"], "x^2 + y^2"),
        (BUNDLED_FORMS["x2+xy+y2"], "x^2 + xy + y^2"),
        (BUNDLED_FORMS["x2+2y2"], "x^2 + 2y^2"),
        (BUNDLED_FORMS["x2-2y2"], "x^2 - 2y^2"),
        (BUNDLED_FORMS["x2+3y2"], "x^2 + 3y^2"),
        (BUNDLED_FORMS["x4+2x2y2+y4"], "x^4 + 2x^2y^2 + y^4"),
        (BUNDLED_FORMS["x3+2y3"], "x^3 + 2y^3"),
        (BUNDLED_FORMS["x4+y4"], "x^4 + y^4"),
        (BUNDLED_POLYS["x^2"], "x^2"),
        (BUNDLED_POLYS["x^2-1"], "x^2 - 1"),
        (BUNDLED_POLYS["x^2+1"], "x^2 + 1"),
        (BUNDLED_POLYS["x^2-2"], "x^2 - 2"),
        (BUNDLED_POLYS["2x^2-1"], "2x^2 - 1"),
        (BUNDLED_POLYS["x^3-2"], "x^3 - 2"),
        (BUNDLED_POLYS["x^3-3x^2+2x"], "x^3 - 3x^2 + 2x"),
        (BUNDLED_POLYS["x^4-1"], "x^4 - 1"),
        # mixed signs, unit and non-unit coefficients, a negative lead
        (BinaryForm((-1, 0, 2, -1)), "-x^3 + 2xy^2 - y^3"),
        (BinaryForm((2, -3, 0, 1, -5)), "2x^4 - 3x^3y + xy^3 - 5y^4"),
        (BinaryForm((-3, 1)), "-3x + y"),
        (BinaryForm((0, -1, 0, 1)), "-x^2y + y^3"),
        (BinaryForm((1, -1, 1, -1, 1)), "x^4 - x^3y + x^2y^2 - xy^3 + y^4"),
        (BinaryForm((-2, 0, 0, 0, -7)), "-2x^4 - 7y^4"),
        (UnivariatePoly((-1, 0, 2, -1)), "-x^3 + 2x - 1"),
        (UnivariatePoly((3, -1)), "3x - 1"),
        (UnivariatePoly((-1,)), "-1"),
        (UnivariatePoly((5,)), "5"),
        (UnivariatePoly((-2, 1, -1, 0, 0)), "-2x^4 + x^3 - x^2"),
        (UnivariatePoly((1, -1, 0)), "x^2 - x"),
    ],
)
def test_targets_print_literally(target, text):
    assert str(target) == text


def _random_poly(rng, max_degree, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))]
    coeffs[0] = coeffs[0] or 1
    return tuple(coeffs)


def test_divide_exact_oracle():
    rng = random.Random(22)
    for _ in range(400):
        a = _random_poly(rng, 4)
        b = _random_poly(rng, 3)
        ab = forms._mul(a, b)
        assert forms._divide_exact(ab, b) == a, (a, b)
        if len(b) > 1:
            # a remainder of 1: b has degree >= 1, so it cannot divide a*b + 1
            with pytest.raises(ArithmeticError):
                forms._divide_exact(ab[:-1] + (ab[-1] + 1,), b)
    # (x^2 - 1) / (2x - 2) = (x + 1)/2: exact over Q, not over Z
    with pytest.raises(ArithmeticError):
        forms._divide_exact((1, 0, -1), (2, -2))
    with pytest.raises(ArithmeticError):
        forms._divide_exact((3, 1), (2, 0))


def test_distinct_root_count_oracle():
    rng = random.Random(7)
    quadratics = [(1, 0, 1), (1, 0, -2), (1, 1, 1), (2, 0, 3)]  # irreducible over Q
    for _ in range(300):
        roots = rng.sample(range(-6, 7), rng.randint(1, 3))
        coeffs = (rng.choice([-3, -2, -1, 1, 2, 5]),)
        for r in roots:
            for _ in range(rng.randint(1, 3)):
                coeffs = forms._mul(coeffs, (1, -r))
        expected = len(roots)
        if rng.random() < 0.5:
            quad = rng.choice(quadratics)
            for _ in range(rng.randint(1, 2)):
                coeffs = forms._mul(coeffs, quad)
            expected += 2
        assert distinct_root_count(UnivariatePoly(coeffs)) == expected, coeffs
