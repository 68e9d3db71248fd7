import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quadcount.polynomials import (
    PolyParseError,
    Polynomial,
    clear_denominators,
    exact,
    gcd,
    parse_poly,
    try_divide,
)

V4 = ("x", "y", "s", "t")
V2 = ("x", "y")


def P(text, variables=V4):
    return parse_poly(text, variables)


class TestParse:
    def test_sum_of_variables(self):
        p = P("x+y+s+t")
        assert p.total_degree == 1
        assert len(p.terms) == 4
        assert all(c == 1 for c in p.terms.values())

    def test_two_products(self):
        p = P("x*y - s*t")
        assert p.total_degree == 2
        assert len(p.terms) == 2
        assert p.terms[(1, 1, 0, 0)] == 1
        assert p.terms[(0, 0, 1, 1)] == -1

    def test_parenthesized_subtraction(self):
        # expanded by hand: t - x - y*s
        p = P("t - (x + y*s)")
        assert p.terms == {
            (0, 0, 0, 1): Fraction(1),
            (1, 0, 0, 0): Fraction(-1),
            (0, 1, 1, 0): Fraction(-1),
        }
        assert p.total_degree == 2

    def test_rational_literals(self):
        p = P("1/2*x + 3/4")
        assert p.terms[(1, 0, 0, 0)] == Fraction(1, 2)
        assert p.terms[(0, 0, 0, 0)] == Fraction(3, 4)

    def test_powers_and_unary_minus(self):
        p = P("-x^3 + (x+y)^2")
        assert p.terms[(3, 0, 0, 0)] == -1
        assert p.terms[(2, 0, 0, 0)] == 1
        assert p.terms[(1, 1, 0, 0)] == 2
        assert p.terms[(0, 2, 0, 0)] == 1

    def test_syntax_error_has_position(self):
        with pytest.raises(PolyParseError) as err:
            P("x + * y")
        assert err.value.position == 4

    def test_undeclared_variable(self):
        with pytest.raises(PolyParseError, match="undeclared variable 'z'"):
            P("x + z")

    def test_negative_exponent(self):
        with pytest.raises(PolyParseError, match="negative exponent"):
            P("x^-2")

    def test_zero_denominator(self):
        with pytest.raises(PolyParseError, match="zero denominator"):
            P("1/0")

    def test_trailing_garbage(self):
        with pytest.raises(PolyParseError):
            P("x + y)")

    @pytest.mark.parametrize("text", ["(" * 2000 + "x+y+s+t" + ")" * 2000, "-" * 2000 + "x"],
                             ids=["parentheses", "signs"])
    def test_deep_nesting_is_a_parse_error(self, text):
        # the parser recurses per level; running out of stack is malformed input
        with pytest.raises(PolyParseError, match="nested too deeply") as err:
            P(text)
        assert 0 < err.value.position < len(text)

    def test_moderate_nesting_parses(self):
        assert P("(" * 150 + "x+y+s+t" + ")" * 150) == P("x+y+s+t")


def random_poly(rng, variables=V4, max_deg=6, max_terms=8) -> Polynomial:
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        exp = tuple(int(e) for e in rng.integers(0, max_deg // 2 + 1, size=len(variables)))
        if sum(exp) > max_deg:
            continue
        terms[exp] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Polynomial(variables, terms)


class TestPrintRoundTrip:
    def test_canonical_examples(self):
        assert str(P("x+y+s+t")) == "x + y + s + t"
        assert str(P("x*y - s*t")) == "x*y - s*t"
        assert str(P("0")) == "0"
        assert str(P("t - t")) == "0"

    def test_parse_print_parse_is_fixed_point(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            p = random_poly(rng)
            printed = str(p)
            again = parse_poly(printed, V4)
            assert again == p
            assert str(again) == printed


class TestEvaluate:
    def test_linear_zero(self):
        assert P("x+y+s+t").evaluate([1, 2, 3, -6]) == 0

    def test_product_zero(self):
        assert P("x*y-s*t").evaluate([2, 3, 1, 6]) == 0

    def test_affine_slice(self):
        assert P("t-(x+y*s)").evaluate([1, 2, 3, 7]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            P("x+y+s+t").evaluate([1, 2, 3])

    def test_eval_is_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f, g = random_poly(rng), random_poly(rng)
            pt = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in V4]
            assert f.evaluate(pt) * g.evaluate(pt) == (f * g).evaluate(pt)


class TestPartial:
    def test_simple_cases(self):
        assert P("x*y-s*t").partial("s") == P("-t")
        assert P("x+y+s+t").partial("t") == P("1")
        assert P("t-(x+y*s)").partial("x") == P("-1")

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = random_poly(rng)
            assert f.partial("x").partial("y") == f.partial("y").partial("x")


class TestSpecialize:
    def test_affine(self):
        q = P("x+y+s+t").specialize({"s": 2, "t": 3})
        assert q == parse_poly("x+y+5", V2)
        assert q.vars == V2

    def test_vanishing_slice_is_zero_polynomial(self):
        q = P("s*x + t*y").specialize({"s": 0, "t": 0})
        assert q.is_zero

    def test_product(self):
        assert P("x*y-s*t").specialize({"s": 2, "t": 3}) == parse_poly("x*y-6", V2)


class TestCoefficientsIn:
    def test_rebuilds_random_polynomials(self):
        rng = np.random.default_rng(20240819)
        for _ in range(100):
            f = random_poly(rng)
            for i, name in enumerate(V4):
                profile = f.coefficients_in(name)
                assert len(profile) == f.degree_in(name) + 1
                rest = V4[:i] + V4[i + 1:]
                rebuilt = Polynomial.zero(V4)
                for k, p in enumerate(profile):
                    assert p.vars == rest
                    lifted = Polynomial(
                        V4, {e[:i] + (0,) + e[i:]: c for e, c in p.terms.items()}
                    )
                    rebuilt = rebuilt + lifted * Polynomial.variable(V4, name) ** k
                assert rebuilt == f, (str(f), name)

    def test_lowest_power_first(self):
        profile = P("t^2 - x*y*t + 1/2*s").coefficients_in("t")
        assert profile == [
            parse_poly("1/2*s", ("x", "y", "s")),
            parse_poly("-x*y", ("x", "y", "s")),
            parse_poly("1", ("x", "y", "s")),
        ]

    def test_variable_not_involved_gives_one_entry(self):
        f = P("x*y - s + 3")
        assert f.coefficients_in("t") == [parse_poly("x*y - s + 3", ("x", "y", "s"))]

    def test_zero_polynomial(self):
        profile = Polynomial.zero(V4).coefficients_in("y")
        assert len(profile) == 1
        assert profile[0].is_zero
        assert profile[0].vars == ("x", "s", "t")

    def test_undeclared_variable(self):
        with pytest.raises(ValueError, match="undeclared variable"):
            P("x").coefficients_in("z")


class TestClearDenominators:
    def test_lcm_scale(self):
        assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == (6, [3, -4, 30])

    def test_integers_and_empty(self):
        assert clear_denominators([3, -1]) == (1, [3, -1])
        assert clear_denominators([]) == (1, [])


class TestUnivariateGcd:
    def test_known_common_factor(self):
        g = parse_poly("2*x^2 - 3", ("x",))
        a = g * parse_poly("x + 1", ("x",))
        b = g * parse_poly("x^3 - 7/2", ("x",))
        assert gcd(a, b) == g

    def test_zero_operand(self):
        a = parse_poly("-6*x^2 + 4/3", ("x",))
        zero = Polynomial.zero(("x",))
        assert gcd(a, zero) == gcd(zero, a) == parse_poly("9*x^2 - 2", ("x",))
        assert gcd(zero, zero).is_zero

    def test_coprime_gives_one(self):
        assert gcd(parse_poly("x^2 + 1", ("x",)), parse_poly("x - 5", ("x",))) == \
            Polynomial.constant(("x",), 1)

    def test_scale_invariance(self):
        a = parse_poly("(x - 2)*(x + 3)", ("x",))
        b = parse_poly("(x - 2)^2", ("x",))
        assert gcd(Fraction(-5, 3) * a, 7 * b) == gcd(a, b) == \
            parse_poly("x - 2", ("x",))


class TestBivariateGcd:
    def test_equal_inputs(self):
        g = parse_poly("x+y+5", V2)
        assert gcd(g, g) == g

    def test_coprime_lines(self):
        g = gcd(parse_poly("x+y+5", V2), parse_poly("x+y+6", V2))
        assert g.total_degree == 0

    def test_constructed_factor(self):
        g = parse_poly("x+y", V2)
        a = g * parse_poly("x-1", V2)
        b = g * parse_poly("y-2", V2)
        assert gcd(a, b) == g

    def test_input_free_of_y(self):
        # the GCD then lives in x alone: the content of the other input
        a = parse_poly("(x - 1)*(x + 2)", V2)
        b = parse_poly("(x - 1)*y^2 + (x^2 - 1)*y", V2)
        assert gcd(a, b) == gcd(b, a) == parse_poly("x - 1", V2)

    def test_gcd_contains_common_factor(self):
        # with coprime cofactors h, k the GCD of g*h and g*k is g up to a
        # nonzero constant: g divides d, and d divides both products
        rng = np.random.default_rng(23)
        done = 0
        while done < 40:
            g = random_poly(rng, V2, max_deg=3, max_terms=4)
            h = random_poly(rng, V2, max_deg=3, max_terms=4)
            k = random_poly(rng, V2, max_deg=3, max_terms=4)
            if g.is_zero or h.is_zero or k.is_zero or g.total_degree == 0:
                continue
            if gcd(h, k).total_degree != 0:
                continue  # need coprime cofactors for the clean statement
            d = gcd(g * h, g * k)
            case = (str(g), str(h), str(k), str(d))
            ratio = try_divide(d, g)
            assert ratio is not None and not ratio.is_zero and ratio.total_degree == 0, case
            assert try_divide(g * h, d) is not None, case
            assert try_divide(g * k, d) is not None, case
            done += 1

    def test_scale_invariance(self):
        a = parse_poly("(x+y)*(x-1)", V2)
        b = parse_poly("(x+y)*(y-2)", V2)
        assert gcd(3 * a, Fraction(-1, 7) * b) == gcd(a, b)


class TestGcd:
    def test_contract(self):
        # one rule for every number of variables: both operands declare the
        # same variables, and the GCD with zero is the other operand made
        # primitive
        for variables, text, primitive in [
            (("x",), "-6*x^2 + 4/3", "9*x^2 - 2"),
            (V2, "-2/3*x*y + 4*y^2", "x*y - 6*y^2"),
            (V4, "-1/2*x*s + 3*t - y", "x*s + 2*y - 6*t"),
        ]:
            a, zero = parse_poly(text, variables), Polynomial.zero(variables)
            assert gcd(a, zero) == gcd(zero, a) == parse_poly(primitive, variables)
            assert gcd(zero, zero).is_zero
        with pytest.raises(ValueError, match="different variables"):
            gcd(parse_poly("x", ("x",)), parse_poly("x", V2))
        with pytest.raises(ValueError, match="different variables"):
            gcd(parse_poly("x + y", V2), parse_poly("x + y", ("y", "x")))

    def test_four_variable_common_factor(self):
        a = P("(x + y + s + t)*(t - x - y*s)")
        b = P("(x + y + s + t)*(x*y - s*t)")
        assert gcd(a, b) == gcd(b, a) == P("x + y + s + t")

    @pytest.mark.parametrize("variables", [("x", "y", "s"), V4])
    def test_common_factor_in_more_variables(self, variables):
        # g divides gcd(g*h, g*k), which divides both products and is
        # primitive with a positive graded-lex leader
        rng = np.random.default_rng(26 + len(variables))
        done = 0
        while done < 25:
            g, h, k = (random_poly(rng, variables, max_deg=4, max_terms=4) for _ in range(3))
            if g.total_degree == 0 or h.is_zero or k.is_zero:
                continue
            d = gcd(g * h, g * k)
            case = (str(g), str(h), str(k), str(d))
            assert try_divide(d, g) is not None, case
            assert try_divide(g * h, d) is not None, case
            assert try_divide(g * k, d) is not None, case
            assert all(c.denominator == 1 for c in d.terms.values()), case
            assert math.gcd(*(c.numerator for c in d.terms.values())) == 1, case
            assert d.terms[d.leading_exponent()] > 0, case
            done += 1


class TestTryDivide:
    def test_exact(self):
        f = P("x*y - s*t") * P("x + 2")
        q = try_divide(f, P("x + 2"))
        assert q == P("x*y - s*t")

    def test_inexact(self):
        assert try_divide(P("x*y + 1"), P("x + 2")) is None


# -- the coefficient representation -------------------------------------------
#
# A plain dict-of-Fraction reference for each operation, written here and
# sharing no code with `Polynomial`.


def _ref(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref(out)


def _ref_partial(a, i):
    return _ref({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]})


def _ref_specialize(a, bound):
    # bound: {variable index: value}
    out = {}
    for e, c in a.items():
        for i, value in bound.items():
            c *= Fraction(value) ** e[i]
        rest = tuple(k for i, k in enumerate(e) if i not in bound)
        out[rest] = out.get(rest, Fraction(0)) + c
    return _ref(out)


def _random_terms(rng, nvars):
    # an int coefficient, or p/q, which is integral about one time in three
    def coefficient():
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))

    return {tuple(rng.randint(0, 3) for _ in range(nvars)): coefficient()
            for _ in range(rng.randint(1, 6))}


class TestCoefficientRepresentation:
    def assert_stored(self, p, reference):
        # equal to the reference, and each coefficient an int exactly when
        # it is integral
        assert p.terms == reference
        for c in p.terms.values():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c

    def test_operations_match_a_fraction_reference(self):
        rng = random.Random(20261021)
        for _ in range(80):
            variables = V4[:rng.randint(2, 4)]
            a_terms, b_terms = (_random_terms(rng, len(variables)) for _ in range(2))
            a, b = Polynomial(variables, a_terms), Polynomial(variables, b_terms)
            ra, rb = _ref(a_terms), _ref(b_terms)
            self.assert_stored(a, ra)
            self.assert_stored(a + b, _ref_add(ra, rb))
            self.assert_stored(a * b, _ref_mul(ra, rb))
            for i, name in enumerate(variables):
                self.assert_stored(a.partial(name), _ref_partial(ra, i))
            for value in (rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
                bound = {i: value for i in rng.sample(range(len(variables)), rng.randint(1, 2))}
                names = {variables[i]: v for i, v in bound.items()}
                self.assert_stored(a.specialize(names), _ref_specialize(ra, bound))
            if not b.is_zero:
                self.assert_stored(try_divide(a * b, b), ra)
            point = [rng.randint(-3, 3) for _ in variables]
            value = a.evaluate(point)
            assert type(value) is Fraction
            assert value == _ref_specialize(ra, dict(enumerate(point))).get((), 0)

    def test_constructor_decides_the_type(self):
        p = Polynomial(V2, {(1, 0): 0.5, (0, 1): 2.0, (1, 1): Fraction(6, 3), (2, 0): 0})
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): 2, (1, 1): 2}
        assert [type(c) for c in p.terms.values()] == [Fraction, int, int]
        assert type(Polynomial.zero(V2).evaluate((1, 2))) is Fraction
        assert type(P("1/2*x + 1/2*y", V2).specialize({"x": 1, "y": 1}).terms[()]) is int


class TestExact:
    def test_an_int_comes_back_as_the_same_object(self):
        big = 10 ** 40 + 1
        assert exact(big) is big

    @pytest.mark.parametrize("value,expected", [
        (True, 1),
        (Fraction(6, 3), 2),
        (Fraction(-1, 2), Fraction(-1, 2)),
        (0.5, Fraction(1, 2)),
        (2.0, 2),
    ], ids=["bool", "integral-fraction", "fraction", "half", "integral-float"])
    def test_int_exactly_when_integral(self, value, expected):
        out = exact(value)
        assert out == expected and type(out) is type(expected)

    @pytest.mark.parametrize("value,error", [
        ("1/0", ZeroDivisionError),
        ("one half", ValueError),
        (float("nan"), ValueError),
    ], ids=["zero-denominator", "text", "nan"])
    def test_fraction_errors_propagate(self, value, error):
        with pytest.raises(error):
            exact(value)
