"""Sparse multivariate polynomials over the rationals.

Coefficients are `exact` values, so integer polynomials compute on ints.  A
polynomial keeps an ordered tuple of variable names plus a dict mapping
exponent tuples to nonzero coefficients.  Terms are printed in
graded-lexicographic order (total degree first, then the declared variable
order), which makes parse -> print -> parse a fixed point.

The accepted text grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('+'|'-') factor | power
    power  := atom ['^' INT]          # INT must be non-negative
    atom   := INT ['/' INT] | NAME | '(' expr ')'

Whitespace is ignored.  NAME must be one of the declared variables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "VARS",
    "Frozen",
    "PolyParseError",
    "Polynomial",
    "parse_poly",
    "clear_denominators",
    "exact",
    "gcd",
    "try_divide",
]

Exponent = tuple[int, ...]

# the variables of F(x, y, s, t), bound to the sets A, B, C, D in this order
VARS = ("x", "y", "s", "t")


class Frozen:
    """Immutable record over the attributes `_fields` names, which its
    constructor takes in order and sets with `object.__setattr__`.  Records
    of one class with equal fields are equal and hash alike."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    # graded-lex: compare total degree first, then the exponent vector
    return (sum(exp), exp)


class Polynomial(Frozen):
    """Sparse polynomial: a `Frozen` record of `vars`, the variable names, and
    `terms`, exponent tuples to nonzero `exact` coefficients (never mutated)."""

    __slots__ = ("vars", "terms", "_hash")
    _fields = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction | int]):
        object.__setattr__(self, "vars", tuple(variables))
        nvars = len(self.vars)
        clean: dict[Exponent, Fraction | int] = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent vector {exp} does not match {nvars} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = exact(coeff)
            if c:
                clean[exp] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Polynomial:
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Fraction | int) -> Polynomial:
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> Polynomial:
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"undeclared variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): 1})

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Maximum total exponent over all terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self._var_index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading_exponent(self) -> Exponent:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def _var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"undeclared variable {name!r}") from None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError("polynomials declare different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.vars, other)
        return None

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Polynomial(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return -(self - other)

    def __mul__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponent, Fraction | int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.vars, frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    # -- evaluation and calculus --------------------------------------------

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a point given in declared variable order."""
        if len(values) != len(self.vars):
            raise ValueError(
                f"arity mismatch: {len(self.vars)} variables, {len(values)} values"
            )
        return Fraction(self.specialize(dict(zip(self.vars, values))).terms.get((), 0))

    def partial(self, name: str) -> Polynomial:
        """Formal partial derivative with respect to `name`."""
        i = self._var_index(name)
        out: dict[Exponent, Fraction | int] = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + coeff * exp[i]
        return Polynomial(self.vars, out)

    def specialize(self, bindings: Mapping[str, Fraction | int]) -> Polynomial:
        """Substitute values for a subset of the variables.

        Returns a polynomial in the remaining variables; the result is the
        zero polynomial exactly when every coefficient cancels.
        """
        for name in bindings:
            self._var_index(name)
        bound = {self._var_index(n): exact(v) for n, v in bindings.items()}
        keep = [i for i in range(len(self.vars)) if i not in bound]
        out: dict[Exponent, Fraction | int] = {}
        powers: dict[tuple[int, int], Fraction | int] = {}
        for exp, coeff in self.terms.items():
            c = coeff
            for i, v in bound.items():
                e = exp[i]
                if e:
                    p = powers.get((i, e))
                    if p is None:
                        p = v ** e
                        powers[(i, e)] = p
                    c = c * p
            rest = tuple(exp[i] for i in keep)
            nc = out.get(rest, 0) + c
            if nc == 0:
                out.pop(rest, None)
            else:
                out[rest] = nc
        return Polynomial([self.vars[i] for i in keep], out)

    def coefficients_in(self, name: str) -> list[Polynomial]:
        """Coefficients of the polynomial in `name`, lowest power first.

        Entry k is the coefficient of name^k, a polynomial in the other
        variables in declared order, so F == sum_k P_k * name^k.  A variable
        F does not involve, and the zero polynomial, give a single entry.
        """
        i = self._var_index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: list[dict[Exponent, Fraction | int]] = [{} for _ in range(self.degree_in(name) + 1)]
        for exp, coeff in self.terms.items():
            buckets[exp[i]][exp[:i] + exp[i + 1:]] = coeff
        return [Polynomial(rest, bucket) for bucket in buckets]

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exp]
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.vars)!r}, {str(self)!r})"


def exact(value) -> Fraction | int:
    """The one exact form of a value: a plain `int` as is, else `Fraction(value)`
    (a float converts exactly), or its numerator when the denominator is 1."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def clear_denominators(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm L of the values' denominators, and each value times L as an int."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


# -- parsing ------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^/()":
            out.append((ch, ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = variables

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise PolyParseError("unexpected trailing input", at)
        return poly

    def expr(self) -> Polynomial:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.advance()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Polynomial:
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = node * self.factor()
        return node

    def factor(self) -> Polynomial:
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            op, _, _ = self.advance()
            inner = self.factor()
            return inner if op == "+" else -inner
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind == "-":
                raise PolyParseError("negative exponent", at)
            if kind != "int":
                raise PolyParseError("exponent must be a non-negative integer", at)
            self.advance()
            return base ** int(value)
        return base

    def atom(self) -> Polynomial:
        kind, value, at = self.advance()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dvalue, dat = self.advance()
                if dkind != "int":
                    raise PolyParseError("expected integer denominator", dat)
                if int(dvalue) == 0:
                    raise PolyParseError("zero denominator", dat)
                return Polynomial.constant(self.vars, Fraction(num, int(dvalue)))
            return Polynomial.constant(self.vars, num)
        if kind == "name":
            if value not in self.vars:
                raise PolyParseError(f"undeclared variable {value!r}", at)
            return Polynomial.variable(self.vars, value)
        if kind == "(":
            inner = self.expr()
            ckind, _, cat = self.advance()
            if ckind != ")":
                raise PolyParseError("expected ')'", cat)
            return inner
        raise PolyParseError(f"unexpected token {value!r}" if value else "unexpected end of input", at)


def parse_poly(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the declared variables into canonical form."""
    parser = _Parser(text, tuple(variables))
    try:
        return parser.parse()
    except RecursionError:
        # the parser recurses once per nesting level of parentheses and signs
        at = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise PolyParseError("expression nested too deeply", at) from None


# -- division and the GCD -----------------------------------------------------
#
# One division routine serves exact division and the GCD.  In one variable it
# is Euclidean division, so `gcd` there is Euclid's algorithm.  In more
# variables `gcd` runs Euclid over the rational-function field in all but the
# last variable: it reads a polynomial as one in the last variable whose
# coefficients are polynomials in the others, splits off the content (the GCD
# of those coefficients, found by `gcd` one variable down) and follows the
# primitive pseudo-remainder sequence in the last variable, which keeps
# coefficient growth in check.


def _divide(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of f by g's graded-lex leading term.

    Division stops at the first remainder leader that g's leader does not
    divide, so f == q*g + r, and r is zero exactly when g divides f.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.vars != g.vars:
        raise ValueError("polynomials declare different variables")
    g_lead = g.leading_exponent()
    g_lc = g.terms[g_lead]
    rem = dict(f.terms)
    quo: dict[Exponent, Fraction | int] = {}
    while rem:
        r_lead = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(d < 0 for d in diff):
            break
        c = exact(Fraction(rem[r_lead], g_lc))
        quo[diff] = quo.get(diff, 0) + c
        for exp, coeff in g.terms.items():
            e = tuple(a + b for a, b in zip(diff, exp))
            nv = rem.get(e, 0) - c * coeff
            if nv == 0:
                rem.pop(e, None)
            else:
                rem[e] = nv
    return Polynomial(f.vars, quo), Polynomial(f.vars, rem)


def try_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Return q with f == q*g when g divides f exactly, else None."""
    q, r = _divide(f, g)
    return q if r.is_zero else None


def _make_primitive(p: Polynomial) -> Polynomial:
    """Scale to coprime integer coefficients with positive graded-lex leader."""
    if p.is_zero:
        return p
    _, ints = clear_denominators(p.terms.values())
    g = math.gcd(*ints)
    if p.terms[p.leading_exponent()] < 0:
        g = -g
    return Polynomial(p.vars, {e: n // g for e, n in zip(p.terms, ints)})


def _content(p: Polynomial) -> Polynomial:
    # GCD of p's coefficients in its last variable, a polynomial in the others
    cont = Polynomial.zero(p.vars[:-1])
    for c in p.coefficients_in(p.vars[-1]):
        cont = gcd(cont, c)
    return cont


def _lift(u: Polynomial, variables: tuple[str, ...]) -> Polynomial:
    # a polynomial in all but the last variable, read in all of them
    return Polynomial(variables, {e + (0,): c for e, c in u.terms.items()})


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD of two polynomials over the same variables, primitive with a
    positive graded-lex leader; the GCD with the zero polynomial is the
    other operand made primitive, so gcd(0, 0) is zero."""
    if a.vars != b.vars:
        raise ValueError("polynomials declare different variables")
    if len(a.vars) < 2 or a.is_zero or b.is_zero:
        # Euclid, which also takes a zero operand in any number of variables
        while not b.is_zero:
            a, b = b, _divide(a, b)[1]
        return _make_primitive(a)
    y = a.vars[-1]
    ca, cb = _content(a), _content(b)
    a, b = try_divide(a, _lift(ca, a.vars)), try_divide(b, _lift(cb, b.vars))
    while not b.is_zero:
        # pseudo-remainder of a by b in y: r <- lc_y(b) r - lc_y(r) y^k b
        db = b.degree_in(y)
        lb = _lift(b.coefficients_in(y)[-1], b.vars)
        r = a
        while not r.is_zero and (dr := r.degree_in(y)) >= db:
            lead = {e[:-1] + (dr - db,): c for e, c in r.terms.items() if e[-1] == dr}
            r = lb * r - Polynomial(r.vars, lead) * b
        a, b = b, r if r.is_zero else try_divide(r, _lift(_content(r), r.vars))
    return _make_primitive(a * _lift(gcd(ca, cb), a.vars))
