"""Sparse multivariate Laurent polynomials over exact rationals.

Coefficients may carry monomials in declared parameter symbols (used for the
toric mirror family); characters are diagonal monomial rescalings, and
``solve_character_match`` recovers the rescaling between two polynomials
exactly via per-prime integer linear systems.

Every value is treated as immutable after construction: all operations
return new objects and never touch their inputs, so sharing across threads
is safe.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (
    DimensionMismatchError,
    SupportMismatchError,
    UnsupportedDimensionError,
    ZeroPolynomialError,
)
from .intlinalg import solve_integer
from .lattice import IntVec, LatticePolytope, hull


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Coefficient:
    """Rational combination of parameter monomials.

    ``terms`` maps a parameter-exponent tuple to a nonzero rational; a plain
    rational is the single term at the zero exponent, and the empty
    combination is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for exp, value in dict(terms).items():
            q = Fraction(value)
            if q != 0:
                clean[tuple(int(x) for x in exp)] = q
        self.terms = clean

    @classmethod
    def rational(cls, value, nparams: int = 0) -> "Coefficient":
        q = Fraction(value)
        coeff = cls.__new__(cls)
        coeff.terms = {(0,) * nparams: q} if q else {}
        return coeff

    @classmethod
    def parameter(cls, index: int, nparams: int) -> "Coefficient":
        return cls({tuple(1 if i == index else 0 for i in range(nparams)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("coefficient involves parameters")
        return next(iter(self.terms.values()))

    def scaled(self, q) -> "Coefficient":
        q = Fraction(q)
        return Coefficient({e: v * q for e, v in self.terms.items()})

    def __add__(self, other: "Coefficient") -> "Coefficient":
        merged = dict(self.terms)
        for e, v in other.terms.items():
            merged[e] = merged.get(e, Fraction(0)) + v
        return Coefficient(merged)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        out: dict[tuple, Fraction] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return Coefficient(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coefficient) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            q = self.terms[exp]
            mono = "*".join(f"p{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{q}*{mono}" if mono else str(q))
        return " + ".join(bits)


class LaurentPolynomial:
    """``dim`` z-variables, ordered parameter symbols, and sparse exact terms."""

    __slots__ = ("dim", "params", "terms")

    def __init__(self, dim: int, terms=(), params=()):
        self.dim = int(dim)
        self.params = tuple(str(p) for p in params)
        nparams = len(self.params)
        clean: dict[IntVec, Coefficient] = {}
        for exp, coeff in dict(terms).items():
            e = tuple(int(x) for x in exp)
            if len(e) != self.dim:
                raise DimensionMismatchError(f"exponent {e} does not have length {self.dim}")
            if not isinstance(coeff, Coefficient):
                coeff = Coefficient.rational(coeff, nparams)
            if any(len(pe) != nparams for pe in coeff.terms):
                raise DimensionMismatchError("coefficient does not match the parameter list")
            if not coeff.is_zero():
                clean[e] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, params=()) -> "LaurentPolynomial":
        return cls(dim, {}, params)

    @classmethod
    def constant(cls, dim: int, value, params=()) -> "LaurentPolynomial":
        return cls(dim, {(0,) * dim: Fraction(value)}, params)

    @classmethod
    def monomial(cls, dim: int, exp, coeff=1, params=()) -> "LaurentPolynomial":
        return cls(dim, {tuple(exp): coeff}, params)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.terms))

    def coefficient(self, exp) -> Coefficient:
        return self.terms.get(tuple(exp), Coefficient.rational(0, len(self.params)))

    def rational_terms(self) -> dict[IntVec, Fraction]:
        return {e: c.as_fraction() for e, c in self.terms.items()}

    def _compat(self, other: "LaurentPolynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"{self.dim} variables vs {other.dim}")
        if self.params != other.params:
            raise DimensionMismatchError("parameter contexts differ")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPolynomial(self.dim, out, self.params)

    def __neg__(self) -> "LaurentPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._compat(other)
        out: dict[IntVec, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                piece = c1 * c2
                out[key] = out[key] + piece if key in out else piece
        return LaurentPolynomial(self.dim, out, self.params)

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPolynomial.constant(self.dim, 1, self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.dim == other.dim
            and self.params == other.params
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.params, frozenset(self.terms)))

    def scale(self, value) -> "LaurentPolynomial":
        q = Fraction(value)
        return LaurentPolynomial(
            self.dim, {e: c.scaled(q) for e, c in self.terms.items()}, self.params
        )

    def prepend_variable(self, exponent: int) -> "LaurentPolynomial":
        """Add a distinguished leading variable carrying the given exponent on every term."""
        return LaurentPolynomial(
            self.dim + 1,
            {(int(exponent),) + e: c for e, c in self.terms.items()},
            self.params,
        )

    def specialize(self, values) -> "LaurentPolynomial":
        """Substitute rationals for all parameter symbols and drop the parameter context."""
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"missing values for parameters {missing}")
        rates = [Fraction(values[p]) for p in self.params]
        out: dict[IntVec, Fraction] = {}
        for exp, coeff in self.terms.items():
            total = Fraction(0)
            for pexp, q in coeff.terms.items():
                total += q * prod(
                    (r**e for r, e in zip(rates, pexp) if e), start=Fraction(1)
                )
            if total != 0:
                out[exp] = total
        return LaurentPolynomial(self.dim, out)

    def substitute_exponents(self, matrix) -> "LaurentPolynomial":
        """Unimodular monomial substitution: each exponent v becomes matrix @ v."""
        from .intlinalg import det as _det

        m = [[int(x) for x in row] for row in matrix]
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise DimensionMismatchError("substitution matrix has the wrong shape")
        if _det(m) not in (1, -1):
            raise ValueError("substitution matrix must be unimodular")
        out = {}
        for exp, coeff in self.terms.items():
            new = tuple(sum(m[r][c] * exp[c] for c in range(self.dim)) for r in range(self.dim))
            out[new] = coeff
        return LaurentPolynomial(self.dim, out, self.params)

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point (parameter-free polynomials only)."""
        if self.params:
            raise ValueError("specialize the parameters before evaluating")
        xs = [Fraction(x) for x in point]
        if len(xs) != self.dim:
            raise DimensionMismatchError("evaluation point has the wrong length")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            total += coeff.as_fraction() * prod(
                (x**e for x, e in zip(xs, exp)), start=Fraction(1)
            )
        return total

    def to_json_dict(self) -> dict:
        data = {"dim": self.dim, "params": list(self.params), "terms": []}
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            parts = [
                {"num": q.numerator, "den": q.denominator, "param_exp": list(pe)}
                for pe, q in sorted(coeff.terms.items())
            ]
            data["terms"].append(
                {"exp": list(exp), "coeff": parts[0] if len(parts) == 1 else parts}
            )
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "LaurentPolynomial":
        params = tuple(data.get("params", ()))
        dim = int(data["dim"])
        terms: dict[IntVec, Coefficient] = {}
        for entry in data["terms"]:
            exp = tuple(int(x) for x in entry["exp"])
            raw = entry["coeff"]
            parts = raw if isinstance(raw, list) else [raw]
            cterms: dict[tuple, Fraction] = {}
            for part in parts:
                pe = tuple(int(x) for x in part.get("param_exp", (0,) * len(params)))
                cterms[pe] = cterms.get(pe, Fraction(0)) + Fraction(
                    int(part["num"]), int(part["den"])
                )
            terms[exp] = Coefficient(cterms)
        return LaurentPolynomial(dim, terms, params)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            mono = "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exp) if e)
            text = repr(coeff)
            if " + " in text:
                text = f"({text})"
            bits.append(f"{text}*{mono}" if mono else text)
        return " + ".join(bits)


@dataclass(frozen=True)
class Character:
    """Diagonal monomial rescaling: the term at exponent v picks up
    gamma * prod(alpha_j ** v_j)."""

    gamma: Fraction
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        gamma = Fraction(self.gamma)
        alpha = tuple(Fraction(a) for a in self.alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        if gamma <= 0 or any(a <= 0 for a in alpha):
            raise ValueError("character entries must be positive")

    @classmethod
    def identity(cls, dim: int) -> "Character":
        return cls(Fraction(1), (Fraction(1),) * dim)

    def is_identity(self) -> bool:
        return self.gamma == 1 and all(a == 1 for a in self.alpha)

    def weight(self, exp) -> Fraction:
        total = self.gamma
        for a, e in zip(self.alpha, exp):
            total *= a ** int(e)
        return total

    def to_json_dict(self) -> dict:
        return {
            "gamma": fraction_str(self.gamma),
            "alpha": [fraction_str(a) for a in self.alpha],
        }


def apply_character(f: LaurentPolynomial, character: Character) -> LaurentPolynomial:
    """Rescale every term of f by the character's weight at its exponent."""
    if len(character.alpha) != f.dim:
        raise DimensionMismatchError(
            f"character has {len(character.alpha)} scales for {f.dim} variables"
        )
    return LaurentPolynomial(
        f.dim,
        {e: c.scaled(character.weight(e)) for e, c in f.terms.items()},
        f.params,
    )


def newton_polytope(f: LaurentPolynomial) -> LatticePolytope:
    """Hull of the exponents carrying a nonzero coefficient."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polytope")
    if f.dim not in (1, 2):
        raise UnsupportedDimensionError("Newton polytopes are built in rank 1 or 2 only")
    return hull(f.support())


def _prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.add(n)
    return out


def _valuation(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    n = q.denominator
    while n % p == 0:
        n //= p
        v -= 1
    return v


def solve_character_match(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> Character | None:
    """Exact character carrying f onto g, or None when no such rescaling exists.

    Both polynomials must be parameter-free with positive rational
    coefficients on the same support.  Per prime, the coefficient ratios
    log-linearize to an integer linear system in the valuations of
    (gamma, alpha); a solution must exist at every prime simultaneously.
    """
    if f.params or g.params:
        raise ValueError("parameter-free polynomials required")
    if f.dim != g.dim:
        raise DimensionMismatchError(f"{f.dim} variables vs {g.dim}")
    support = f.support()
    if support != g.support():
        raise SupportMismatchError("the two polynomials have different supports")
    ratios = []
    for v in support:
        a = f.coefficient(v).as_fraction()
        b = g.coefficient(v).as_fraction()
        if a <= 0 or b <= 0:
            raise ValueError("positive coefficients required")
        ratios.append(b / a)
    primes: set[int] = set()
    for r in ratios:
        primes |= _prime_factors(r.numerator)
        primes |= _prime_factors(r.denominator)
    rows = [(1,) + v for v in support]
    gamma = Fraction(1)
    alpha = [Fraction(1)] * f.dim
    for p in sorted(primes):
        rhs = [_valuation(r, p) for r in ratios]
        x = solve_integer(rows, rhs)
        if x is None:
            return None
        gamma *= Fraction(p) ** x[0]
        for j in range(f.dim):
            alpha[j] *= Fraction(p) ** x[j + 1]
    character = Character(gamma, tuple(alpha))
    if apply_character(f, character) != g:
        return None
    return character
