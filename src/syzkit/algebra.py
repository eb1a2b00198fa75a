"""Sparse multivariate Laurent polynomials over exact rationals.

Characters are diagonal monomial rescalings, and ``solve_character_match``
recovers the rescaling between two polynomials exactly via per-prime integer
linear systems.

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
    json_int,
)
from .intlinalg import solve_integer
from .lattice import IntVec, LatticePolytope, hull


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class LaurentPolynomial:
    """``dim`` z-variables and sparse exact rational terms."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=()):
        self.dim = int(dim)
        clean: dict[IntVec, Fraction] = {}
        for exp, coeff in dict(terms).items():
            e = tuple(int(x) for x in exp)
            if len(e) != self.dim:
                raise DimensionMismatchError(f"exponent {e} does not have length {self.dim}")
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if coeff:
                clean[e] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, dim: int) -> "LaurentPolynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "LaurentPolynomial":
        return cls(dim, {(0,) * dim: value})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.terms))

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def rational_terms(self) -> dict[IntVec, Fraction]:
        return dict(self.terms)

    def _compat(self, other: "LaurentPolynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"{self.dim} variables vs {other.dim}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(self.dim, out)

    def __neg__(self) -> "LaurentPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._compat(other)
        out: dict[IntVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPolynomial(self.dim, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms)))

    def scale(self, value) -> "LaurentPolynomial":
        q = Fraction(value)
        return LaurentPolynomial(self.dim, {e: c * q for e, c in self.terms.items()})

    def prepend_variable(self, exponent: int) -> "LaurentPolynomial":
        """Add a distinguished leading variable carrying the given exponent on every term."""
        return LaurentPolynomial(
            self.dim + 1, {(int(exponent),) + e: c for e, c in self.terms.items()}
        )

    def specialize(self, values) -> "LaurentPolynomial":
        """The polynomial itself: there are no parameters to substitute.

        Kept only because ``perfbench/tracer.py`` wraps this method by name;
        it goes when the library records its own counters (ROADMAP item 5).
        """
        return self

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point."""
        xs = [Fraction(x) for x in point]
        if len(xs) != self.dim:
            raise DimensionMismatchError("evaluation point has the wrong length")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            total += coeff * prod((x**e for x, e in zip(xs, exp)), start=Fraction(1))
        return total

    def to_json_dict(self) -> dict:
        # "params" and "param_exp" stay in the format, always empty.
        return {
            "dim": self.dim,
            "params": [],
            "terms": [
                {
                    "exp": list(exp),
                    "coeff": {"num": q.numerator, "den": q.denominator, "param_exp": []},
                }
                for exp, q in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "LaurentPolynomial":
        if data.get("params"):
            raise ValueError("parametric coefficients are not supported")
        terms: dict[IntVec, Fraction] = {}
        for entry in data["terms"]:
            coeff = entry["coeff"]
            if coeff.get("param_exp"):
                raise ValueError("parametric coefficients are not supported")
            terms[tuple(map(json_int, entry["exp"]))] = Fraction(
                json_int(coeff["num"]), json_int(coeff["den"])
            )
        return LaurentPolynomial(json_int(data["dim"]), terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.terms[exp]}*{mono}" if mono else str(self.terms[exp]))
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
    return LaurentPolynomial(f.dim, {e: c * character.weight(e) for e, c in f.terms.items()})


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

    Both polynomials must have positive rational coefficients on the same
    support.  Per prime, the coefficient ratios
    log-linearize to an integer linear system in the valuations of
    (gamma, alpha); a solution must exist at every prime simultaneously.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(f"{f.dim} variables vs {g.dim}")
    support = f.support()
    if support != g.support():
        raise SupportMismatchError("the two polynomials have different supports")
    ratios = []
    for v in support:
        a = f.coefficient(v)
        b = g.coefficient(v)
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
