"""The parametric toric family, kept as a test oracle.

``Coefficient`` and this ``LaurentPolynomial`` are the library's former
polynomial classes, whose coefficients were rational combinations of
parameter monomials; ``apply_character``, ``toric_family`` and
``parameter_name`` are the functions that built and rescaled the toric
family with them.  They are unchanged except that ``specialize`` returns a
``syzkit.LaurentPolynomial``, so its result goes straight into
``syzkit.solve_character_match`` and ``syzkit.apply_character``.  The sums,
scales, constants and evaluation of this class are the tests' whole ring:
``syzkit.LaurentPolynomial`` keeps only the product, and ``lift`` converts
into this class.  ``weight`` is the former ``Character.weight``.
"""

from fractions import Fraction
from math import prod

import syzkit
from syzkit import BasisSimplex, Character, DimensionMismatchError, LatticePolytope, lattice_points
from syzkit.lattice import IntVec
from conftest import brute_det


def parameter_name(point: IntVec) -> str:
    return "q_" + "_".join(str(x) for x in point)


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
        return syzkit.LaurentPolynomial(self.dim, out)

    def substitute_exponents(self, matrix) -> "LaurentPolynomial":
        """Unimodular monomial substitution: each exponent v becomes matrix @ v."""
        m = [[int(x) for x in row] for row in matrix]
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise DimensionMismatchError("substitution matrix has the wrong shape")
        if brute_det(m) not in (1, -1):
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


def weight(character: Character, exp) -> Fraction:
    """The character's weight gamma * prod(alpha_j ** v_j) at one exponent."""
    total = character.gamma
    for a, e in zip(character.alpha, exp):
        total *= a ** e
    return total


def apply_character(f: LaurentPolynomial, character: Character) -> LaurentPolynomial:
    """Rescale every term of f by the character's weight at its exponent."""
    if len(character.alpha) != f.dim:
        raise DimensionMismatchError(
            f"character has {len(character.alpha)} scales for {f.dim} variables"
        )
    return LaurentPolynomial(
        f.dim,
        {e: c.scaled(weight(character, e)) for e, c in f.terms.items()},
        f.params,
    )


def toric_family(polytope: LatticePolytope, basis) -> LaurentPolynomial:
    """The normalized mirror family of a toric resolution: coefficient 1 at the
    basis points and a fresh parameter symbol at every other lattice point."""
    if not isinstance(basis, BasisSimplex):
        basis = BasisSimplex(basis)
    basis.validate_for(polytope)
    pts = lattice_points(polytope)
    chosen = set(basis.points)
    others = [p for p in pts if p not in chosen]
    params = tuple(parameter_name(p) for p in others)
    nparams = len(params)
    terms: dict[IntVec, Coefficient] = {}
    for p in basis.points:
        terms[p] = Coefficient.rational(1, nparams)
    for i, p in enumerate(others):
        terms[p] = Coefficient.parameter(i, nparams)
    return LaurentPolynomial(polytope.dim, terms, params)


def lift(f: syzkit.LaurentPolynomial) -> LaurentPolynomial:
    """The same polynomial as an oracle object with no parameters."""
    return LaurentPolynomial(f.dim, f.terms)
