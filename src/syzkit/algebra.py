"""Sparse multivariate Laurent polynomials over exact rationals.

Characters are diagonal monomial rescalings, and ``solve_character_match``
recovers the rescaling between two polynomials exactly, by exact roots over
one column reduction of the exponents.

Every value is treated as immutable after construction: all operations
return new objects and never touch their inputs, so sharing across threads
is safe.
"""

from fractions import Fraction

from .errors import DimensionMismatchError, SupportMismatchError, Value, _rational, json_int
from .lattice import IntVec


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class LaurentPolynomial:
    """``dim`` z-variables and sparse exact rational terms.

    The public constructor and ``from_json_dict`` validate their terms; every
    polynomial syzkit builds itself goes through ``_of``, which does not.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=()):
        self.dim = json_int(dim)
        clean: dict[IntVec, Fraction] = {}
        for exp, coeff in dict(terms).items():
            e = tuple(map(json_int, exp))
            if len(e) != self.dim:
                raise DimensionMismatchError(f"exponent {e} does not have length {self.dim}")
            coeff = _rational(coeff)
            if coeff:
                clean[e] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, dim: int, terms: dict[IntVec, int | Fraction]) -> "LaurentPolynomial":
        """Wrap terms that are already canonical: int-tuple keys of length
        ``dim`` mapped to nonzero values of exact type ``int`` (as the wall
        kernel emits) or ``Fraction``."""
        self = object.__new__(cls)
        self.dim = dim
        self.terms = terms
        return self

    def support(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.terms))

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """The ring product.  No stage calls it: the tests fold it as the wall
        kernel's oracle, and ``perfbench/tracer.py`` wraps it by name."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"{self.dim} variables vs {other.dim}")
        out: dict[IntVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPolynomial._of(self.dim, {e: c for e, c in out.items() if c})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms)))

    def prepend_variable(self, exponent: int) -> "LaurentPolynomial":
        """Add a distinguished leading variable carrying the given exponent on
        every term.  An exponent equal to an int, such as ``Fraction(2)``, is
        taken as that int; any other raises TypeError."""
        lead = (int(exponent),)
        if lead[0] != exponent:
            raise TypeError(f"expected an integer exponent, got {exponent!r}")
        return LaurentPolynomial._of(self.dim + 1, {lead + e: c for e, c in self.terms.items()})

    def specialize(self, values) -> "LaurentPolynomial":
        """The polynomial itself: there are no parameters to substitute.

        Kept only because ``perfbench/tracer.py`` wraps this method by name;
        it goes when the library records its own counters (ROADMAP item 1).
        """
        return self

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
            num, den = json_int(coeff["num"]), json_int(coeff["den"])
            if not den:
                raise ValueError("a coefficient has denominator 0")
            terms[tuple(map(json_int, entry["exp"]))] = Fraction(num, den)
        return LaurentPolynomial(json_int(data["dim"]), terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.terms[exp]}*{mono}" if mono else str(self.terms[exp]))
        return " + ".join(bits)


class Character(Value):
    """Diagonal monomial rescaling: the term at exponent v picks up
    gamma * prod(alpha_j ** v_j)."""

    __slots__ = _fields = ("gamma", "alpha")

    def __post_init__(self):
        gamma = _rational(self.gamma)
        alpha = tuple(map(_rational, self.alpha))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        if gamma <= 0 or any(a <= 0 for a in alpha):
            raise ValueError("character entries must be positive")

    def to_json_dict(self) -> dict:
        return {
            "gamma": fraction_str(self.gamma),
            "alpha": [fraction_str(a) for a in self.alpha],
        }


def _power_table(a: Fraction, exps) -> dict[int, tuple[int, int]]:
    """``{e: (num, den)}``, ``num / den = a ** e`` not reduced, for each e of
    ``exps`` (iterable twice) in order: for a = p / q, p^|e| and q^|e| are
    multiplied up from the lowest |e|, and e < 0 swaps the two."""
    p, q = a.numerator, a.denominator
    powers = {}
    k = 0
    pk = qk = 1
    for m in sorted({abs(e) for e in exps}):
        pk *= p ** (m - k)
        qk *= q ** (m - k)
        powers[m] = (pk, qk)
        k = m
    return {e: powers[e] if e >= 0 else powers[-e][::-1] for e in exps}


def _weight_pairs(character: Character, points) -> dict[IntVec, tuple[int, int]]:
    """``{v: (num, den)}`` with ``num / den`` the character's weight
    ``gamma * prod(alpha_j ** v_j)`` at v, not reduced, from one
    ``_power_table`` per coordinate.  ``points`` must be iterable twice.
    """
    tables = [_power_table(a, {v[j] for v in points}) for j, a in enumerate(character.alpha)]
    gn, gd = character.gamma.numerator, character.gamma.denominator
    out = {}
    for v in points:
        num, den = gn, gd
        for table, e in zip(tables, v):
            a, b = table[e]
            num *= a
            den *= b
        out[v] = (num, den)
    return out


def apply_character(f: LaurentPolynomial, character: Character) -> LaurentPolynomial:
    """Rescale every term of f by the character's weight at its exponent."""
    if len(character.alpha) != f.dim:
        raise DimensionMismatchError(
            f"character has {len(character.alpha)} scales for {f.dim} variables"
        )
    # Every weight is positive, so no term vanishes.
    weights = _weight_pairs(character, f.terms)
    return LaurentPolynomial._of(f.dim, {
        e: Fraction(c.numerator * weights[e][0], c.denominator * weights[e][1])
        for e, c in f.terms.items()
    })


def solve_character_match(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> Character | None:
    """Exact character carrying f onto g, or None when no such rescaling exists.

    Both polynomials must have positive rational coefficients on the same
    support.  The coefficient ratios b_v / a_v must equal gamma * prod_j
    alpha_j ** v_j, a multiplicative system in (gamma, alpha) that one column
    reduction of the exponent rows solves with exact roots, no factoring.
    """
    from .intlinalg import solve_multiplicative

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
        ratios.append(Fraction(b, a))
    x = solve_multiplicative([(1,) + v for v in support], ratios, f.dim + 1)
    if x is None:
        return None
    character = Character._of(x[0], tuple(x[1:]))  # positive Fractions
    if apply_character(f, character) != g:
        return None
    return character
