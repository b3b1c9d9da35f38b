"""Exact multivariate polynomials over Q with a fixed ordered variable list.

Terms map exponent vectors to nonzero Fraction coefficients; instances are
treated as immutable after construction.  This is the input language for the
quotient-algebra and local-degree machinery.  Canonical form is set once, by
the public constructor; ring operations and ``partial`` sum their terms with
the shared sparse sum ``fields.linear_sum``, and they and
``groebner.normal_form`` build their results through the trusted ``_make``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArithdtError, json_int, json_list, json_rational
from .fields import Value, binary_power, linear_sum, render_sum


class MultiPoly(Value):
    __slots__ = __match_args__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables: tuple[str, ...] = tuple(variables)
        pairs = []
        for exps, coeff in (terms.items() if hasattr(terms, "items") else terms) if terms else ():
            exps = tuple(json_int(e, "exponent") for e in json_list(exps, "exponent vector"))
            if len(exps) != len(self.variables):
                raise ArithdtError("exponent vector length does not match variables")
            if any(e < 0 for e in exps):
                raise ArithdtError("exponents must be nonnegative")
            pairs.append((exps, json_rational(coeff, "polynomial coefficient")))
        self.terms = linear_sum(pairs)

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor: valid exponent tuples to nonzero Fractions."""
        obj = object.__new__(cls)
        obj.variables = variables
        obj.terms = terms
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def parse(cls, variables, text: str) -> "MultiPoly":
        """Evaluate a polynomial expression like \"x**2 - y**2\" (trusted input only)."""
        variables = tuple(variables)
        env = {name: cls.variable(variables, name) for name in variables}
        env["Fraction"] = Fraction
        try:
            value = eval(text, {"__builtins__": {}}, env)  # noqa: S307
        except Exception as exc:
            raise ArithdtError(f"cannot parse polynomial {text!r}: {exc}") from exc
        if isinstance(value, (int, Fraction)):
            return cls.constant(variables, value)
        if not isinstance(value, MultiPoly):
            raise ArithdtError(f"{text!r} is not a polynomial expression")
        return value

    # -- ring structure ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, str)):
            return MultiPoly.constant(self.variables, other)
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ArithdtError("polynomials over different variable lists")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(self.variables, linear_sum([*self.terms.items(), *other.terms.items()]))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # the one product that can make a zero coefficient
            scaled = {e: c * other for e, c in self.terms.items()} if other else {}
            return MultiPoly._make(self.variables, scaled)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return MultiPoly._make(self.variables, linear_sum(products))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ArithdtError("negative polynomial powers are undefined")
        return binary_power(self, n, MultiPoly.constant(self.variables, 1))

    def __hash__(self) -> int:
        # terms is a dict: hash its items in a canonical order
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, index: int) -> "MultiPoly":
        i = index
        lowered = ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.terms.items() if e[i])
        return MultiPoly._make(self.variables, linear_sum(lowered))

    def gradient(self) -> list["MultiPoly"]:
        return [self.partial(i) for i in range(len(self.variables))]

    def evaluate(self, point) -> Fraction:
        point = [json_rational(x, "point coordinate") for x in json_list(point, "point")]
        if len(point) != len(self.variables):
            raise ArithdtError("point dimension does not match variables")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= x**k
            total += term
        return total

    def evaluate_quadratic(self, point, d: int) -> tuple[Fraction, Fraction]:
        """Evaluate at a point of Q(sqrt(d)); coordinates are (u, v) pairs u + v*sqrt(d)."""
        coords = [_uv_pair(x) for x in json_list(point, "point")]
        if len(coords) != len(self.variables):
            raise ArithdtError("point dimension does not match variables")

        def mul(a, b):
            return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

        total = (Fraction(0), Fraction(0))
        for e, c in self.terms.items():
            term = (Fraction(c), Fraction(0))
            for x, k in zip(coords, e):
                for _ in range(k):
                    term = mul(term, x)
            total = (total[0] + term[0], total[1] + term[1])
        return total

    # -- presentation -----------------------------------------------------------

    def render(self) -> str:
        pieces = []
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            parts = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    parts.append(name)
                elif k > 1:
                    parts.append(f"{name}^{k}")
            pieces.append(("*".join(parts), c))
        return render_sum(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables}; {self.render()})"


def _uv_pair(x) -> tuple:
    """A coordinate u + v*sqrt(d), given as a (u, v) pair, read as two Fractions."""
    u, v = json_list(x, "coordinate (u, v)", 2)
    return json_rational(u, "u"), json_rational(v, "v")
