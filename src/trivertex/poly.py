"""Exact sparse Laurent polynomials over arbitrary-precision integers.

Representation
--------------
A variable is a `Var`: the deformation parameter q, a per-layer variable z_t,
a per-site variable z_t attached to a grid position (k, l), or an auxiliary
variable w_i used by independent oracles.  Variables are totally ordered by
kind (q, then layer, then site, then auxiliary) and then by their indices.

A monomial is a tuple of (Var, exponent) pairs, sorted by variable, with all
exponents nonzero integers (negative allowed).  A polynomial is a dict from
monomial to nonzero int coefficient.  The empty monomial () is the constant
term.  No zero coefficient is ever stored, so equality is dict equality.

Serialization orders terms by graded lexicographic comparison (total degree
first, then exponents read along increasing variable order), largest term
first, which makes the output deterministic.

Packed polynomials
------------------
The oracles, the engine and the tetrahedron check compute on dicts from an
exponent vector packed into one int (`packing`) to an int count.  An
`Alphabet` gives each of its distinct Vars one field and converts both ways
(`pack`, `poly`); `add_product` is the one product.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Sequence, Tuple,
                    Union)

if TYPE_CHECKING:
    from fractions import Fraction

_KIND_Q = 0
_KIND_LAYER = 1
_KIND_SITE = 2
_KIND_AUX = 3


class PolyError(Exception):
    """Base class for polynomial arithmetic errors."""


class NegativeExponentSubstitution(PolyError):
    """A variable occurring with a negative exponent was bound to something
    that is not an invertible single term."""


class DivisionByZero(PolyError):
    """Division (or negative-exponent substitution) by the zero polynomial."""


class InexactDivision(PolyError):
    """A division whose quotient is not a Laurent polynomial with integer
    coefficients."""


class Frozen:
    """Base of the immutable value classes: a subclass sets its fields in
    `__init__`, through `object.__setattr__` or its `__dict__`, and refuses
    to assign or delete them afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %s.%s" % (self.__class__.__name__, name))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %s.%s" % (self.__class__.__name__, name))


class Var(Frozen):
    """A formal variable, identified by kind and integer indices.

    Immutable.  Its hash is that of (kind, index), computed once: variables
    key every monomial, so they are hashed far more often than built."""

    __slots__ = ("kind", "index", "_hash")

    def __init__(self, kind: int, index: Tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((kind, index)))

    def __reduce__(self):
        return Var, (self.kind, self.index)

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.kind == other.kind and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def q() -> "Var":
        return _Q_VAR

    @staticmethod
    def layer(t: int) -> "Var":
        """Variable z_t carried by layer number t (t >= 1)."""
        return Var(_KIND_LAYER, (t,))

    @staticmethod
    def site(t: int, k: int, l: int) -> "Var":
        """Per-site variable for layer t at grid position (k, l)."""
        return Var(_KIND_SITE, (t, k, l))

    @staticmethod
    def aux(i: int) -> "Var":
        """Auxiliary variable w_i for oracle-side computations."""
        return Var(_KIND_AUX, (i,))

    @property
    def name(self) -> str:
        if self.kind == _KIND_Q:
            return "q"
        if self.kind == _KIND_LAYER:
            return "z%d" % self.index
        if self.kind == _KIND_SITE:
            return "z%d_k%dl%d" % self.index
        return "w%d" % self.index

    def sort_key(self) -> Tuple:
        return (self.kind, self.index)

    def __lt__(self, other: "Var") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return "Var(%s)" % self.name


_Q_VAR = Var(_KIND_Q, ())


def parse_var_name(name: str) -> Var:
    """Inverse of Var.name.  Raises ValueError on any name that Var.name does
    not render, such as "z01" or "z1_k1l01"."""
    var = None
    try:
        if name == "q":
            var = Var.q()
        elif name.startswith("w"):
            var = Var.aux(int(name[1:]))
        elif name.startswith("z"):
            body = name[1:]
            if "_" in body:
                t_str, kl = body.split("_", 1)
                k_str, l_str = kl[1:].split("l", 1)
                var = Var.site(int(t_str), int(k_str), int(l_str))
            else:
                var = Var.layer(int(body))
    except ValueError:
        pass
    if var is None or var.name != name:
        raise ValueError("unrecognized variable name: %r" % name)
    return var


# A monomial is a tuple of (Var, exp) pairs sorted by Var; exps are nonzero.
Monomial = Tuple[Tuple[Var, int], ...]

ONE_MONOMIAL: Monomial = ()

# a packed polynomial: packed exponent vector -> count (`Alphabet`)
Packed = Dict[int, int]


def monomial_from_dict(exps: Mapping[Var, int]) -> Monomial:
    items = [(v, e) for v, e in exps.items() if e != 0]
    items.sort(key=lambda ve: ve[0].sort_key())
    return tuple(items)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        ka, kb = va.sort_key(), vb.sort_key()
        if ka == kb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def monomial_invert(a: Monomial) -> Monomial:
    return tuple((v, -e) for v, e in a)


def monomial_degree(a: Monomial) -> int:
    return sum(e for _, e in a)


def packing(reach: int, slots: int) -> tuple:
    """The layout of integer vectors of `slots` entries in [-reach, reach]
    packed into one int: entry s adds e_s << (width * s), so the zero vector
    packs to 0, and while every entry stays within reach a sum of packed
    vectors is the packed sum.  Returns (width, read, unpack): read(key, s)
    is entry s, unpack(key) the vector as a tuple.  `Alphabet` puts one
    Var on each field."""
    width = reach.bit_length() + 1
    half, mask = 1 << (width - 1), (1 << width) - 1
    offsets = range(0, width * slots, width)
    # half added to every field takes up the borrow of negative lower fields
    zero = sum(half << offset for offset in offsets)

    def read(key: int, s: int) -> int:
        return ((key + zero) >> (width * s) & mask) - half

    def unpack(key: int) -> Tuple[int, ...]:
        key += zero
        return tuple((key >> offset & mask) - half for offset in offsets)

    return width, read, unpack


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial with int coefficients.

    Not hashable: its terms are a plain dict."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, int]] = None):
        # Caller is trusted to pass canonical terms (no zero coefficients,
        # monomials sorted); use the constructors below otherwise.
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly({})
        return LaurentPoly({ONE_MONOMIAL: int(c)})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.const(1)

    @staticmethod
    def var(v: Var, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return LaurentPoly.one()
        return LaurentPoly({((v, exp),): 1})

    @staticmethod
    def monomial(exps: Mapping[Var, int], coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly({})
        return LaurentPoly({monomial_from_dict(exps): int(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {ONE_MONOMIAL: 1}

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == LaurentPoly.const(other).terms
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.const(other) + (-self)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly({m: c * other for m, c in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly.zero()
        if len(a) > len(b):
            a, b = b, a
        out: Dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = monomial_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if self.is_single_term():
                ((m, c),) = self.terms.items()
                if c in (1, -1):
                    # (c*x^m)^-1 == c*x^-m for unit c
                    return LaurentPoly({monomial_invert(m): c}) ** (-n)
            raise NegativeExponentSubstitution("negative power of a non-invertible polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self, v: Var, order: int = 1) -> "LaurentPoly":
        """Formal partial derivative d^order/dv^order."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = LaurentPoly(dict(self.terms)) if order == 0 else self
        for _ in range(order):
            out: Dict[Monomial, int] = {}
            for m, c in p.terms.items():
                e = 0
                rest = []
                for vv, ee in m:
                    if vv == v:
                        e = ee
                    else:
                        rest.append((vv, ee))
                if e == 0:
                    continue
                if e == 1:
                    m2 = tuple(rest)
                else:
                    exps = dict(rest)
                    exps[v] = e - 1
                    m2 = monomial_from_dict(exps)
                s = out.get(m2, 0) + c * e
                if s:
                    out[m2] = s
                else:
                    del out[m2]
            p = LaurentPoly(out)
        return p

    # -- substitution and evaluation --------------------------------------

    def substitute(self, bindings: Mapping[Var, Union["LaurentPoly", int]]) -> "LaurentPoly":
        """Simultaneously replace variables by polynomials.

        A variable appearing with a negative exponent may only be bound to a
        single term with coefficient +1 or -1 (so the inverse stays a Laurent
        polynomial over the integers); anything else raises
        NegativeExponentSubstitution, and a zero binding raises DivisionByZero.
        """
        polys: Dict[Var, LaurentPoly] = {}
        for v, p in bindings.items():
            polys[v] = LaurentPoly.const(p) if isinstance(p, int) else p
        out = LaurentPoly.zero()
        pow_cache: Dict[Tuple[Var, int], LaurentPoly] = {}
        for m, c in self.terms.items():
            factor = LaurentPoly.const(c)
            kept: Dict[Var, int] = {}
            for v, e in m:
                b = polys.get(v)
                if b is None:
                    kept[v] = e
                    continue
                key = (v, e)
                cached = pow_cache.get(key)
                if cached is None:
                    if e < 0:
                        if b.is_zero():
                            raise DivisionByZero("variable %s with exponent %d bound to zero" % (v.name, e))
                        if not b.is_single_term():
                            raise NegativeExponentSubstitution(
                                "variable %s has exponent %d; binding must be a single term" % (v.name, e))
                        ((bm, bc),) = b.terms.items()
                        if bc not in (1, -1):
                            raise NegativeExponentSubstitution(
                                "variable %s has exponent %d; binding coefficient %d is not invertible"
                                % (v.name, e, bc))
                        cached = LaurentPoly({monomial_invert(bm): bc}) ** (-e)
                    else:
                        cached = b ** e
                    pow_cache[key] = cached
                factor = factor * cached
                if factor.is_zero():
                    break
            if factor.is_zero():
                continue
            if kept:
                factor = factor * LaurentPoly.monomial(kept)
            out = out + factor
        return out

    def evaluate(self, values: Mapping[Var, Fraction]) -> Fraction:
        """Numeric evaluation; every variable of the polynomial must be bound.

        Zero raised to a negative exponent raises DivisionByZero.
        """
        from fractions import Fraction

        total = Fraction(0)
        for m, c in self.terms.items():
            acc = Fraction(c)
            for v, e in m:
                if v not in values:
                    raise KeyError("no value for variable %s" % v.name)
                x = Fraction(values[v])
                if x == 0 and e < 0:
                    raise DivisionByZero("variable %s = 0 raised to exponent %d" % (v.name, e))
                acc *= x ** e
            total += acc
        return total

    def at_one(self) -> int:
        """Value with every variable set to 1 (sum of coefficients)."""
        return sum(self.terms.values())

    # -- structure ---------------------------------------------------------

    def variables(self) -> Tuple[Var, ...]:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return tuple(sorted(seen, key=Var.sort_key))

    def sorted_terms(self) -> Iterator[Tuple[Monomial, int]]:
        """Terms in canonical order: graded lex, largest first."""
        universe = self.variables()
        pos = {v: i for i, v in enumerate(universe)}

        def key(m: Monomial):
            vec = [0] * len(universe)
            for v, e in m:
                vec[pos[v]] = e
            return (monomial_degree(m), tuple(vec))

        for m in sorted(self.terms, key=key, reverse=True):
            yield m, self.terms[m]

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        """Graded-lex term order, space-separated factors (z1^3 z2^2 ...),
        integer coefficients up front."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [v.name if e == 1 else "%s^%d" % (v.name, e) for v, e in m]
            body = " ".join(factors)
            if not factors:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%d %s" % (abs(c), body)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__

    def to_obj(self) -> list:
        """JSON-ready list of terms in canonical order, integer coefficients."""
        return [{"monomial": {v.name: e for v, e in m}, "coeff": c}
                for m, c in self.sorted_terms()]


# -- packed polynomials ----------------------------------------------------

class Alphabet:
    """Distinct Vars, one field each of `packing(reach, len(atoms))`: a
    packed polynomial over them maps a packed exponent vector to its count,
    so a product of monomials is a sum of keys (`add_product`)."""

    def __init__(self, atoms: Sequence[Var], reach: int):
        atoms = tuple(atoms)
        self.atoms, self.reach = atoms, reach
        self.width, self.read, self.unpack = packing(reach, len(atoms))
        self.units = tuple(1 << self.width * s for s in range(len(atoms)))
        self._unit = dict(zip(atoms, self.units))
        if len(self._unit) < len(atoms):
            # its fields would be read back as one exponent, the last winning
            repeated = next(v for i, v in enumerate(atoms) if v in atoms[:i])
            raise ValueError("variable %r appears more than once in an alphabet" % (repeated,))
        self._slots = sorted(range(len(atoms)), key=lambda s: atoms[s].sort_key())

    def pack(self, p: LaurentPoly) -> Packed:
        """p packed; its variables are atoms, its exponents within reach."""
        unit = self._unit
        return {sum(unit[v] * e for v, e in m): c for m, c in p.terms.items()}

    def poly(self, packed: Packed) -> LaurentPoly:
        """The LaurentPoly of a packed dict; zero counts are dropped."""
        atoms, slots, unpack = self.atoms, self._slots, self.unpack
        out = {}
        for key, c in packed.items():
            if c:
                exps = unpack(key)
                out[tuple((atoms[s], exps[s]) for s in slots if exps[s])] = c
        return LaurentPoly(out)


def add_product(acc: Packed, a: Packed, b: Packed, scale: int = 1) -> Packed:
    """acc += scale * a * b over packed polynomials, in place; cancelled keys
    stay with count 0."""
    get = acc.get
    for ka, ca in a.items():
        ca *= scale
        for kb, cb in b.items():
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return acc
