"""Graded-commutative algebras over F_p and their degree-preserving maps.

An algebra is a tensor product of a polynomial part (generators in even
degree) and an exterior part (generators in odd degree), with the Koszul
sign rule: odd generators anticommute and square to zero.  Products of
algebras are modeled as one object with component-tagged monomials, so an
element of A x B is a formal sum spread over both components and the unit
is the sum of the component units.

Degree-wise everything is finite linear algebra over F_p.  The rank of
a morphism in a degree is the rank of its images as they are, one row
per source monomial keyed by target codes, so nothing is transposed to
rank it.  A morphism also writes each degree as sparse rows read off
those images, and equalizers and invariants are one computation: in each
degree, the source's dimension less the rank of the rows of f - g over
a list of pairs (f, g), with the pairs (g, id) over a group's generators
for its invariants; no kernel basis is built.  The identity's rows are
written directly, one entry per source monomial.  A single-term map
sends every monomial to one term or to zero: alpha, beta, the swaps,
the metacyclic scaling, f1 and the restrictions all do.  Its rank
counts the target codes its images hit, and for one pair of such maps
each column of f - g has at most two entries, so the rank of f - g is
one gain-graph pass over the images (``linalg.gain_graph_rank``) and
nothing is eliminated.

Images are built from the previous degrees, on packed codes.  The code
of a monomial is an int with one fixed-width exponent slot per
generator, one bit wide for an exterior generator; a product algebra
lays its components' slots side by side and adds one flag bit per
component.  A morphism stores each generator's image once, as terms
(addend, coefficient, clash, flip).  The product of a code m by a term is
the code m + addend.  It is zero when m & clash is nonzero: an exterior
generator squared, or a term of another component.  Its Koszul sign is
(-1)^popcount(m & flip).  A morphism builds the images of a whole degree
at once, as a list by basis position.  The parent table of a degree
gives, for each basis monomial, its last nonzero generator i and the
position j of the monomial with that exponent lowered by one, so image k
of degree d is image j of degree d - deg_i times generator i's image:
one product per basis monomial, with the factors in the same
left-to-right order as the full product, reduced mod p once.  Callers
ask for degrees in ascending order, so a morphism builds them in one
ascending pass and keeps only the image lists of the highest degree
built and of the degrees it was built from, down to one maximal
generator degree below it; a degree asked for below those clears them
and builds again from degree 0, in ascending
order.  The sparse rows of a degree are keyed by the position of each
image code in the target's basis; that table holds the code of every
basis monomial, so a degree whose exponents overflow their slots is
refused, and a rank reads it for that refusal.  ``Element`` and
``apply`` keep exponent tuples, read through the same positions; a map
that moves monomials between algebras, like the inclusion of a factor in
a tensor product, is itself an ``AlgebraMorphism`` and is applied, so no
caller rewrites exponent tuples.  Basis, parent and code tables depend
only on the generators' (degree, kind) signature and are shared by every
algebra with that signature; a product algebra keeps its own code table,
read off its components' tables.  Monomials are listed from one explicit
stack and expressions parsed by module-level readers, so building tables
and parsing leave no reference cycles for the collector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Optional

from spinelab import linalg
from spinelab.series import GradedDims

# width of a polynomial generator's exponent slot in a packed code (an
# exterior generator's slot is one bit): exponents up to 4,095, and the
# codes of a two-polynomial, two-exterior algebra fit one 30-bit digit of
# a Python int
POLY_SLOT_BITS = 12


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    kind: str  # "poly" | "ext"

    def __post_init__(self):
        if self.kind not in ("poly", "ext"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("generator degree must be >= 1")
        if self.kind == "poly" and self.degree % 2:
            raise ValueError(f"polynomial generator {self.name} must have even degree")
        if self.kind == "ext" and self.degree % 2 == 0:
            raise ValueError(f"exterior generator {self.name} must have odd degree")


class GradedAlgebra:
    """Finitely generated polynomial (x) exterior algebra over F_p."""

    def __init__(self, p: int, generators: Iterable):
        linalg.check_odd_prime(p)
        gens = []
        for g in generators:
            gens.append(g if isinstance(g, Generator) else Generator(*g))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.p = p
        self.generators = tuple(gens)
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._signature = tuple((g.degree, g.kind) for g in gens)
        self._odd = tuple(i for i, g in enumerate(gens) if g.kind == "ext")
        self._positions: dict = {}
        self._shifts, self._caps, self._width = _slots(self._signature)

    def __repr__(self):
        gens = ", ".join(f"{g.name}[{g.degree}]" for g in self.generators)
        return f"GradedAlgebra(F_{self.p}; {gens})"

    def __eq__(self, other):
        return (
            isinstance(other, GradedAlgebra)
            and not isinstance(other, ProductAlgebra)
            and self.p == other.p
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.p, self.generators))

    # monomials are exponent tuples aligned with self.generators
    def one_monomial(self):
        return (0,) * len(self.generators)

    def unit_monomials(self):
        return ((self.one_monomial(), 1),)

    def monomial_degree(self, mono) -> int:
        return sum(e * g.degree for e, g in zip(mono, self.generators))

    def monomial_mul(self, a, b):
        """Product of two monomials: (coefficient, monomial) or None.

        Each odd factor of b walks left past the odd factors of a with
        larger generator index, so the sign exponent is
        sum_{j < i} b_j * a_i over odd generators.
        """
        swaps = 0
        odd_b_seen = 0
        for i in self._odd:
            if a[i] + b[i] > 1:
                return None
            swaps += a[i] * odd_b_seen
            odd_b_seen += b[i]
        return (self.p - 1 if swaps % 2 else 1, tuple(map(add, a, b)))

    def basis(self, d: int):
        """Monomials of degree d in lexicographic exponent order."""
        return _monomials(self._signature, d)

    def _basis_index(self, d: int) -> dict:
        """Position of each degree-d monomial in ``basis(d)``."""
        index = self._positions.get(d)
        if index is None:
            index = self._positions[d] = {m: i for i, m in enumerate(self.basis(d))}
        return index

    def pack(self, mono) -> int:
        """The code of a monomial: each exponent in its generator's slot.
        An exponent that does not fit its slot raises ValueError."""
        if len(mono) != len(self.generators):
            raise ValueError("monomial does not match the generators")
        code = 0
        for e, shift, cap in zip(mono, self._shifts, self._caps):
            if not 0 <= e <= cap:
                raise ValueError(f"exponent {e} does not fit its slot")
            code |= e << shift
        return code

    def _code_index(self, d: int) -> dict:
        """Position of each degree-d monomial's code in ``basis(d)``."""
        return _codes(self._signature, d)

    def _term(self, mono) -> tuple:
        """(addend, clash, flip) of a monomial b, for the product of any
        code by b: the addend is b's code; clash marks b's exterior
        generators, which square to zero; flip marks the exterior
        generators with an odd number of b's exterior factors before
        them, the factors that each of them must pass."""
        clash = flip = 0
        odd_seen = 0
        for i in self._odd:
            bit = 1 << self._shifts[i]
            if mono[i]:
                clash |= bit
            if odd_seen % 2:
                flip |= bit
            odd_seen += mono[i]
        return self.pack(mono), clash, flip

    def _terms(self, elt: "Element") -> tuple:
        """The packed terms (addend, coefficient, clash, flip) of an element."""
        out = []
        for m, c in elt.coeffs.items():
            addend, clash, flip = self._term(m)
            out.append((addend, c, clash, flip))
        return tuple(out)

    def monomial_str(self, mono) -> str:
        parts = [
            g.name if e == 1 else f"{g.name}^{e}"
            for e, g in zip(mono, self.generators)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def generator_element(self, name: str) -> "Element":
        if name not in self._index:
            raise ValueError(f"no generator named {name!r}")
        mono = [0] * len(self.generators)
        mono[self._index[name]] = 1
        return Element(self, {tuple(mono): 1})

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "generators": [
                {"name": g.name, "degree": g.degree, "kind": g.kind}
                for g in self.generators
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradedAlgebra":
        """Read ``{"p", "generators": [{"name", "degree", "kind"}, ...]}``;
        a document of another shape raises ValueError."""
        if not isinstance(data, dict) or type(data["p"]) is not int:
            raise ValueError("an algebra must be a JSON object with an integer 'p'")
        gens = data["generators"]
        shape = {"name": str, "degree": int, "kind": str}
        if not isinstance(gens, list) or not all(
            isinstance(g, dict) and all(type(g[k]) is t for k, t in shape.items()) for g in gens
        ):
            raise ValueError(
                "'generators' must be a list of objects with a string name, "
                "an integer degree and a string kind"
            )
        return cls(data["p"], [(g["name"], g["degree"], g["kind"]) for g in gens])


@lru_cache(maxsize=4096)
def _monomials(signature: tuple, d: int) -> tuple:
    """Exponent tuples of degree d over generators with the given
    ``(degree, kind)`` signature, in lexicographic order.

    One stack of (prefix, degree left) entries, each prefix's extensions
    pushed with the largest exponent at the bottom so that they are read
    in order; the last exponent is closed by one divmod.  The cache is
    bounded so a long-lived process does not keep every table it ever
    built.
    """
    if not signature:
        return ((),) if d == 0 else ()
    *head, (last, last_kind) = signature
    out = []
    stack = [((), d)]
    while stack:
        prefix, remaining = stack.pop()
        if len(prefix) == len(head):
            e, r = divmod(remaining, last)
            if not r and (e <= 1 or last_kind == "poly"):
                out.append(prefix + (e,))
            continue
        degree, kind = head[len(prefix)]
        top = remaining // degree if kind == "poly" else min(remaining // degree, 1)
        stack += [(prefix + (e,), remaining - e * degree) for e in range(top, -1, -1)]
    return tuple(out)


@lru_cache(maxsize=4096)
def _parents(signature: tuple, d: int) -> tuple:
    """Two tuples aligned with ``_monomials(signature, d)`` for d > 0: the
    last nonzero generator i of each monomial, and the position j, in
    ``_monomials(signature, d - degree_i)``, of the monomial with that
    exponent lowered by one.  The unit monomial of degree 0 has no
    parent, so both are empty there.  Cached like ``_monomials``."""
    lasts, positions = [], []
    lower_index: dict = {}
    for mono in _monomials(signature, d) if d else ():
        i = len(mono) - 1
        while not mono[i]:
            i -= 1
        lower = d - signature[i][0]
        index = lower_index.get(lower)
        if index is None:
            index = lower_index[lower] = {m: j for j, m in enumerate(_monomials(signature, lower))}
        lasts.append(i)
        positions.append(index[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]])
    return tuple(lasts), tuple(positions)


def _slots(signature: tuple) -> tuple:
    """The shift and the largest exponent of each generator's slot in a
    packed code, and the width of all the slots."""
    widths = [1 if kind == "ext" else POLY_SLOT_BITS for _, kind in signature]
    shifts = tuple(sum(widths[:i]) for i in range(len(widths)))
    return shifts, tuple((1 << w) - 1 for w in widths), sum(widths)


@lru_cache(maxsize=4096)
def _codes(signature: tuple, d: int) -> dict:
    """Position of each monomial's packed code in ``_monomials(signature,
    d)``.  The codes are packed as ``pack`` packs them, from the slot
    widths, and an exponent that does not fit its slot raises ValueError.
    Cached like ``_monomials``, so every algebra with the signature shares
    the table; callers read it and never change it."""
    shifts, caps, _ = _slots(signature)
    index = {}
    for i, mono in enumerate(_monomials(signature, d)):
        code = 0
        for e, shift, cap in zip(mono, shifts, caps):
            if e > cap:
                raise ValueError(f"exponent {e} does not fit its slot")
            code |= e << shift
        index[code] = i
    return index


class ProductAlgebra(GradedAlgebra):
    """Finite product of graded algebras with component-tagged monomials."""

    def __init__(self, components: Iterable[GradedAlgebra]):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        p = components[0].p
        if any(c.p != p for c in components):
            raise ValueError("components must share the prime")
        self.p = p
        self.components = components
        self._basis_cache = {}
        self._positions = {}
        self._codes = {}
        # component ci's slots sit at _offsets[ci]; its flag bit above them all
        widths = [c._width for c in components]
        self._offsets = tuple(sum(widths[:ci]) for ci in range(len(components)))
        self._flags = tuple(1 << (sum(widths) + ci) for ci in range(len(components)))

    def __repr__(self):
        return f"ProductAlgebra({' x '.join(map(repr, self.components))})"

    def __eq__(self, other):
        return (
            isinstance(other, ProductAlgebra)
            and self.p == other.p
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.p, self.components))

    def unit_monomials(self):
        return tuple(
            ((ci, c.one_monomial()), 1) for ci, c in enumerate(self.components)
        )

    def monomial_degree(self, mono) -> int:
        ci, inner = mono
        return self.components[ci].monomial_degree(inner)

    def monomial_mul(self, a, b):
        if a[0] != b[0]:
            return None  # cross terms vanish in a product
        got = self.components[a[0]].monomial_mul(a[1], b[1])
        if got is None:
            return None
        coeff, mono = got
        return coeff, (a[0], mono)

    def basis(self, d: int):
        if d not in self._basis_cache:
            out = []
            for ci, comp in enumerate(self.components):
                out.extend((ci, m) for m in comp.basis(d))
            self._basis_cache[d] = tuple(out)
        return self._basis_cache[d]

    def pack(self, mono) -> int:
        ci, inner = mono
        return self._flags[ci] | self.components[ci].pack(inner) << self._offsets[ci]

    def _code_index(self, d: int) -> dict:
        """Each component's table with its flag and offset, and positions
        after the blocks of the components before it."""
        index = self._codes.get(d)
        if index is None:
            index, start = {}, 0
            for comp, flag, offset in zip(self.components, self._flags, self._offsets):
                table = comp._code_index(d)
                index.update((flag | code << offset, start + i) for code, i in table.items())
                start += len(table)
            self._codes[d] = index
        return index

    def _term(self, mono) -> tuple:
        """A term of component ci adds no flag, and clashes with the flags
        of the other components: cross terms vanish in a product."""
        ci, inner = mono
        addend, clash, flip = self.components[ci]._term(inner)
        shift = self._offsets[ci]
        others = sum(self._flags) ^ self._flags[ci]
        return addend << shift, clash << shift | others, flip << shift

    def monomial_str(self, mono) -> str:
        ci, inner = mono
        return f"[{ci}]{self.components[ci].monomial_str(inner)}"

    def embed(self, ci: int, elt: "Element") -> "Element":
        if elt.parent != self.components[ci]:
            raise ValueError("element does not live in that component")
        return Element(self, {(ci, m): c for m, c in elt.coeffs.items()})

    def pair(self, *elements) -> "Element":
        """The element (e_0, ..., e_k) of the product."""
        if len(elements) != len(self.components):
            raise ValueError("one element per component required")
        out = Element(self, {})
        for ci, elt in enumerate(elements):
            out = out + self.embed(ci, elt)
        return out


class Element:
    """Finite F_p-linear combination of monomials of one algebra."""

    def __init__(self, parent, coeffs: dict):
        self.parent = parent
        p = parent.p
        self.coeffs = {m: c % p for m, c in coeffs.items() if c % p}

    @classmethod
    def zero(cls, parent) -> "Element":
        return cls(parent, {})

    @classmethod
    def one(cls, parent) -> "Element":
        return cls(parent, dict(parent.unit_monomials()))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.parent == other.parent
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.parent, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Element(self.parent, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Element(self.parent, out)

    def __neg__(self):
        return Element(self.parent, {m: -c for m, c in self.coeffs.items()})

    def __rmul__(self, scalar: int):
        return Element(self.parent, {m: scalar * c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                got = self.parent.monomial_mul(m1, m2)
                if got is None:
                    continue
                sign, m = got
                out[m] = out.get(m, 0) + sign * c1 * c2
        return Element(self.parent, out)

    def __pow__(self, n: int):
        out = Element.one(self.parent)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self) -> bool:
        degrees = {self.parent.monomial_degree(m) for m in self.coeffs}
        return len(degrees) <= 1

    def degree(self) -> int:
        degrees = {self.parent.monomial_degree(m) for m in self.coeffs}
        if len(degrees) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degrees.pop()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            s = self.parent.monomial_str(m)
            parts.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(parts)


def tensor(p: int, *algebras: GradedAlgebra, suffixes: Optional[list] = None) -> GradedAlgebra:
    """Tensor product, concatenating generator lists.

    Suffixes, when given, are appended to the generator names of each
    factor to keep names distinct.
    """
    gens = []
    for i, alg in enumerate(algebras):
        suffix = suffixes[i] if suffixes else ""
        for g in alg.generators:
            gens.append(Generator(g.name + suffix, g.degree, g.kind))
    return GradedAlgebra(p, gens)


# ---------------------------------------------------------------------------
# morphisms


class _Morphism:
    """Linear algebra shared by the morphism classes.

    Subclasses set ``source``, ``target`` and ``single_term``, true when
    every image has at most one term, and define ``_images(d)``, the
    packed images ``{code: coefficient}`` of ``source.basis(d)``, by
    position.
    """

    def apply(self, elt: Element) -> Element:
        if elt.parent != self.source:
            raise ValueError("element does not live in the source")
        if not elt.is_homogeneous():
            raise ValueError("apply expects a homogeneous element")
        if elt.is_zero():
            return Element.zero(self.target)
        d = elt.degree()
        images = self._images(d)
        position = self.source._basis_index(d)
        out: dict = {}
        for m, c in elt.coeffs.items():
            for code, v in images[position[m]].items():
                out[code] = out.get(code, 0) + c * v
        basis, index = self.target.basis(d), self.target._code_index(d)
        return Element(self.target, {basis[index[code]]: c for code, c in out.items()})

    def add_rows(self, d: int, rows=None, tag=None, sign: int = 1) -> dict:
        """Add ``sign`` times the degree-d map to the sparse rows
        ``{(tag, target basis position): {source column: coefficient}}``,
        a new dict when ``rows`` is None, and return them."""
        rows = {} if rows is None else rows
        index = self.target._code_index(d)
        for j, image in enumerate(self._images(d)):
            for m, c in image.items():
                i = index.get(m)
                if i is None:
                    raise ValueError("morphism does not preserve degree")
                row = rows.setdefault((tag, i), {})
                row[j] = row.get(j, 0) + sign * c
        return rows

    def rank_in_degree(self, d: int) -> int:
        """Rank of the degree-d map: the rank of its images, each a row
        keyed by target codes.  Rows of one entry each have one pivot per
        distinct code, so a single-term map counts the codes its images
        hit.  The target's code table is still read, so a degree whose
        exponents overflow their slots is refused."""
        self.target._code_index(d)
        images = self._images(d)
        if self.single_term:
            return len({m for image in images for m in image})
        return linalg.rank(images, self.target.p)

    def _matrix(self, d: int) -> list:
        """The dense view of ``add_rows``."""
        mat = [[0] * len(self.source.basis(d)) for _ in self.target.basis(d)]
        for (_, i), row in self.add_rows(d).items():
            for j, c in row.items():
                mat[i][j] = c
        return mat


def _times(image: dict, terms: tuple, p: int) -> dict:
    """The packed product image * t, summed over the packed terms t of an
    element, reduced mod p.  One term times one term is one term, nonzero
    mod p unless it clashes, and is written directly."""
    if len(image) == 1 and len(terms) == 1:
        ((m1, c1),) = image.items()
        ((addend, c2, clash, flip),) = terms
        if m1 & clash:
            return {}
        c = c1 * c2 % p
        return {m1 + addend: p - c if (m1 & flip).bit_count() % 2 else c}
    out: dict = {}
    get = out.get
    for m1, c1 in image.items():
        for addend, c2, clash, flip in terms:
            if m1 & clash:
                continue
            m = m1 + addend
            if (m1 & flip).bit_count() % 2:
                out[m] = get(m, 0) - c1 * c2
            else:
                out[m] = get(m, 0) + c1 * c2
    return {m: c % p for m, c in out.items() if c % p}


class AlgebraMorphism(_Morphism):
    """Degree-preserving multiplicative map given on generators."""

    def __init__(self, source: GradedAlgebra, target, images: dict):
        if isinstance(source, ProductAlgebra):
            raise TypeError("use ProductMorphism for a product source")
        if set(images) != {g.name for g in source.generators}:
            raise ValueError("images must cover exactly the source generators")
        for g in source.generators:
            img = images[g.name]
            if not img.is_zero() and img.degree() != g.degree:
                raise ValueError(f"image of {g.name} is not homogeneous of its degree")
        if source.p != target.p:
            raise ValueError("source and target must lie over the same prime")
        self.source = source
        self.target = target
        self.images = dict(images)
        self._generator_terms = tuple(target._terms(self.images[g.name]) for g in source.generators)
        self._unit = {target.pack(m): c for m, c in target.unit_monomials()}
        self.single_term = len(self._unit) == 1 and all(len(t) <= 1 for t in self._generator_terms)
        self._degrees = tuple(g.degree for g in source.generators)
        # degree -> packed images of source.basis(degree), by position, for
        # the highest degree built and the _span degrees below it, which it
        # was built from
        self._window: dict = {}
        self._span = max(self._degrees, default=0)

    def _images(self, d: int) -> list:
        """Packed images of ``source.basis(d)``, by position.  Each degree
        above the window up to d is built in turn from the degrees below
        it in the window, which then drops the degree ``_span + 1`` below
        it; a degree below the window clears it first, so the build starts
        again from degree 0.  Degree 0 and the degrees with no monomials
        have no parents, and are not looked up in the parent table."""
        window = self._window
        images = window.get(d)
        if images is not None:
            return images
        top = max(window, default=-1)
        if d < top:
            window.clear()
            top = -1
        source, degrees = self.source, self._degrees
        terms, p = self._generator_terms, self.target.p
        for k in range(top + 1, d + 1):
            if not k:
                images = [self._unit]
            elif not source.basis(k):
                images = []
            else:
                lower = [window.get(k - degree) for degree in degrees]
                lasts, positions = _parents(source._signature, k)
                images = [_times(lower[i][j], terms[i], p) for i, j in zip(lasts, positions)]
            window[k] = images
            window.pop(k - self._span - 1, None)
        return images

    def matrix_in_degree(self, d: int) -> list:
        """Rows indexed by target basis, columns by source basis."""
        return self._matrix(d)

    def is_surjective_in_degree(self, d: int) -> bool:
        return self.rank_in_degree(d) == len(self.target.basis(d))


class ProductMorphism(_Morphism):
    """A map out of a product that factors through one projection."""

    def __init__(self, source: ProductAlgebra, component: int, inner: AlgebraMorphism):
        if inner.source != source.components[component]:
            raise ValueError("inner morphism must start at the chosen component")
        self.source = source
        self.component = component
        self.inner = inner
        self.target = inner.target
        self.single_term = inner.single_term

    def _images(self, d: int) -> list:
        """The inner images on the chosen component's block of
        ``source.basis(d)``, and empty images on the others."""
        out = []
        for ci, comp in enumerate(self.source.components):
            out += self.inner._images(d) if ci == self.component else [{}] * len(comp.basis(d))
        return out

    def matrix_in_degree(self, d: int) -> list:
        """Rows indexed by target basis, columns by source basis."""
        return self._matrix(d)


def product_pair(f: AlgebraMorphism, g: AlgebraMorphism) -> tuple:
    """(A x B, f on the first factor, g on the second) for f: A -> C and
    g: B -> C, whose equalizer is the pairs (a, b) with f(a) = g(b)."""
    source = ProductAlgebra([f.source, g.source])
    return source, ProductMorphism(source, 0, f), ProductMorphism(source, 1, g)


def dimensions(alg, bound: int) -> GradedDims:
    """Number of admissible monomials per degree."""
    return GradedDims(bound, tuple(len(alg.basis(d)) for d in range(bound + 1)))


# ---------------------------------------------------------------------------
# equalizers and invariants: common kernels of f - g


def _check_pairs(source, pairs: list) -> None:
    for f, g in pairs:
        target = source if g is None else g.target
        if f.source != source or (g is not None and g.source != source) or f.target != target:
            raise ValueError("equalizer needs morphisms with equal source and target")


def _kernel_rows(source, pairs: list, d: int) -> dict:
    """The sparse rows of every f - g in degree d over the morphism pairs
    (f, g) out of ``source``, keyed by (pair, target basis position).  A
    pair (f, None) stands for (f, id): the identity's rows are one -1 per
    source monomial, at its own position."""
    rows: dict = {}
    for k, (f, g) in enumerate(pairs):
        f.add_rows(d, rows, k)
        if g is not None:
            g.add_rows(d, rows, k, -1)
        else:
            for j in range(len(source.basis(d))):
                row = rows.setdefault((k, j), {})
                row[j] = row.get(j, 0) - 1
    return rows


def _pair_rank(f, g, d: int) -> int:
    """Rank of f - g in degree d for single-term f and g, g None for the
    identity: one gain-graph pass over their images.  An image code
    outside the target's degree d is refused."""
    index = f.target._code_index(d)
    left = f._images(d)
    # the code table lists the codes in basis order
    right = [{m: 1} for m in index] if g is None else g._images(d)
    if not index.keys() >= set().union(*left, *right):
        raise ValueError("morphism does not preserve degree")
    return linalg.gain_graph_rank(left, right, f.target.p)


def _common_kernel(source, pairs: list, bound: int) -> GradedDims:
    """Degree-wise dimension of the common kernel of f - g over the
    morphism pairs (f, g) out of ``source``: the source's dimension less
    the rank of the rows of every pair.  Each column of a single pair of
    single-term maps has at most two entries, so its rank is a gain-graph
    rank and nothing is eliminated."""
    _check_pairs(source, pairs)
    degrees = range(bound + 1)
    if len(pairs) == 1 and all(m is None or m.single_term for m in pairs[0]):
        ranks = (_pair_rank(*pairs[0], d) for d in degrees)
    else:
        ranks = (linalg.rank(_kernel_rows(source, pairs, d).values(), source.p) for d in degrees)
    return GradedDims(bound, tuple(len(source.basis(d)) - r for d, r in zip(degrees, ranks)))


def equalizer(f, g, bound: int) -> GradedDims:
    """Degree-wise dimension of the kernel of f - g on their common source.

    When the source is a product A x B and f, g factor through the two
    projections, the kernel consists of the pairs (u, v) with f(u) = g(v).
    """
    return _common_kernel(f.source, [(f, g)], bound)


def invariants(alg: GradedAlgebra, action: list, bound: int) -> GradedDims:
    """Degree-wise dimension of the fixed subspace of the group generated
    by ``action``, endomorphisms of ``alg`` given on generators: the common
    kernel of g - id over the generators g, in every characteristic."""
    return _common_kernel(alg, [(g, None) for g in action], bound)


def compose_morphisms(outer: AlgebraMorphism, inner: AlgebraMorphism) -> AlgebraMorphism:
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose")
    images = {
        g.name: outer.apply(inner.images[g.name]) for g in inner.source.generators
    }
    return AlgebraMorphism(inner.source, outer.target, images)


def swap_action(alg: GradedAlgebra, pairs: list) -> AlgebraMorphism:
    """The involution exchanging the named generator pairs."""
    images = {g.name: alg.generator_element(g.name) for g in alg.generators}
    for a, b in pairs:
        images[a] = alg.generator_element(b)
        images[b] = alg.generator_element(a)
    return AlgebraMorphism(alg, alg, images)


# ---------------------------------------------------------------------------
# cohomology of the metacyclic groups Z/p x| Z/m


def _element_of_order(p: int, m: int) -> int:
    """A unit of exact multiplicative order m mod p."""
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1)):
            return pow(g, (p - 1) // m, p)
    raise ValueError("no primitive root found")


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cohomology_of_metacyclic(p: int, m: int) -> GradedAlgebra:
    """Invariants of an exterior-times-polynomial pair under a weight-one
    scaling action of Z/m, presented on two detected generators.

    For m = p-1 the generator degrees come out as (2p-3, 2p-2); they are
    found from the invariant dimensions through degree 4m + 4, not assumed.
    """
    if m < 1 or (p - 1) % m != 0:
        raise ValueError("m must divide p-1")
    base = GradedAlgebra(p, [("x", 1, "ext"), ("y", 2, "poly")])
    if m == 1:
        return base
    lam = _element_of_order(p, m)
    action = AlgebraMorphism(
        base,
        base,
        {
            "x": lam * base.generator_element("x"),
            "y": lam * base.generator_element("y"),
        },
    )
    bound = 4 * m + 4
    inv = invariants(base, [action], bound)
    # x y^(m-1) and y^m are invariant, in degrees 2m - 1 and 2m
    odd = next(d for d in range(1, bound + 1, 2) if inv[d])
    even = next(d for d in range(2, bound + 1, 2) if inv[d])
    out = GradedAlgebra(p, [(f"u{odd}", odd, "ext"), (f"c{even}", even, "poly")])
    if dimensions(out, bound) != inv:
        raise ValueError("invariants are not free on the two detected generators")
    return out


# ---------------------------------------------------------------------------
# free-module verification


def verify_free_module(
    dims: GradedDims, f, g, subring_gens: list, module_gens: list, bound: int
) -> bool:
    """Check the equalizer of f and g, of dimensions ``dims``, is a free
    module over the stated subring.

    Products (subring monomial) * (module generator) must be linearly
    independent and span the equalizer in every degree up to the bound.
    The subring generators are required to lie in the equalizer first.
    """
    source, p = f.source, f.source.p
    for elt in subring_gens + module_gens:
        if f.apply(elt) != g.apply(elt):
            raise ValueError("a stated generator is not equalized")
    ring = GradedAlgebra(
        p,
        [
            (f"g{i}", elt.degree(), "ext" if elt.degree() % 2 else "poly")
            for i, elt in enumerate(subring_gens)
        ],
    )
    subring = AlgebraMorphism(
        ring, source, {g.name: elt for g, elt in zip(ring.generators, subring_gens)}
    )
    module_degrees = [0 if mg.is_zero() else mg.degree() for mg in module_gens]
    module_terms = [source._terms(mg) for mg in module_gens]
    reach = max(module_degrees, default=0)
    # ring degree -> packed images of its basis, kept while a module
    # generator needs them
    ring_images: dict = {}
    for d in range(bound + 1):
        ring_images[d] = subring._images(d)
        ring_images.pop(d - reach - 1, None)
        index = source._code_index(d)
        vectors = []
        for terms, k in zip(module_terms, module_degrees):
            for img in ring_images.get(d - k, ()):
                # img * mg is mg * img up to one sign, which moves
                # neither the count of nonzero products nor their rank
                prod = _times(img, terms, p)
                if prod:
                    vectors.append({index[m]: c for m, c in prod.items()})
        want = dims[d]
        if len(vectors) != want:
            return False
        if linalg.rank(vectors, p) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# a tiny expression grammar: integers, '*', '^', '+', '-', generator names

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*|\^|\+|\-|\(|\))")


def parse_element(alg, text: str) -> Element:
    """Parse expressions like ``2*z4^2 + z4*w3`` into an element."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    tokens.reverse()
    out = _expr(alg, tokens)
    if tokens[-1] is not None:
        raise ValueError(f"trailing tokens near {tokens[-1]!r}")
    return out


# each reader below takes its tokens off the end of ``tokens``: the unread
# tokens in reverse order, above a None that marks the end of the text


def _expr(alg, tokens: list) -> Element:
    sign = 1
    if tokens[-1] in ("+", "-"):
        sign = -1 if tokens.pop() == "-" else 1
    e = sign * _term(alg, tokens)
    while tokens[-1] in ("+", "-"):
        sign = -1 if tokens.pop() == "-" else 1
        e = e + sign * _term(alg, tokens)
    return e


def _term(alg, tokens: list) -> Element:
    e = _factor(alg, tokens)
    while tokens[-1] == "*":
        tokens.pop()
        e = e * _factor(alg, tokens)
    return e


def _factor(alg, tokens: list) -> Element:
    e = _atom(alg, tokens)
    if tokens[-1] == "^":
        tokens.pop()
        exp = tokens.pop()
        if exp is None or not exp.isdigit():
            raise ValueError("exponent must be an integer")
        e = e ** int(exp)
    return e


def _atom(alg, tokens: list) -> Element:
    tok = tokens.pop()
    if tok == "(":
        e = _expr(alg, tokens)
        if tokens.pop() != ")":
            raise ValueError("unbalanced parenthesis")
        return e
    if tok is None:
        raise ValueError("unexpected end of expression")
    if tok.isdigit():
        return int(tok) * Element.one(alg)
    if not tok.isidentifier():
        raise ValueError(f"unexpected token {tok!r}")
    return alg.generator_element(tok)
