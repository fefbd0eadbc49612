"""Degeneration maps between tensors and their verification.

A degeneration from T1 to T2 is given by maps alpha, beta, gamma sending
(source variable, target variable) pairs to polynomials in a formal
parameter lambda, together with an order h: after substituting
x -> sum alpha(x,x') x' (and likewise on the other axes) into T1 and
collecting the result as a polynomial in lambda with tensor
coefficients, the coefficient of lambda^h must equal T2 and every lower
coefficient must vanish.

Monomial degenerations restrict every polynomial to a single monomial
with at most one target per source variable; zeroing outs additionally
restrict all values to 0 or 1.  (Some authors define monomial
degenerations without the one-target-per-source condition, composing a
restriction with a map as used here; that variant is not supported.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .tensor_core import BlockSet, Frozen, Tensor, _index


class LambdaPoly(Frozen):
    """Sparse polynomial in lambda with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                e, c = _index(e), Fraction(c)
                if e < 0:
                    raise ValueError("negative lambda exponent")
                if c != 0:
                    clean[e] = c
        self._set(clean)

    @classmethod
    def monomial(cls, coeff, exponent=0):
        return cls({exponent: coeff})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LambdaPoly(out)

    def __mul__(self, other):
        if isinstance(other, LambdaPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            return LambdaPoly(out)
        return LambdaPoly({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def coefficient(self, exponent: int) -> Fraction:
        return self.coeffs.get(exponent, Fraction(0))

    def min_degree(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def is_monomial(self) -> bool:
        return len(self.coeffs) <= 1

    def scale_exponents(self, factor: int) -> "LambdaPoly":
        """Substitute lambda -> lambda^factor."""
        return LambdaPoly({e * factor: c for e, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = [f"{c}*l^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(terms)


class DegenerationMap(Frozen):
    """The maps alpha, beta, gamma plus the order h.

    alpha/beta/gamma map (source index, target index) pairs to nonzero
    LambdaPoly values; absent pairs are zero.  `kind` is derived:
    'zeroing' when all values are the constant 1 with at most one target
    per source, 'monomial' when all values are single monomials with at
    most one target per source, else 'general'.
    """

    __slots__ = ("alpha", "beta", "gamma", "order", "kind")

    def __init__(self, alpha, beta, gamma, order):
        def clean(mapping):
            out = {}
            for (src, dst), poly in mapping.items():
                pair = _index(src), _index(dst)
                if not isinstance(poly, LambdaPoly):
                    poly = LambdaPoly.monomial(poly)
                if poly:
                    out[pair] = poly
            return out

        order = _index(order)
        if order < 0:
            raise ValueError("order must be nonnegative")
        maps = clean(alpha), clean(beta), clean(gamma)
        self._set(*maps, order, self._classify(maps))

    @staticmethod
    def _classify(maps) -> str:
        polys = [poly for mapping in maps for poly in mapping.values()]
        if (not all(map(LambdaPoly.is_monomial, polys))
                or any(len({src for src, _ in mapping}) < len(mapping) for mapping in maps)):
            return "general"
        return "zeroing" if all(poly == LambdaPoly.one() for poly in polys) else "monomial"

    def maps(self):
        return (self.alpha, self.beta, self.gamma)

    def __repr__(self):
        sizes = tuple(len(m) for m in self.maps())
        return f"DegenerationMap(kind={self.kind}, order={self.order}, nonzeros={sizes})"


@dataclass
class VerifyResult:
    ok: bool
    detail: str

    def __bool__(self):
        return self.ok


def _grouped_by_source(mapping):
    out = {}
    for (src, dst), poly in mapping.items():
        out.setdefault(src, []).append((dst, poly))
    return out


def _substitute(t1: Tensor, d: DegenerationMap) -> dict:
    """Image of t1 under d: map target entry -> LambdaPoly."""
    by_a = _grouped_by_source(d.alpha)
    by_b = _grouped_by_source(d.beta)
    by_c = _grouped_by_source(d.gamma)
    out: dict[tuple, LambdaPoly] = {}
    for (i, j, k), coef in t1.entries.items():
        for i2, pa in by_a.get(i, ()):
            pac = pa * coef
            for j2, pb in by_b.get(j, ()):
                pab = pac * pb
                for k2, pc in by_c.get(k, ()):
                    key = (i2, j2, k2)
                    poly = pab * pc
                    prev = out.get(key)
                    out[key] = poly if prev is None else prev + poly
    return {key: poly for key, poly in out.items() if poly}


def _check_domains(t1: Tensor, t2: Tensor, d: DegenerationMap):
    n1 = t1.shape
    n2 = t2.shape
    for pos, (name, mapping) in enumerate(
            zip(("alpha", "beta", "gamma"), d.maps())):
        for (src, dst) in mapping:
            if not 0 <= src < n1[pos]:
                raise ValueError(f"{name} source index {src} outside tensor variables")
            if not 0 <= dst < n2[pos]:
                raise ValueError(f"{name} target index {dst} outside tensor variables")


def verify_degeneration(t1: Tensor, t2: Tensor, d: DegenerationMap) -> VerifyResult:
    """Check that d witnesses a degeneration from t1 to t2.

    Reads `apply_degeneration`'s lowest nonzero lambda degree and the
    tensor there: below the order it must not occur, and at the order
    the tensor must equal t2 exactly.  The diagnostic names the first
    failing lambda degree or tensor entry.
    """
    _check_domains(t1, t2, d)
    h = d.order
    low, image = apply_degeneration(t1, d, t2.shape)
    if low is not None and low < h:
        return VerifyResult(False, f"nonzero lambda^{low} coefficient at entry {min(image.entries)}")
    at_h = image.entries if low == h else {}
    if not at_h and t2.entries:
        return VerifyResult(False, f"lambda^{h} coefficient is the zero tensor")
    for key in sorted(at_h.keys() | t2.entries.keys()):
        got, want = at_h.get(key, 0), t2.coefficient(*key)
        if got != want:
            return VerifyResult(
                False,
                f"lambda^{h} coefficient at entry {key} is {got}, expected {want}")
    return VerifyResult(True, f"degeneration of order {h} verified ({d.kind})")


def apply_degeneration(t1: Tensor, d: DegenerationMap, target_shape):
    """Apply d to t1; returns (h_min, tensor at the lowest nonzero degree).

    Useful for building verified instances: with order set to the
    returned h_min, all lower coefficients vanish by construction.
    Returns (None, None) when the image is identically zero.
    """
    image = _substitute(t1, d)
    if not image:
        return None, None
    h = min(p.min_degree() for p in image.values())
    nx, ny, nz = target_shape
    entries = {}
    for key, poly in image.items():
        c = poly.coefficient(h)
        if c != 0:
            entries[key] = c
    return h, Tensor(range(nx), range(ny), range(nz), entries)


def _zeroing(*kept) -> DegenerationMap:
    """The zeroing out that keeps, on each axis, the listed source
    variables, numbered in their order."""
    one = LambdaPoly.one()
    return DegenerationMap(*({(src, w): one for w, src in enumerate(srcs)} for srcs in kept),
                           order=0)


def identity_map(t: Tensor) -> DegenerationMap:
    """The zeroing out that keeps every variable."""
    return _zeroing(*map(range, t.shape))


def zeroing_to_block(bs: BlockSet, key) -> DegenerationMap:
    """The zeroing out that restricts the parent tensor to block `key`."""
    if key not in bs._index:
        raise ValueError(f"no block {key}")
    return _zeroing(*(parts[b][1] for parts, b in zip(bs.partition.axis_parts, key)))


def compose(d1: DegenerationMap, d2: DegenerationMap) -> DegenerationMap:
    """Composite map witnessing T1 -> T3 given d1: T1 -> T2 and d2: T2 -> T3.

    The naive product of the maps with order h1 + h2 is not sound: high
    lambda degrees of the first substitution can feed low degrees of the
    second.  Rescaling d1 by lambda -> lambda^(h2+1) separates the
    contributions, giving a valid witness of order h1*(h2+1) + h2.
    """
    factor = d2.order + 1

    def combine(m1, m2):
        by_src2 = _grouped_by_source(m2)
        out = {}
        for (src, mid), poly1 in m1.items():
            scaled = poly1.scale_exponents(factor)
            for dst, poly2 in by_src2.get(mid, ()):
                key = (src, dst)
                term = scaled * poly2
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
        return out

    return DegenerationMap(
        combine(d1.alpha, d2.alpha),
        combine(d1.beta, d2.beta),
        combine(d1.gamma, d2.gamma),
        order=d1.order * factor + d2.order,
    )
