"""Exact numerical intersection calculus for Weierstrass elliptic threefolds.

The geometry is a flat elliptic fibration p: X -> S with a section Θ over
a smooth projective surface S.  Numerically, everything we need lives in
two truncated rings:

* on S, a class is (r, d, s): a multiple of the unit in degree 0, a vector
  d of Picard coordinates in degree 2, and a multiple of the point class
  in degree 4.  Products of the middle parts go through a fixed symmetric
  Gram matrix, and the point class integrates to 1.

* on X, the section splits the cohomology, so a class is a pair
  Θ·p*(alpha) + p*(beta) of surface classes.  The single relation worth
  remembering is

      Θ² = Θ · p*K_S

  which lets every product be rewritten back into split form.  Degree-8
  terms on a threefold vanish, so alpha and beta truncate exactly like
  surface classes and no information is lost.

Divisors on X get their own lightweight type (a·Θ + p*delta) because the
transform calculus in :mod:`weierfm.fm` only ever needs characters up to
ch1; ``exp_divisor`` turns a divisor into the full threefold class when
the ring has to take over.  All three classes, and the truncated
characters of :mod:`weierfm.fm`, take their ``+``, ``scale`` and
``is_zero`` from their fields, through one rule (``_Linear``).

All coefficients are ``fractions.Fraction``; there is no floating point
in this module or anywhere downstream of it.  Each public function refuses
an argument that is not of its annotated class with ValueError when the
call starts.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import HypothesisViolationError, ModelMismatchError
from .rationals import RationalLike, as_rational, require, value_class

_HALF = Fraction(1, 2)
_SIXTH = Fraction(1, 6)


@value_class
class SurfaceModel:
    """Numerical model of the base surface S.

    picard_rank   -- number of Picard coordinates (rho >= 1)
    gram          -- rho x rho symmetric integer intersection matrix
    canonical     -- Picard coordinates of K_S
    k_trivial     -- declares K_S numerically trivial (then canonical = 0)
    omega_class   -- Picard coordinates of c1(omega), the line bundle on S
                     controlling the relative dualizing sheaf of X -> S
    """

    picard_rank: int
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[Fraction, ...]
    k_trivial: bool
    omega_class: tuple[Fraction, ...]

    def _check(self) -> None:
        rho, gram = self.picard_rank, self.gram
        if rho < 1:
            raise ValueError(f"picard_rank must be a positive integer, got {rho!r}")
        if len(gram) != rho or any(len(row) != rho for row in gram):
            raise ValueError(f"gram must be a {rho}x{rho} matrix")
        if any(gram[i][j] != gram[j][i] for i in range(rho) for j in range(i)):
            raise ValueError("gram must be symmetric")
        self.check_vector(self.canonical, "canonical")
        self.check_vector(self.omega_class, "omega_class")
        if self.k_trivial and any(c != 0 for c in self.canonical):
            raise ValueError("k_trivial surface must have canonical = 0")

    # -- derived facts ---------------------------------------------------

    @property
    def x_k_trivial(self) -> bool:
        """Whether the total space X is numerically K-trivial.

        K_X = p*(K_S - c1(omega)) on a Weierstrass model, so the condition
        is exactly omega_class == canonical.  The ring product and the
        transform character refuse a model where it fails.
        """
        return self.omega_class == self.canonical

    def check_vector(self, vector: tuple, what: str) -> None:
        """Refuse with ValueError a Picard vector ``what`` without rho entries."""
        if len(vector) != self.picard_rank:
            raise ValueError(f"{what} must have length {self.picard_rank}")

    def pair(self, u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> Fraction:
        """Gram pairing u·v of two Picard vectors."""
        self.check_vector(u, "u")
        self.check_vector(v, "v")
        total = Fraction(0)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                if vj != 0 and row[j] != 0:
                    total += ui * row[j] * vj
        return total

    # -- class factories -------------------------------------------------

    def zero_vector(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.picard_rank

    def surface(self, r: RationalLike = 0, d=None, s: RationalLike = 0) -> "SurfaceClass":
        dvec = self.zero_vector() if d is None else d
        return SurfaceClass(self, r, dvec, s)

    def unit_surface(self) -> "SurfaceClass":
        return self.surface(r=1)

    def point_surface(self) -> "SurfaceClass":
        return self.surface(s=1)

    def divisor_surface(self, d) -> "SurfaceClass":
        return self.surface(d=d)

    def canonical_surface(self) -> "SurfaceClass":
        return self.surface(d=self.canonical)

    def unit_x(self) -> "ThreefoldClass":
        return ThreefoldClass(self.surface(), self.unit_surface())

    def theta(self) -> "ThreefoldClass":
        """The section class Θ."""
        return ThreefoldClass(self.unit_surface(), self.surface())

    def fiber(self) -> "ThreefoldClass":
        """The fiber class f = p*[pt]."""
        return ThreefoldClass(self.surface(), self.point_surface())

    def divisor_x(self, a: RationalLike = 0, delta=None) -> "DivisorClassX":
        dvec = self.zero_vector() if delta is None else delta
        return DivisorClassX(self, a, dvec)


def require_x_k_trivial(model: SurfaceModel, what: str) -> None:
    """Refuse a threefold that is not K-trivial (omega class ≠ K_S).

    The ring's fold Θ² = Θ·p*K_S and the transform character read K_S
    where such a threefold needs its omega class, so neither holds there.
    """
    if not model.x_k_trivial:
        raise HypothesisViolationError(
            f"{what} needs a K-trivial threefold "
            "(omega class matching the canonical class)"
        )


def _check_same_model(left: SurfaceModel, right: SurfaceModel) -> SurfaceModel:
    """``left``, if ``right`` is the same model; else ModelMismatchError."""
    if left != right:
        raise ModelMismatchError(
            "cannot combine classes over different surface models"
        )
    return left


# One field of a ring class, by the type of its value, which the class's
# constructor checked against the field's annotation: a SurfaceModel must be
# the same on both sides and is kept, a Fraction adds and scales, a tuple of
# Fractions does so entry by entry, and a nested class recurses.
def _add_field(u, v):
    if type(u) is tuple:
        return tuple(map(operator.add, u, v))
    if type(u) is SurfaceModel:
        return _check_same_model(u, v)
    return u + v


def _scale_field(c: Fraction, u):
    if type(u) is tuple:
        return tuple(c * x for x in u)
    if type(u) is SurfaceModel:
        return u
    return u.scale(c) if isinstance(u, _Linear) else c * u


class _Linear:
    """The arithmetic of a ring class, derived from its fields in field
    order (see :func:`_add_field`): ``x + y`` and ``x.scale(c)``; from
    those ``x.is_zero()`` (x equals 0·x), ``-x``, ``x - y``, and ``c * x``
    and ``x * c`` for an int or Fraction c; and ``x * y``, the ring product
    that the class names as ``_product``, if it has one.  ``+``, ``-`` and
    ``x * y`` take only a class of the same kind; any other operand gives
    NotImplemented, so Python raises TypeError."""

    _product = None

    # A value class's __dict__ holds exactly its fields, in field order:
    # its constructors, public and trusted, write them so, and nothing else
    # writes there.
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*map(_add_field, vars(self).values(), vars(other).values()))

    def scale(self, c: RationalLike):
        c = as_rational(c)
        return type(self)(*[_scale_field(c, u) for u in vars(self).values()])

    def is_zero(self) -> bool:
        return self == self.scale(0)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self._product is not None and isinstance(other, type(self)):
            return self._product(other)
        return NotImplemented

    __rmul__ = __mul__


def surface_mul(u: SurfaceClass, v: SurfaceClass) -> SurfaceClass:
    """Cup product on S, truncated above degree 4."""
    require(u, SurfaceClass, "first factor")
    require(v, SurfaceClass, "second factor")
    model = _check_same_model(u.model, v.model)
    d = tuple(u.r * b + v.r * a for a, b in zip(u.d, v.d))
    s = u.r * v.s + v.r * u.s + model.pair(u.d, v.d)
    return SurfaceClass(model, u.r * v.r, d, s)


@value_class
class SurfaceClass(_Linear):
    """Truncated numerical class r + d + s·[pt] on the base surface."""

    model: SurfaceModel
    r: Fraction
    d: tuple[Fraction, ...]
    s: Fraction

    _product = surface_mul

    def _check(self) -> None:
        self.model.check_vector(self.d, "degree-2 part")


def x_mul(x: ThreefoldClass, y: ThreefoldClass) -> ThreefoldClass:
    """Product on X, folding Θ² back in via Θ² = Θ·p*K_S.

    (Θa + b)(Θa' + b') = Θ·(K_S·a·a' + a·b' + a'·b) + b·b'
    with all products on the right taken on the surface.  The K_S term is
    skipped when K_S = 0, which is every K-trivial base.
    """
    require(x, ThreefoldClass, "first factor")
    require(y, ThreefoldClass, "second factor")
    model = _check_same_model(x.model, y.model)
    require_x_k_trivial(model, "the ring product")
    alpha = surface_mul(x.alpha, y.beta) + surface_mul(y.alpha, x.beta)
    if any(model.canonical):
        k = model.canonical_surface()
        alpha = surface_mul(surface_mul(k, x.alpha), y.alpha) + alpha
    beta = surface_mul(x.beta, y.beta)
    return ThreefoldClass(alpha, beta)


@value_class
class ThreefoldClass(_Linear):
    """Split class Θ·p*(alpha) + p*(beta) on the threefold X."""

    alpha: SurfaceClass
    beta: SurfaceClass

    _product = x_mul

    def _check(self) -> None:
        _check_same_model(self.alpha.model, self.beta.model)

    @property
    def model(self) -> SurfaceModel:
        return self.alpha.model


def x_integrate(x: ThreefoldClass) -> Fraction:
    """Integral over X: only Θ·p*[pt] carries degree (∫_X Θ·p*[pt] = 1)."""
    require(x, ThreefoldClass, "threefold class")
    return x.alpha.s


def pullback(u: SurfaceClass) -> ThreefoldClass:
    """p* of a surface class."""
    require(u, SurfaceClass, "surface class")
    return ThreefoldClass(u.model.surface(), u)


def pushforward(x: ThreefoldClass) -> SurfaceClass:
    """p_* of a split class; kills the pulled-back part, drops Θ."""
    require(x, ThreefoldClass, "threefold class")
    return x.alpha


@value_class
class DivisorClassX(_Linear):
    """Divisor a·Θ + p*delta on X, the shape every ch1 in this package has."""

    model: SurfaceModel
    a: Fraction
    delta: tuple[Fraction, ...]

    def _check(self) -> None:
        self.model.check_vector(self.delta, "delta")

    def as_threefold(self) -> ThreefoldClass:
        model = self.model
        return ThreefoldClass(
            model.surface(r=self.a), model.divisor_surface(self.delta)
        )

    def render(self) -> str:
        """Human-readable form, e.g. ``-Θ + p*[1/2, -1]``."""
        pieces: list[str] = []
        if self.a != 0:
            if self.a == 1:
                pieces.append("Θ")
            elif self.a == -1:
                pieces.append("-Θ")
            else:
                pieces.append(f"{self.a}Θ")
        if any(x != 0 for x in self.delta):
            vec = ", ".join(str(x) for x in self.delta)
            joiner = " + " if pieces else ""
            pieces.append(f"{joiner}p*[{vec}]")
        return "".join(pieces) if pieces else "0"


def fiber_degree(c1: DivisorClassX) -> Fraction:
    """Degree of the divisor on the elliptic fiber: the Θ coefficient."""
    require(c1, DivisorClassX, "divisor")
    return c1.a


def exp_divisor(divisor: DivisorClassX) -> ThreefoldClass:
    """1 + D + D²/2 + D³/6 for a divisor D; D⁴ = 0 in degrees on X."""
    require(divisor, DivisorClassX, "divisor")
    model = divisor.model
    d1 = divisor.as_threefold()
    d2 = x_mul(d1, d1)
    d3 = x_mul(d2, d1)
    return model.unit_x() + d1 + d2.scale(_HALF) + d3.scale(_SIXTH)
