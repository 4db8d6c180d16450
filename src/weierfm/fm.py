"""Relative Fourier-Mukai transform calculus, truncated at ch1.

The transform is the relative Poincaré functor of the elliptic fibration,
normalized along the section.  For the line bundles O_X(mΘ) ⊗ p*N this
package tracks, everything needed downstream is:

* the concentration degree: m > 0 transforms to a sheaf in degree 0
  (WIT0), m <= 0 to one in degree 1 (WIT1);
* the truncated character (ch0, ch1) of the transform,

      ch0 = m,
      ch1 = -Θ - (m/2)·c + m·p*N,        c := -p*K_S,     (m != 0)

  and (ch0, ch1) = (0, Θ) for m = 0, where the transform is the ideal
  bookkeeping of a rank-0 sheaf supported on the section;
* slopes ∫ ch1·ω² / ch0 against polarizations ω = tΘ + s·p*h.

Two normalizations of the kernel are offered.  They differ by a pullback
of a power of the surface bundle omega, so their sole downstream effect
is the twist L that enters the duality comparison:

    PAPER      L = omega⁻¹   -> c1 = -omega_class
    ALTERNATE  L = omega⁻³   -> c1 = -3·omega_class

On a K-trivial threefold over a numerically K-trivial base both twists
vanish and the two kernels are indistinguishable at the level of classes.

``WitType`` and the duality verdict types, ``ConclusionKind`` and
``Conclusion``, are defined in :mod:`weierfm.verdicts`, which loads
neither this module nor the ring, so the duality engine runs without
either; they are imported here too, and resolve from this module as well.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import (
    HypothesisViolationError,
    ModelMismatchError,
    UndefinedSlopeError,
)
from .rationals import RationalLike, as_rational, require, value_class
from .ring import DivisorClassX, SurfaceModel, _Linear, require_x_k_trivial, x_integrate, x_mul
from .verdicts import Conclusion, ConclusionKind, WitType  # noqa: F401  (old import paths)

_HALF = Fraction(1, 2)


class KernelChoice(enum.Enum):
    PAPER = "paper"
    ALTERNATE = "alternate"

    def l_class(self, model: SurfaceModel) -> tuple[Fraction, ...]:
        """c1 of the duality twist L on the base, as Picard coordinates."""
        factor = -1 if self is KernelChoice.PAPER else -3
        return tuple(factor * w for w in model.omega_class)


@value_class
class LineBundleX:
    """O_X(mΘ) ⊗ p*N with N given by its Picard coordinates (the twist);
    a twist left out is N = O_S, the zero vector."""

    model: SurfaceModel
    m: int
    twist: tuple[Fraction, ...] | None = None

    def _check(self) -> None:
        if self.twist is None:
            object.__setattr__(self, "twist", self.model.zero_vector())
        self.model.check_vector(self.twist, "twist")

    def dual(self) -> "LineBundleX":
        return LineBundleX(self.model, -self.m, tuple(-t for t in self.twist))

    def render(self) -> str:
        return f"O_X({self.m}Θ)" + (
            "" if all(t == 0 for t in self.twist)
            else " ⊗ p*[" + ", ".join(str(t) for t in self.twist) + "]"
        )


def _truncated_mul(u: TruncatedChar, v: TruncatedChar) -> TruncatedChar:
    """The character of a tensor product, truncated after ch1:
    (ch0·ch0′, ch0·ch1′ + ch0′·ch1)."""
    return TruncatedChar(u.ch0 * v.ch0, u.ch0 * v.ch1 + v.ch0 * u.ch1)


@value_class
class TruncatedChar(_Linear):
    """Character truncated after ch1; all the slope theory ever reads.

    ``+``, ``scale`` and ``-x`` (the odd shift) act field by field, and
    ``x * y`` is the character of the tensor product (see
    :class:`weierfm.ring._Linear`)."""

    ch0: Fraction
    ch1: DivisorClassX

    _product = _truncated_mul

    @property
    def model(self) -> SurfaceModel:
        return self.ch1.model


@value_class
class TransformResult:
    char: TruncatedChar
    wit: WitType
    locally_free: bool


@value_class
class Polarization:
    """ω = tΘ + s·p*h with t, s > 0 and h² > 0 (ampleness is asserted
    by the caller; the quadratic check is the cheap necessary part)."""

    model: SurfaceModel
    t: Fraction
    s: Fraction
    h: tuple[Fraction, ...]

    def _check(self) -> None:
        if self.t <= 0 or self.s <= 0:
            raise ValueError("polarization parameters t, s must be positive")
        self.model.check_vector(self.h, "h")
        if self.model.pair(self.h, self.h) <= 0:
            raise ValueError("h·h must be positive for an ample class")

    def omega(self) -> DivisorClassX:
        return DivisorClassX(
            self.model, self.t, tuple(self.s * x for x in self.h)
        )

    def scaled(self, factor: RationalLike) -> "Polarization":
        f = as_rational(factor)
        return Polarization(
            self.model, f * self.t, f * self.s, self.h
        )


def wit_classify(lb: LineBundleX) -> WitType:
    """Concentration degree of the transform: WIT0 iff m > 0."""
    require(lb, LineBundleX, "line bundle")
    return WitType.WIT0 if lb.m > 0 else WitType.WIT1


def transform_char(lb: LineBundleX) -> TransformResult:
    """Truncated character of the transform of O_X(mΘ) ⊗ p*N.

    The same for both kernels: they differ by a pullback from the base
    whose effect enters only through the duality twist, which
    :func:`commutativity_check` applies.  A threefold that is not
    K-trivial is refused with :class:`HypothesisViolationError`.
    """
    require(lb, LineBundleX, "line bundle")
    model = lb.model
    require_x_k_trivial(model, "the transform character")
    m = lb.m
    if m == 0:
        # Rank-0 transform supported on the section: (0, Θ).
        char = TruncatedChar(
            Fraction(0), DivisorClassX(model, Fraction(1), model.zero_vector())
        )
        return TransformResult(char, WitType.WIT1, locally_free=False)
    half_mk = tuple(_HALF * m * k for k in model.canonical)
    delta = tuple(hk + m * tw for hk, tw in zip(half_mk, lb.twist))
    ch1 = DivisorClassX(model, Fraction(-1), delta)
    return TransformResult(
        TruncatedChar(Fraction(m), ch1), wit_classify(lb), locally_free=True
    )


def dual_char(v: TruncatedChar) -> TruncatedChar:
    """Character of the derived dual at this truncation: ch1 flips sign."""
    require(v, TruncatedChar, "character")
    return TruncatedChar(v.ch0, -v.ch1)


def slope(v: TruncatedChar, pol: Polarization) -> Fraction:
    """Slope ∫_X ch1·ω² / ch0 for ω the polarization divisor."""
    require(v, TruncatedChar, "character")
    require(pol, Polarization, "polarization")
    if v.model != pol.model:
        raise ModelMismatchError("character and polarization models differ")
    if v.ch0 == 0:
        raise UndefinedSlopeError("slope undefined for ch0 = 0")
    omega = pol.omega().as_threefold()
    numerator = x_integrate(x_mul(x_mul(v.ch1.as_threefold(), omega), omega))
    return numerator / v.ch0


def commutativity_check(
    lb: LineBundleX, kernel: KernelChoice = KernelChoice.PAPER
) -> bool:
    """Compare dual-then-transform against transform-then-dual.

    Left side: the dual of the transform's character.  Right side: the
    transform of the dual line bundle, tensored with the kernel's duality
    bundle p*L, then negated for the odd shift; the involution of the
    fibration acts trivially on all classes in play.  Exact equality of
    truncated characters is returned.
    """
    require(lb, LineBundleX, "line bundle")
    require(kernel, KernelChoice, "kernel")
    if lb.m == 0:
        raise HypothesisViolationError(
            "commutativity check needs m != 0 (rank-0 transforms shift differently)"
        )
    left = dual_char(transform_char(lb).char)
    pullback_l = TruncatedChar(Fraction(1), lb.model.divisor_x(delta=kernel.l_class(lb.model)))
    return left == -(transform_char(lb.dual()).char * pullback_l)
