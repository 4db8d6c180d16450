"""The duality verdict types: the WIT type of a transform and the
conclusion a duality solve ends in.

The duality engine builds a ``Conclusion`` (E^D is WIT1, or
ι*Φ^0(E^D) ⊗ p*L is identified with (Φ^w E)^D, or the scenario is
forbidden) from a scenario's declared ``WitType``.  The types live in this
leaf module, which loads only :mod:`weierfm.rationals`, so the engine runs
without the intersection ring or the transform layer, and the stability
pipeline and the JSON codec read a conclusion without loading the engine.
:mod:`weierfm.fm` imports them too, for its own annotations.
"""

from __future__ import annotations

import enum

from .rationals import value_class


class WitType(enum.Enum):
    WIT0 = "WIT0"
    WIT1 = "WIT1"


class ConclusionKind(enum.Enum):
    DUAL_IS_WIT1 = "DualIsWIT1"
    DUAL_IDENTIFICATION = "DualIdentification"
    FORBIDDEN = "Forbidden"


@value_class
class Conclusion:
    kind: ConclusionKind
    statement: str
    via_dimension_only: bool = False
