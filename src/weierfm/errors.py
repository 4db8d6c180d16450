"""Exception hierarchy shared by all weierfm modules.

Every error the library raises deliberately derives from ``WeierfmError``
so callers (and the CLI) can map failure classes to behaviour without
string matching.
"""

from __future__ import annotations


class WeierfmError(Exception):
    """Base class for all weierfm errors."""


class ModelMismatchError(WeierfmError):
    """Operands built over different surface models were combined."""


class UndefinedSlopeError(WeierfmError):
    """Slope requested for a character with ch0 = 0."""


class HypothesisViolationError(WeierfmError):
    """A mathematical precondition of the requested operation fails.

    Examples: stability certification over a surface whose canonical
    class is not numerically trivial, or the line-bundle pipeline called
    with m = 0.
    """


class InfeasibleScenarioError(WeierfmError):
    """A sheaf scenario is dimensionally impossible (e.g. codim > dim X)."""


class InternalCheckError(WeierfmError):
    """An internal cross-check failed.

    These guard identities the implementation promises to verify on
    every run: the slope functionals' coefficients (ring-vs-closed-form
    agreement), the sign of the target slope (``stability._functionals``),
    the degeneration of each duality page (``duality._check_degenerated``)
    and the engine's conclusion (``duality._entailed_conclusion``).  Seeing
    one means a bug, never bad user input.
    """
