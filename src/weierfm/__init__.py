"""Exact intersection-ring calculus and transform bookkeeping for
Weierstrass elliptic threefolds p: X -> S with a section Θ.

Everything is Fraction arithmetic; no floats enter anywhere.  The main
entry points:

- :mod:`weierfm.ring`: the truncated intersection ring of X,
- :mod:`weierfm.fm`: transform characters, slopes and duality checks,
- :mod:`weierfm.verdicts`: the WIT type and the duality verdict types
  (``WitType``, ``ConclusionKind``, ``Conclusion``),
- :mod:`weierfm.duality`: the two spectral-sequence pages and the
  closed-form duality verdicts they must reproduce,
- :mod:`weierfm.stability`: destabilizer certification and grid scans,
- :mod:`weierfm.presets`: ready-made surface models,
- :mod:`weierfm.serialize`: exact JSON in and out,
- :mod:`weierfm.cli`: the ``weierfm`` command.

Names load on first use: ``import weierfm`` imports none of these
modules, and reading ``weierfm.certify`` (or ``from weierfm import
certify``) imports :mod:`weierfm.stability` and whatever it needs, then
keeps the value as an ordinary attribute of the package.  The
submodules resolve the same way, so ``weierfm.stability`` works without
an explicit ``import weierfm.stability``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "duality": (
        "Forbidden", "ForcedZero", "Identification", "PageGrid", "ScenarioSolution",
        "SheafScenario", "ShortExact", "Side", "TermStatus", "build_pages",
        "compare_limits", "degenerate", "duality_decision", "solve_scenario",
    ),
    "errors": (
        "HypothesisViolationError", "InfeasibleScenarioError", "InternalCheckError",
        "ModelMismatchError", "UndefinedSlopeError", "WeierfmError",
    ),
    "fm": (
        "KernelChoice", "LineBundleX", "Polarization", "TransformResult", "TruncatedChar",
        "commutativity_check", "dual_char", "slope", "transform_char", "wit_classify",
    ),
    "presets": ("PRESETS", "Preset", "get_preset"),
    "ring": (
        "DivisorClassX", "SurfaceClass", "SurfaceModel", "ThreefoldClass",
        "exp_divisor", "fiber_degree", "pullback", "pushforward", "surface_mul",
        "x_integrate", "x_mul",
    ),
    "stability": (
        "DestabilizerCandidate", "EnumerationBounds", "ScanResult", "StabilityReport",
        "TransformStabilityReport", "Verdict", "candidate_slope", "certify",
        "enumerate_candidates", "target_slope", "transform_stability",
    ),
    "verdicts": ("Conclusion", "ConclusionKind", "WitType"),
    "rationals": (),
    "serialize": (),
    "cli": (),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines ``name``, on
    first access; the value stays in the package's namespace, so later
    reads never come back here."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    try:
        module = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
