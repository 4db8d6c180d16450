"""Bundled surface models.

Each preset fixes a base-surface lattice together with a default ample
class used when the caller does not pass one explicitly.

k3_quartic    quartic K3 base: rho = 1, H² = 4, K_S = 0.
enriques      Enriques base: rho = 1 slice with H² = 2; K_S is torsion,
              hence numerically trivial, which is all this package sees.
general_demo  P¹×P¹ base with its full rank-2 lattice and nonzero
              canonical class.  The Weierstrass threefold over it is
              K-trivial (omega matches the canonical), but K_S itself is
              not numerically trivial, so the stability machinery refuses
              this model; it exists for ring and transform demos.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import SurfaceModel


@dataclass(frozen=True)
class Preset:
    name: str
    model: SurfaceModel
    ample: tuple[Fraction, ...]
    blurb: str


def _preset(
    name: str,
    gram: tuple[tuple[int, ...], ...],
    canonical: tuple[int, ...],
    k_trivial: bool,
    ample: tuple[int, ...],
    blurb: str,
) -> Preset:
    """A preset over a K-trivial threefold: its omega class is its canonical."""
    model = SurfaceModel(len(gram), gram, canonical, k_trivial, canonical)
    return Preset(name, model, tuple(map(Fraction, ample)), blurb)


PRESETS: dict[str, Preset] = {
    row[0]: _preset(*row)
    for row in (
        ("k3_quartic", ((4,),), (0,), True, (1,), "quartic K3 base, H²=4"),
        ("enriques", ((2,),), (0,), True, (1,), "Enriques base, H²=2"),
        ("general_demo", ((0, 1), (1, 0)), (-2, -2), False, (1, 1),
         "P¹×P¹ base, nonzero canonical; ring/transform demos only"),
    )
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None
