"""Slope stability of transformed line bundles: certify, then scan.

    python demos/04_stability_search.py
"""

from fractions import Fraction

from weierfm import (
    DestabilizerCandidate,
    EnumerationBounds,
    LineBundleX,
    Polarization,
    certify,
    get_preset,
    target_slope,
    transform_stability,
)

k3 = get_preset("k3_quartic")
pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)

# The transform of O_X(-2Θ) has rank 2 and a strictly positive slope.
# A destabilizer would be a rank-1 subsheaf matching or beating it.
n = 2
print("target slope of the rank-2 transform:", target_slope(n, pol))

print("\n== three candidate destabilizers ==")
for r, a, delta, e in ((1, Fraction(1), (Fraction(0),), 1),
                       (1, Fraction(0), (Fraction(0),), 1),
                       (1, Fraction(2), (Fraction(1),), 0)):
    cand = DestabilizerCandidate(r, a, delta, e)
    report = certify(n, pol, cand)
    print(f"r={r} a={a} delta=[{', '.join(map(str, delta))}] e={e}:  "
          f"{report.verdict.value:12s} slope {report.candidate_slope}")
    for step in report.trace:
        print(f"    {step.name}: {step.value}  (want {step.requirement})")
    for reason in report.inadmissible_reasons:
        print(f"    excluded: {reason}")

# The full pipeline enumerates a grid of candidates.  Admissible ones
# always land at slope <= 0, strictly below the target, so the scan comes
# back violation-free: the transform is slope-stable.
print("\n== grid scan ==")
bounds = EnumerationBounds(a_max=Fraction(4), delta_max=Fraction(4))
report = transform_stability(LineBundleX(k3.model, -2), pol, bounds)
counts = report.scan.verdict_counts()
print("candidates:", report.scan.candidate_count, counts)
print("stable:", report.stable)

# Positive multiples of the section reduce to the negative case through
# the duality identification, which the report records.
report = transform_stability(LineBundleX(k3.model, 2), pol, bounds)
print("\n== m = +2 routes through duality ==")
for line in report.reduction:
    print(" ", line)
print("duality step:", report.duality_step.statement)
print("stable:", report.stable)
