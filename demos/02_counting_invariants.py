"""Refined curve counting: from boundary constraints to the invariants N, R, BG.

Fixing generic moments for all but one end pins down finitely many tropical
curves. Summing their Block-Gottsche multiplicities gives the refined count
N, which does not depend on the chosen moments. N converts into the real
refined invariant R and the Broccoli normalization BG by exact divisions in
the half-integer Laurent ring.
"""

from tropical_refine import (Vec, broccoli_from_r, build_delta_s, delta_d,
                             invariance_audit, r_from_n, sample_trial,
                             split_even_ends)

delta_s = build_delta_s(delta_d(2), Vec(-1, 0), 1)
parent, s = split_even_ends(delta_s)
m = len(parent)
print("degree:", " ".join(f"({v.x},{v.y})" for v in delta_s))
print(f"parent ends m = {m}, merged pairs s = {s}")
print()

# one call draws generic moments and counts the curves through them
trial = sample_trial(delta_s, seed=42)
mu, n_trop, solutions = trial.moments, trial.n_trop, trial.solutions
print("drawn moments:", ", ".join(str(v) for v in mu.values))
for sol in solutions:
    print(f"  curve of type {sol.ctype.canonical_key()}: "
          f"multiplicity {sol.det_abs}, "
          f"refined {sol.refined_multiplicity()}")
print("N =", n_trop)
print()

r_inv = r_from_n(n_trop, m, s)
print("R  =", r_inv, " (real refined invariant)")
print("BG =", broccoli_from_r(r_inv, m, s), " (Broccoli normalization)")
print("N at q = 1:", n_trop.eval_q1(), " (classical curve count)")
print()

print("invariance over 6 independently seeded constraint sets:")
report = invariance_audit(delta_s, trials=6, seed=2024)
print("  solutions per trial:", list(report.solutions_per_trial))
print("  every trial's N:", report.n_trop, "(audit raises if any differed)")
