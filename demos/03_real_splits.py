"""Real structures on tropical curves: splitting, quotients, and m'.

A weight-2 end of a tropical curve can be split into two conjugate ends,
turning the curve into the quotient of a real curve. The maximal split cuts
every even end at its vertex, creating one quadrivalent vertex per merged
pair. The first-order multiplicity m' of the split curve reconstructs the
real refined invariant R curve by curve: R equals the sum of m'/4.
"""

from fractions import Fraction

from tropical_refine import (CombinatorialType, Degree, HalfLaurent, Vec,
                             WeightedPlaneParam, admissible_sets, build_split,
                             even_components, gamma_even, m_prime,
                             maximal_split, oriented_solution_count,
                             quotient_curve, r_from_n, sample_trial,
                             w_pow_minus_inverse)

delta_s = Degree(((-2, 0), (0, -1), (1, 1), (1, 0)))
m, s = 5, 1   # the parent degree splits the weight-2 end into two ends
trial = sample_trial(delta_s, seed=9)
n_trop, solutions = trial.n_trop, trial.solutions
print("degree:", " ".join(f"({v.x},{v.y})" for v in delta_s))
print("N =", n_trop, " R =", r_from_n(n_trop, m, s))
print()

total = HalfLaurent(0)
for sol in solutions:
    base = WeightedPlaneParam.from_solution(sol)
    split = maximal_split(base)
    mp = m_prime(split, sol.ctype.multiplicities())
    total = total + mp
    print(f"solution of type {sol.ctype.canonical_key()}:")
    print("  quadrivalent vertices:", split.quad_vertices)
    print("  split nodes:", len(split.nodes), " edges:", len(split.edges))
    print("  m' =", mp)
    print("  oriented real curves over it:", oriented_solution_count(split))
    # the per-curve bridge between m' and the refined multiplicity
    lhs = mp * w_pow_minus_inverse(2) ** s
    rhs = (HalfLaurent(4) * w_pow_minus_inverse(1) ** (m - 2 - s)
           * sol.refined_multiplicity())
    print("  bridge identity holds:", lhs == rhs)
    # splitting is invertible
    print("  quotient returns the base curve:", quotient_curve(split) == base)
print()
print("sum of m'/4 =", total.exact_div(HalfLaurent(4)), "= R")
print()

# Away from the maximal split, cut points range over an even subgraph.
closure = CombinatorialType(
    (Vec(3, 1), Vec(1, -1), Vec(-2, 0), Vec(-2, 0)),
    ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
base = WeightedPlaneParam(closure)
print("a tree whose even subgraph swallows a bounded edge:")
print("  even subgraph edges:", sorted(gamma_even(base)))
component = even_components(base)[0]
print("  admissible interior cut classes:",
      [sorted(c) for c in admissible_sets(base, component)])
cut = build_split(base, [((4, 5), Fraction(3, 2))])
print("  cutting that edge in its interior doubles the region beyond it:")
print("  split edge count:", len(cut.edges),
      " flat nodes:", len(cut.flat_nodes),
      " realizable:", cut.is_realizable)
print("  (an interior cut keeps the halved slopes parallel to the fixed")
print("  side, so only vertex cuts, as in maximal_split, realize)")
