"""Probe the asymptotic hypotheses that control existence and compactness.

Each probe samples a universally quantified condition and returns either
pass evidence or a machine-checked counterexample witness.  The leading
pair (top-degree parts of f and g) drives most of them: when its only
complementary solution is the origin, solution sets of every lower-order
perturbation stay compact and a global error bound becomes available.
"""

import numpy as np

from pcpkit import (
    PcpInstance,
    PolyMap,
    Polynomial,
    SolveConfig,
    coercivity_probe,
    enumerate_solutions,
    jacobian_degeneracy_scan,
    karamardian_coercivity_probe,
    p_function_probe,
    r0_test,
    xref_boundedness_probe,
)

g = PolyMap(
    (
        Polynomial(2, {(1, 0): 1.0, (0, 0): -1.0}),
        Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0}),
    )
)
affine = PcpInstance(PolyMap.identity(2), g)

y1 = Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0})
xy1 = Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0})
hyperbola = PcpInstance(PolyMap((y1, xy1)), PolyMap((y1, xy1)))

print("== trivial-solution (leading pair) probe ==")
for name, inst in (("Id / x-1", affine), ("hyperbola pair", hyperbola)):
    report = r0_test(inst)
    extra = ""
    if report.witness:
        extra = f", witness {np.round(report.witness['point'], 6).tolist()}"
    print(f"  {name:15s}: {report.verdict}{extra}")
print("  the hyperbola's leading pair (0, xy) vanishes on the axes\n")

print("== residual growth on large spheres ==")
for name, inst in (("Id / x-1", affine), ("hyperbola pair", hyperbola)):
    report = coercivity_probe(inst, [5.0, 10.0, 20.0, 50.0], samples_per_radius=800)
    stats = report.statistics
    print(
        f"  {name:15s}: fitted ||m|| ~ {stats['fitted_c']:.3f} R^{stats['fitted_alpha']:.3f}"
        f"   no_coercive_growth={stats['no_coercive_growth']}"
    )
print("  bounded residual at infinity is the signature of the global-bound failure\n")

print("== reference-point boundedness ==")
radius = float(np.hypot(10.0, 0.1))
good = xref_boundedness_probe(affine, [2.0, 2.0], 100.0)
bad = xref_boundedness_probe(hyperbola, [0.0, 0.0], radius)
print(f"  Id / x-1 at radius 100   : {good.verdict}")
print(f"  hyperbola at radius {radius:5.2f}: {bad.verdict}"
      f" (pairing {bad.witness['pairing']:.2f} at the witness)\n")

print("== Karamardian-type coercivity ==")
idm = PcpInstance(PolyMap.identity(2), PolyMap.identity(2))
print(f"  f = g = Id with c = 1: {karamardian_coercivity_probe(idm, 1.0).verdict}")
print(f"  f = g = Id with c = 2: {karamardian_coercivity_probe(idm, 2.0).verdict}\n")

print("== pairwise sign condition (uniqueness) ==")
x = Polynomial(2, {(1, 0): 1.0})
unsolvable = PcpInstance(PolyMap((x, xy1)), PolyMap((x, xy1)))
report = p_function_probe(unsolvable, [[0.0, 10.0], [0.0, 10.0]], pairs=5000)
print(f"  (x, xy-1) pair on its feasible set: {report.verdict}")
print("  a positive pairwise product forces at most one solution,")
print("  yet this instance has none: uniqueness never implies existence\n")

print("== Jacobian degeneracy at the solutions ==")
cfg = SolveConfig(starts_per_subsystem=120)
sols = enumerate_solutions(affine, cfg)
scan = jacobian_degeneracy_scan(sols)
print(f"  Id / x-1: {scan.verdict}, min |det Jac_I| per solution = "
      f"{scan.statistics['min_abs_det_by_solution']}")
