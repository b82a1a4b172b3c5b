"""
Verifying the hand-written backward passes
==========================================

Every gradient in this package is derived and coded by hand, so each one is
checked against central finite differences. This script runs a slice of the
verification suite and shows the raw mechanics on a single coordinate.
"""

import numpy as np

from radkg import check_gradients, default_cases, run_suite

# ---------------------------------------------------------------------------
# The mechanics: perturb one parameter by +/- h and difference the outputs.
# ---------------------------------------------------------------------------
h = 1e-5


def f(theta):
    return float(theta[0] ** 2 + 3.0 * theta[0])


theta = np.array([2.0])
numeric = (f(theta + h) - f(theta - h)) / (2.0 * h)
print(f"d/dx (x^2 + 3x) at x=2: analytic 7, central difference {numeric:.9f}")

# ---------------------------------------------------------------------------
# One instance end to end: a random model, random feature code, random
# targets, differentiated through score, sigmoid, and cross entropy.
# ---------------------------------------------------------------------------
result = check_gradients("conve", feature_dim=16, embed_dim=25, n_findings=5,
                         channels=2, seed=0, mode="loss")
print(f"\nsingle conv instance: {result.coords_checked} coordinates checked, "
      f"{result.coords_skipped} skipped at ReLU kinks, "
      f"worst relative error {result.max_rel_error:.2e}")

# A central difference straddling a ReLU kink averages two linear pieces and
# does not match the one-sided subgradient; those coordinates are detected by
# comparing the ReLU activation sign patterns at both probe endpoints.

# ---------------------------------------------------------------------------
# The full grid crosses embedding width, feature width, and channel count.
# ---------------------------------------------------------------------------
for scorer, seeds in (("distmult", range(3)), ("conve", range(2))):
    report = run_suite(default_cases(scorer), seeds=seeds, mode="loss")
    status = "pass" if report.passed else "FAIL"
    print(f"\n{scorer}: {len(report.results)} seed-configs, "
          f"worst {report.max_rel_error:.2e} vs tolerance {report.tolerance:g} "
          f"[{status}]")
    for r in report.results[:4]:
        print(f"  D={r.feature_dim:<5} d={r.embed_dim:<4} C={r.channels} "
              f"seed={r.seed} -> {r.max_rel_error:.2e} "
              f"({r.coords_checked} coords)")
    print("  ...")
