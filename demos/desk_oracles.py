# Brute-force oracles on a desk-scale instance: the LP vertex sweep, the
# sparsest consistent signal, the sign-pattern image of sparse inputs, and
# the active-set walk that pins a signal to a full-rank boundary stack.

import numpy as np

from onebitcs import (
    SignMeasurement,
    active_set_augmentation,
    encode_bp_lp,
    enumerate_Yk,
    l0_min,
    lp_vertex_oracle,
    one_bit_bp,
)

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])


def main():
    meas = SignMeasurement.from_y(Y)

    problem, _ = encode_bp_lp(PHI, meas)
    oracle = lp_vertex_oracle(problem)
    sol = one_bit_bp(PHI, meas)
    print("decoder objective:", sol.objective)
    print("vertex oracle objective:", oracle.objective_value)

    sparsest = l0_min(PHI, meas)
    print(f"\nminimum support size: {sparsest.value:g}")
    for (sp, sm), x in sparsest.witnesses:
        print(f"  pattern +{list(sp)} -{list(sm)}  witness {np.round(x, 6)}")

    yk = enumerate_Yk(PHI, 1)
    print(f"\nsign images of 1-sparse signals ({len(yk)} total):")
    for m in yk:
        print(" ", tuple(int(v) for v in m.y))

    x0 = np.array([2.0, 0.0, 0.0, 0.0])
    trace = active_set_augmentation(PHI, meas, x0)
    print(f"\nwalk from {x0}: {len(trace.steps)} step(s) "
          f"-> {np.round(trace.final_x, 6)}")
    print("  active rows:", trace.final_active.active.tolist(),
          " full-rank stack:", trace.stack_full_rank,
          " support shrank:", trace.support_shrunk)


if __name__ == "__main__":
    main()
