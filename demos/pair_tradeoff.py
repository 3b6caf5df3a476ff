"""Purity-bias tradeoff for a pair of orthogonal noisy measurements.

Sweeps the shared bias of two binary qubit POVMs along x and y and finds
the critical purity where joint measurability is lost, first from the
closed-form pair criterion, then cross-checked with the feasibility oracle.
"""

import numpy as np

from jmqubit import BinaryQubitPovm, decide, pair_general

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def critical_eta(bias, steps=60):
    # bisect on the pair criterion margin; purity is capped by PSD at 1 - |bias|
    lo, hi = 0.0, 1.0 - abs(bias)
    p = BinaryQubitPovm(bias, hi * EX)
    q = BinaryQubitPovm(bias, hi * EY)
    if pair_general(p, q).decision == "compatible":
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        p = BinaryQubitPovm(bias, mid * EX)
        q = BinaryQubitPovm(bias, mid * EY)
        if pair_general(p, q).decision == "compatible":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main():
    print("bias   critical purity   oracle check")
    for bias in np.linspace(0.0, 0.6, 7):
        eta = critical_eta(bias)
        if eta is None:
            print(f"{bias:.2f}   compatible on the whole valid range")
            continue
        below = decide(
            [BinaryQubitPovm(bias, (eta - 0.02) * EX),
             BinaryQubitPovm(bias, (eta - 0.02) * EY)]
        )
        hi = min(eta + 0.02, 1.0 - bias)
        above = decide([BinaryQubitPovm(bias, hi * EX), BinaryQubitPovm(bias, hi * EY)])
        print(f"{bias:.2f}   {eta:.6f}          {below.status}/{above.status}")
    print()
    print("unbiased reference value 1/sqrt(2) =", 1 / np.sqrt(2))


if __name__ == "__main__":
    main()
