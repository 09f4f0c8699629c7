"""
Splitting the state space along a recurrent switching sequence
==============================================================

When the driven products settle toward an idempotent limit, its row space
and kernel split the state space into a part where the dynamics neither
grow nor decay and a part that is eventually wiped out.  For periodic
driving the same split falls out of one eigendecomposition, which gives an
exact cross-check on the numeric route.
"""

import numpy as np

from mjlslab import (
    MatrixSet,
    SwitchingSequence,
    grassmann_distance,
    limit_points,
    periodic_split,
    sequence_split,
    verify_splitting,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


CASES = [
    ("contraction + identity direction", [np.diag([0.5, 1.0])], [1]),
    ("pure rotation", [rotation(np.pi / 6)], [1]),
    ("shear with a contracting axis", [np.array([[0.5, 1.0], [0.0, 1.0]])], [1]),
]

for name, mats, word in CASES:
    family = MatrixSet.from_list(mats)
    seq = SwitchingSequence.periodic(word)

    limits = limit_points(family, seq, cylinder_len=1, horizon=4096)
    numeric = sequence_split(limits)
    exact = periodic_split(family, tuple(word))

    print(f"\n{name}")
    print(f"  numeric defect {numeric.defect:.3e}, exact defect {exact.defect:.3e}")
    print(f"  center dim {numeric.center.dim}, stable dim {numeric.stable.dim}")
    d_center = grassmann_distance(numeric.center, exact.center)
    d_stable = grassmann_distance(numeric.stable, exact.stable)
    print(f"  route agreement: center {d_center:.3e}, stable {d_stable:.3e}")

    evidence = verify_splitting(numeric, limits)
    if evidence.stable_tail_fits.size:
        print(f"  worst stable tail fit {evidence.stable_tail_fits.max():.4f}")
    if evidence.center_return_deviation_min.size:
        print(f"  center deviation at returns {evidence.center_return_deviation_min.max():.3e}")

# a 12-step rotation period closes up exactly, so the limit is the identity
rot = MatrixSet.from_list([rotation(np.pi / 6)])
split = periodic_split(rot, (1,) * 12)
print("\nrotation, word of length 12")
print("  idempotent ~ I:", np.allclose(split.idempotent, np.eye(2), atol=1e-12))
print("  center dim:", split.center.dim)
