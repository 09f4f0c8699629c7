"""
A recurrent sequence that converges slower than any exponential
===============================================================

The two-symbol word built by sandwiching quadratically growing blocks of
symbol 1 between copies of the previous level stays recurrent, but the rare
symbol 2 steps become so sparse that the driven product norm decays to zero
with a vanishing exponential rate.
"""

import numpy as np

from mjlslab import (
    MatrixSet,
    SwitchingSequence,
    classify_recurrence,
    quadratic_gap_lengths,
    vector_log_norm_history,
)

ALPHA = 0.5
LEVELS = 4

seq = SwitchingSequence.quadratic_gap(LEVELS)
lengths = quadratic_gap_lengths(LEVELS)
print("level lengths:", lengths)
print("rare-symbol count:", seq.detail["ones_count"])

family = MatrixSet.from_list([np.eye(2), np.diag([ALPHA, 1.0])])
symbols = seq.prefix(lengths[-1])
history = vector_log_norm_history(family, symbols, [1.0, 0.0])

print("\n  n      ones   ||e1 A(n)||      per-step exponent")
for n in lengths:
    ones = int(np.count_nonzero(symbols[:n] == 2))
    print(f"{n:>6} {ones:>6}   {np.exp(history[n-1]):<12.6g}   {history[n-1]/n:.8f}")
# norms fall, exponents rise toward zero: convergence without a uniform rate

verdict = classify_recurrence(seq, max_cylinder_len=4, horizon=lengths[-1])
print("\nrecurrence verdict:", verdict.verdict)
print("return counts by cylinder length:", verdict.counts)

# a periodic word, by contrast, returns with a fixed positive frequency
periodic = SwitchingSequence.periodic([1, 2, 2])
freqs = classify_recurrence(periodic, max_cylinder_len=3, horizon=300).frequencies
for L, f in enumerate(freqs, start=1):
    print(f"periodic (1,2,2): length-{L} return frequency {f:.4f}")
