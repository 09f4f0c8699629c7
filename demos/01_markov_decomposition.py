"""
Ergodic decomposition of a stationary Markov chain
==================================================

A chain whose initial distribution is stationary splits into recurrent
classes, each carrying a share of the initial mass, plus transient states
that carry none. This script validates a reducible 3-state chain, decomposes
it, and checks the shift-invariance of the cylinder measure directly.
"""

import numpy as np

from mjlslab import (
    MarkovChain,
    ergodic_decomposition,
    is_irreducible,
    shift_invariance_defect,
    validate_chain,
)

# states 1 and 2 are absorbing, state 3 feeds into them and keeps no mass
chain = MarkovChain(
    initial=[0.3, 0.7, 0.0],
    transition=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
)

report = validate_chain(chain)
print("valid:", report.valid)
print("stationarity defect:", report.stationarity_defect)
print("irreducible:", is_irreducible(chain))

dec = ergodic_decomposition(chain)
print("\nrecurrent classes:", dec.classes)
print("transient states: ", dec.transient_states)
print("class weights:    ", dec.weights)
print("zero-mass states match the transient set:", dec.zero_mass_matches_transient)

# the measure of a cylinder is the initial mass times the transition product
p, t = chain.initial, chain.transition
print("\nmu([1]) =", float(p[0]))
print("mu([3, 1]) =", float(p[2] * t[2, 0]))

# stationarity makes the measure shift invariant; the defect is the largest
# violation over all short cylinders
print("\nshift-invariance defect (words up to length 4):",
      shift_invariance_defect(chain, max_len=4))

# parking mass on the transient state breaks stationarity immediately
tilted = MarkovChain([0.3, 0.5, 0.2], chain.transition)
print("defect after moving mass onto the transient state:",
      shift_invariance_defect(tilted, max_len=4))

# a mixture over the classes is again stationary: weights can be anything
for w in (0.1, 0.5, 0.9):
    mix = MarkovChain([w, 1.0 - w, 0.0], chain.transition)
    assert shift_invariance_defect(mix, max_len=3) < 1e-15
print("\nevery mixture of the two class measures is shift invariant")
