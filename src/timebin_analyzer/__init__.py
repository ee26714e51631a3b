"""Angle-tolerant time-bin qubit analyzer simulation toolkit.

Modules by concern:

- :mod:`timebin_analyzer.geometry`: closed-form ray model of the
  unbalanced Michelson analyzer and the relay ABCD identity.
- :mod:`timebin_analyzer.waveoptics`: Gaussian and speckle fields on
  grids, and the analyzer's fringe visibility versus angle, scored in the
  spectral domain.
- :mod:`timebin_analyzer.quantum`: dense operators, tensor products,
  partial transpose, expectation values.
- :mod:`timebin_analyzer.states`: hybrid entangled state, the
  depolarization channel, and entanglement visibilities.
- :mod:`timebin_analyzer.measurement`: Alice's projectors along a Bloch
  vector and Bob's lossy time-bin POVM.
- :mod:`timebin_analyzer.chsh`: expectation values from counts, drift
  scans along a named Alice axis, the two-time surface, and CHSH.
- :mod:`timebin_analyzer.verify`: the PPT feasibility program deciding
  whether measured visibilities certify entanglement.
- :mod:`timebin_analyzer.analysis`: scenario sweeps stitching the
  modules together.
- :mod:`timebin_analyzer.cli`: command-line interface with CSV/SVG
  output.
"""

__version__ = "0.1.0"
