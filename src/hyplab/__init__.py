"""hyplab: numerical toolkit for averaging operators, trace sums and
eigenfunction statistics on hyperbolic surfaces.

Modules
-------
geom            upper half-plane geometry: distances, polar chart, balls
fuchsian        cocompact Fuchsian groups: enumeration, domains, systole
selberg         radial-kernel / multiplier transform pair and heat kernel
propagator      disc-averaging propagator, lens integrals, HS estimates
spectral_action closed-form multiplier analysis and time-average bounds
trace           pre-trace sums, Weyl density, eigenvalue-count estimates
synthetic       truncated-cylinder spectra with exact ground truth
qe              quantum-ergodicity variance statistic and its bound
cli             command-line front end (``hyplab`` entry point)
"""

__version__ = "0.1.0"
