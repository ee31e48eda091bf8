"""Entanglement between inertial and uniformly accelerated observers.

Negativity of the Alice-Rob (inertial vs Rindler wedge I) and
Alice-AntiRob (inertial vs wedge II) bipartitions for a maximally
entangled Minkowski-Unruh state with general Unruh weights (q_R, q_L),
for a scalar boson in a truncated Rindler Fock basis and for a Grassmann
scalar exactly, plus the smearing-function Fourier transform that decides
when a Minkowski wave packet behaves like a single Unruh mode.

Import from the submodules: ``unruhkit.bosonic``, ``unruhkit.fermionic``,
``unruhkit.wavepacket``, ``unruhkit.weights``, ``unruhkit.qops`` and
``unruhkit.errors``.
"""

__version__ = "0.1.0"
