"""Entanglement between inertial and uniformly accelerated observers.

Negativity of the Alice-Rob (inertial vs Rindler wedge I) and
Alice-AntiRob (inertial vs wedge II) bipartitions for a maximally
entangled Minkowski-Unruh state with general Unruh weights (q_R, q_L),
for a scalar boson in a truncated Rindler Fock basis and for a Grassmann
scalar exactly, plus the smearing-function Fourier transform that decides
when a Minkowski wave packet behaves like a single Unruh mode.
"""

from .bosonic import (
    BosonCurveRow,
    BosonScenario,
    BosonSqueezing,
    BosonTruncation,
    ConvergenceReport,
    NegativityPair,
    TruncatedKet,
    bosonic_curve,
    bosonic_negativity_pair,
    joint_state,
    rho_alice_antirob,
    rho_alice_rob,
    unruh_excitation_ket,
    unruh_vacuum_ket,
    vacuum_coefficients,
)
from .errors import (
    ConvergenceError,
    EigensolverError,
    GridError,
    LabelError,
    MethodDisagreementError,
)
from .fermionic import (
    FermionCurveRow,
    FermionNegativityPair,
    FermionScenario,
    FermionSqueezing,
    GRASSMANN_SPACE,
    PTBlocks,
    fermion_joint_state,
    fermionic_curve,
    fermionic_negativity_pair,
    grassmann_one_particle,
    grassmann_vacuum,
    method_agreement_residual,
    pt_blocks,
    rho_alice_antirob_fermi,
    rho_alice_rob_fermi,
)
from .qops import (
    DensityOperator,
    FockKet,
    NegativityValue,
    PartialTransposeMatrix,
    TensorSpace,
    basis_ket,
    negativity,
    partial_trace,
    partial_transpose,
    reduced_density,
    tensor_product,
)
from .wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
    MassiveKernel,
    MassiveSmearing,
    MinkowskiSmearing,
    PeakingReport,
    UnruhSmearingPair,
    alpha_l,
    alpha_r,
    alternate_packets,
    closed_form_g,
    f_from_g,
    f_log_gaussian,
    g_from_f,
    massive_alpha,
    massive_f_from_g,
    massive_g_from_f,
    massive_peaking_report,
    mixed_log_gaussian,
    parseval_residual,
    peaking_report,
    peaking_report_from_pair,
    rapidity_gaussian,
    round_trip_error,
)
from .weights import UnruhWeights

__version__ = "0.1.0"
