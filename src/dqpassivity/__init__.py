"""Small-signal D-Q transmission-network models and passivity analysis.

Builds the wide-band D-Q admittance of an R-L-C network by per-element
stamping, re-expresses it in the polar interface variables used by power
control (bus angle / frequency deviation, normalized voltage magnitude
and its derivative, active and reactive power), and mechanically tests
each formulation against the positive-real passivity conditions. The
low-frequency load-flow Jacobian can be passivated with Q-V droop
contributions from shunt-connected devices.
"""

from .dqstamp import (
    ParasiticConfig,
    ProprietyError,
    SingularFrequencyError,
    StateMeta,
    StateSpace,
    assemble_ydq,
    eval_tf,
    export_matrices,
    storage_energy,
)
from .netcase import (
    Branch,
    Bus,
    CaseError,
    CaseParseError,
    CaseTopologyError,
    CaseValidationError,
    Injection,
    NetworkCase,
    SystemParams,
    VariantFlags,
    derive_variant,
    ieee9_text,
    load_ieee9,
    parse_case,
    serialize_case,
)
from .passcheck import (
    DissipationReport,
    MultisineInput,
    PassivityVerdict,
    SimulationUnstableError,
    SweepGrid,
    check_feedthrough,
    check_poles,
    check_residue_psd_hermitian,
    classify_grid,
    classify_model,
    hermitian_min_eig,
    random_multisine,
    simulate_dissipation,
    sweep_psd,
)
from .passivate import (
    InfeasibleRegulationError,
    RegulationSet,
    apply_qv_contribution,
    min_eig_excluding_uniform_angle,
    min_uniform_kqv,
)
from .polarmodels import (
    DegenerateOperatingPointError,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_polar_model,
    interface_matrices,
)
from .powerflow import (
    ConsistencyError,
    OperatingPoint,
    PowerFlowError,
    build_jlf_analytic,
    build_ybus,
    decouple,
    solve_powerflow,
    symmetric_part_eigenvalues,
)

__version__ = "0.1.0"
