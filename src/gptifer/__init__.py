"""Interferometric computation in generalized probabilistic theories."""

from .core import (
    DEFAULT_ATOL,
    Effect,
    FiniteGroup,
    GptState,
    LinearMap,
    ParametricFamily,
    ParametricGroup,
    Relabeling,
    TheoryModel,
    VectorTheory,
    apply,
    is_valid_effect,
    preserves_statespace,
    probability,
)
from .quaternion import NumericConsistencyError, QuatMatrix
from .theories import (
    DensityMatrixTheory,
    MatrixTheory,
    QuaternionicTheory,
    classical_theory,
    dball_theory,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_theory,
    spekkens_epistemic_theory,
    spekkens_ontic_theory,
    theory_by_name,
)
from .phase import (
    PhaseGroupReport,
    branch_local_subgroup,
    is_branch_local,
    is_phase_operation,
    localizable_union,
    phase_group,
)
from .interferometer import (
    BranchEncoding,
    BranchLocalityError,
    DJOutcome,
    GroverConfig,
    NonCommutingEncodingError,
    OracleSpec,
    UnsupportedTheoryError,
    build_oracle,
    classify,
    find_distinguishing_effect,
    run_dj,
    run_grover,
)
from .uncertainty import (
    PauliExpectations,
    bloch_norm,
    dball_bound,
    robertson_bound,
    schrodinger_bound,
)
from .experiments import ExperimentReport, emit_report, run_experiment

__version__ = "0.1.0"
