"""oraclelab: a desk-scale laboratory for oracle-query algorithms."""

from .akrule import (
    AkConfig,
    AkInstance,
    MeasurementSpec,
    OccamPair,
    QueryReport,
    ak_instances,
    decision_tree_cost,
    delta_entropy,
    delta_entropy_via_states,
    enumerate_occam_pairs,
    predict_queries,
    realized_subset,
    setting_instances,
)
from .circuits import (
    Circuit,
    Stage,
    StageTrace,
    builtin_circuit,
    composed_unitary,
    derive_a_outcome,
    dj_circuit,
    grover_circuit,
    initial_ensemble,
    run,
    simon1q_circuit,
)
from .histories import (
    History,
    HistoryClassification,
    classify_history,
    enumerate_histories,
    path_sum,
)
from .oracle import (
    OracleProblem,
    ProblemFormatError,
    Setting,
    build_dj,
    build_grover,
    build_simon,
    evaluate,
    load_problem,
    output_ensemble,
    parse_selector,
    serialize_problem,
)
from .qstate import (
    ATOL,
    BitString,
    Branch,
    BranchEnsemble,
    OutcomeDistribution,
    PureState,
    RegisterLayout,
    apply_stage,
    density_matrix,
    ensembles_close,
    measure_register,
    prepare_setting,
    project_setting_subset,
    reduced_entropy,
    sampled_phase_density,
    shannon_entropy,
)

__version__ = "0.1.0"
