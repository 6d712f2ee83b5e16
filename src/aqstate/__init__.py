"""aqstate: approximate quantum states from randomized single-qubit
measurements, with seminorm-bounded observable estimation.

An N-qubit state is summarized by M snapshots, each recording one random
measurement direction and one +/-1 outcome per qubit (3MN numbers total).
Any Pauli-basis observable can then be estimated from the snapshots alone,
with statistical error bounded by its seminorm divided by sqrt(M).
"""

from .pauli import (
    FactoredObservable,
    Observable,
    factored_seminorms,
    load_observable,
    normalize_to_unit_seminorm,
    projector_factored,
    projector_seminorms,
    save_observable,
    seminorm,
    seminorm1,
    seminorm2,
    shot_budget,
)
from .statevector import (
    Circuit,
    Gate,
    Statevector,
    exact_expectation,
    exact_expectation_factored,
    haar_random_state,
    load_circuit,
    random_prep_circuit,
    run_circuit,
    save_circuit,
)
from .snapshots import (
    ApproximateState,
    SnapshotFormatError,
    build_approximate_state,
    deserialize,
    load_snapshots,
    save_snapshots,
    serialize,
    snapshots_from_state,
)
from .estimator import (
    EstimateResult,
    estimate_factored,
    estimate_observable,
    predict_attenuated,
    reconstruct_density,
    snapshot_values,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    HaarMixedTermResult,
    haar_mixed_term_check,
    noise_attenuation_study,
    random_observable,
    run_experiment,
    run_verification,
)

__version__ = "0.1.0"
