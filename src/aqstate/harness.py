"""Experiment harness: random observables and projectors, coverage-fraction
experiments with convergence curves, Haar-ensemble property checks, the
readout-attenuation study, and the statistical checks shared by `aqstate
verify` and the acceptance suite.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .pauli import (
    Observable,
    factored_seminorms,
    normalize_to_unit_seminorm,
    projector_factored,
    projector_seminorms,
    seminorm,
    seminorm1,
    seminorm2,
)
from .statevector import (
    MAX_QUBITS,
    Circuit,
    Gate,
    circuit_to_dict,
    exact_expectation,
    exact_expectation_factored,
    haar_random_state,
    pauli_expectation_batch,
    random_prep_circuit,
    run_circuit,
)
from .snapshots import snapshots_from_state
from .estimator import (
    EstimateResult,
    estimate_observable,
    reconstruct_density,
    snapshot_values,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "HaarMixedTermResult",
    "VerificationResult",
    "random_observable",
    "log_checkpoints",
    "run_experiment",
    "mixed_term_strings",
    "haar_mixed_term_check",
    "noise_attenuation_study",
    "check_tomographic_identity",
    "check_second_moments",
    "check_projector_closed_forms",
    "check_seminorm_hierarchy",
    "check_readout_attenuation",
    "check_haar_mixed_terms",
    "run_verification",
]

OBSERVABLE_KINDS = ("random_pauli_sum", "basis_projector")
NORMALIZATIONS = ("seminorm", "seminorm2", "none")

REPORT_FORMAT_VERSION = 2

# Haar-ensemble checks sample dense states of at most this many qubits
HAAR_QUBIT_CAP = 5

# sub-stream tags hashed together with the master seed
_TAG_CIRCUIT, _TAG_OBSERVABLES, _TAG_SNAPSHOTS = 0, 1, 2


@dataclass(frozen=True)
class ExperimentConfig:
    n_qubits: int
    n_snapshots: int
    seed: int
    n_observables: int = 20
    terms_per_observable: int = 20
    p_err: float = 0.0
    observable_kind: str = "random_pauli_sum"
    normalization: str = "seminorm"

    def __post_init__(self):
        for name in ("n_qubits", "n_snapshots", "seed", "n_observables", "terms_per_observable"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a NumPy integer would not serialize
        if not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in 2..{MAX_QUBITS}")
        if self.n_snapshots < 1 or self.n_observables < 1 or self.terms_per_observable < 1:
            raise ValueError("counts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if isinstance(self.p_err, bool) or not isinstance(self.p_err, (int, float)):
            raise ValueError(f"p_err must be a number, got {self.p_err!r}")
        if not 0.0 <= self.p_err < 1.0:
            raise ValueError("p_err must lie in [0, 1)")
        if self.observable_kind not in OBSERVABLE_KINDS:
            raise ValueError(f"observable_kind must be one of {OBSERVABLE_KINDS}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"malformed experiment config: {exc}") from exc


def random_observable(
    n_qubits: int,
    n_terms: int,
    rng: np.random.Generator,
    normalization: str = "seminorm",
) -> Observable:
    """Random Pauli sum: each qubit's axis uniform over {I,X,Y,Z}, each
    coefficient uniform on (0, 1], then rescaled per ``normalization``."""
    axes = rng.integers(0, 4, size=(n_terms, n_qubits))
    coeffs = 1.0 - rng.random(n_terms)
    obs = Observable.from_rows(n_qubits, axes, coeffs)
    if normalization != "none":
        obs = normalize_to_unit_seminorm(obs, which=normalization)
    return obs


def log_checkpoints(n_snapshots: int, points: int = 12, start: int = 100) -> list[int]:
    """Logarithmically spaced snapshot counts ending exactly at M."""
    start = min(start, n_snapshots)
    grid = np.geomspace(start, n_snapshots, num=points)
    return sorted({int(round(v)) for v in grid} | {n_snapshots})


@dataclass(frozen=True)
class ObservableRow:
    oracle: float
    estimate: float
    std_bound: float
    std_approx: float
    std_empirical: float | None
    curve: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentReport:
    """Per-observable estimates with convergence curves plus the coverage
    fractions against both error bands.

    ``band`` names the primary band for the headline fractions: the seminorm
    bound for normalized Pauli sums, the diagonal seminorm for projectors
    (whose pairwise bound grows as (3/2)^(N/2) and would count trivially).
    """

    config: ExperimentConfig
    circuit: dict
    circuit_hash: str
    rng_provenance: dict
    checkpoints: tuple[int, ...]
    observables: tuple[dict, ...]
    rows: tuple[ObservableRow, ...]
    fractions: dict
    band: str
    format_version: int = REPORT_FORMAT_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def curves_csv(self) -> str:
        out = io.StringIO()
        out.write("observable,n_snapshots,estimate,oracle,std_bound,std_approx\n")
        for idx, row in enumerate(self.rows):
            scale = math.sqrt(self.config.n_snapshots)
            for m, value in zip(self.checkpoints, row.curve):
                ratio = math.sqrt(m)
                out.write(
                    f"{idx},{m},{value!r},{row.oracle!r},"
                    f"{row.std_bound * scale / ratio!r},"
                    f"{row.std_approx * scale / ratio!r}\n"
                )
        return out.getvalue()


def _sub_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _snapshot_seed(seed: int) -> int:
    return int(
        np.random.SeedSequence((seed, _TAG_SNAPSHOTS)).generate_state(1, np.uint64)[0]
    )


def _coverage(rows, which: str) -> dict:
    scales = [getattr(r, which) for r in rows]
    out = {}
    for k in (1, 2):
        hits = [abs(r.estimate - r.oracle) <= k * s for r, s in zip(rows, scales)]
        out[f"within_{k}"] = sum(hits) / len(hits)
    return out


def _check_allocatable(cfg: ExperimentConfig) -> None:
    """Raise ValueError unless the run's per-snapshot values, one float per
    observable and snapshot, and one observable's axis draw can be
    allocated."""
    try:
        np.empty((cfg.n_observables, cfg.n_snapshots))
        if cfg.observable_kind == "random_pauli_sum":
            np.empty((cfg.terms_per_observable, cfg.n_qubits), dtype=np.int64)
    except (MemoryError, ValueError):
        raise ValueError(
            f"{cfg.n_observables} observables of {cfg.terms_per_observable} terms "
            f"over {cfg.n_snapshots} snapshots need more memory than can be allocated"
        ) from None


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Prepare a random state, collect one shared approximate state, and
    estimate every observable against it at log-spaced snapshot prefixes."""
    _check_allocatable(cfg)
    circuit = random_prep_circuit(cfg.n_qubits, _sub_rng(cfg.seed, _TAG_CIRCUIT))
    psi = run_circuit(circuit)
    snap_seed = _snapshot_seed(cfg.seed)
    state = snapshots_from_state(psi, cfg.n_snapshots, snap_seed, cfg.p_err)
    checkpoints = log_checkpoints(cfg.n_snapshots)

    obs_rng = _sub_rng(cfg.seed, _TAG_OBSERVABLES)
    if cfg.observable_kind == "random_pauli_sum":
        observables = [
            random_observable(cfg.n_qubits, cfg.terms_per_observable, obs_rng, cfg.normalization)
            for _ in range(cfg.n_observables)
        ]
        seminorms = [(seminorm(obs), seminorm2(obs)) for obs in observables]
        oracles = [exact_expectation(psi, obs) for obs in observables]
        described = [{"kind": "pauli_sum", "n_terms": obs.n_terms} for obs in observables]
        band = "bound"
    else:
        # each projector is onto a uniformly random computational basis state
        bits = [obs_rng.integers(0, 2, size=cfg.n_qubits).tolist()
                for _ in range(cfg.n_observables)]
        observables = [projector_factored(b) for b in bits]
        seminorms = [factored_seminorms(proj) for proj in observables]
        oracles = [exact_expectation_factored(psi, proj) for proj in observables]
        described = [{"kind": "basis_projector", "bits": b} for b in bits]
        band = "approx"

    rows = []
    for values, pair, oracle in zip(snapshot_values(state, observables), seminorms, oracles):
        # curve point k averages the first m_k per-snapshot values; the last
        # checkpoint is M, so the last point is the final estimate
        points = [EstimateResult.from_values(values[:m], pair, cfg.n_qubits) for m in checkpoints]
        final = points[-1]
        rows.append(ObservableRow(oracle, final.value, final.std_bound, final.std_approx,
                                  final.std_empirical, tuple(p.value for p in points)))

    fractions = {
        "bound": _coverage(rows, "std_bound"),
        "approx": _coverage(rows, "std_approx"),
    }
    provenance = {
        "master_seed": cfg.seed,
        "snapshot_seed": snap_seed,
        "stream_tags": {
            "circuit": _TAG_CIRCUIT,
            "observables": _TAG_OBSERVABLES,
            "snapshots": _TAG_SNAPSHOTS,
        },
        "pair_layer": "disjoint",
    }
    return ExperimentReport(
        config=cfg,
        circuit=circuit_to_dict(circuit),
        circuit_hash=circuit.content_hash(),
        rng_provenance=provenance,
        checkpoints=tuple(checkpoints),
        observables=tuple(described),
        rows=tuple(rows),
        fractions=fractions,
        band=band,
    )


def mixed_term_strings(obs: Observable) -> Observable:
    """Merged product strings of all compatible ordered pairs of distinct
    non-identity terms, weighted by 3^r_ij * a_i * a_j.

    For compatible pairs the product P_i P_j carries no phase: shared-support
    axes agree (squaring to I) and the rest multiply identities, so the
    product's axes are axes_i ^ axes_j.  Pairs are taken i-major.
    """
    i, j = np.nonzero(~np.eye(len(obs.coeffs), dtype=bool))
    axes_i, axes_j = obs.axes[i], obs.axes[j]
    both = (axes_i != 0) & (axes_j != 0)
    compat = ~(both & (axes_i != axes_j)).any(axis=1)
    i, j, r = i[compat], j[compat], both[compat].sum(axis=1)
    return Observable.from_rows(
        obs.n_qubits, axes_i[compat] ^ axes_j[compat], 3.0**r * obs.coeffs[i] * obs.coeffs[j]
    )


@dataclass(frozen=True)
class HaarMixedTermResult:
    mean: float
    stderr_mean: float
    variance: float
    stderr_variance: float


def haar_mixed_term_check(
    n_samples: int, obs: Observable, rng: np.random.Generator
) -> HaarMixedTermResult:
    """Sample the off-diagonal part of the squared seminorm over Haar states.

    For each random pure state the statistic is
    sum_{i != j} 3^r_ij * delta_ij * a_i * a_j * <P_i P_j>; its ensemble
    mean is zero and, for basis projectors, its variance stays below (3/4)^N.
    """
    if obs.n_qubits > HAAR_QUBIT_CAP:
        raise ValueError(f"haar check capped at {HAAR_QUBIT_CAP} qubits")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    dim = 1 << obs.n_qubits
    amps = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    values = pauli_expectation_batch(amps, mixed_term_strings(obs))
    mean = float(values.mean())
    variance = float(values.var(ddof=1))
    centered = values - mean
    fourth = float(np.mean(centered**4))
    stderr_var = math.sqrt(max(fourth - variance**2, 0.0) / n_samples)
    return HaarMixedTermResult(
        mean=mean,
        stderr_mean=float(values.std(ddof=1)) / math.sqrt(n_samples),
        variance=variance,
        stderr_variance=stderr_var,
    )


@dataclass(frozen=True)
class NoiseAttenuationRow:
    weight: int
    oracle: float
    estimate: float
    predicted: float
    attenuation: float
    observed_ratio: float
    abs_error: float
    std_bound: float


def noise_attenuation_study(
    n_qubits: int,
    n_snapshots: int,
    p_err: float,
    seed: int,
    max_weight: int | None = None,
) -> tuple[NoiseAttenuationRow, ...]:
    """Estimate weight-r monomials under readout noise against the
    (1 - 2*p_err)^r attenuation prediction.

    Uses the |+...+> state with X^(x r) monomials so every oracle value is
    exactly 1 and the observed ratio reads off the attenuation directly.
    """
    if n_qubits > 10:
        raise ValueError("attenuation study capped at 10 qubits")
    max_weight = n_qubits if max_weight is None else max_weight
    if not 1 <= max_weight <= n_qubits:
        raise ValueError("max_weight out of range")
    psi = run_circuit(Circuit(n_qubits, tuple(Gate("H", (q,)) for q in range(n_qubits))))
    state = snapshots_from_state(psi, n_snapshots, seed, p_err)
    damp = 1.0 - 2.0 * p_err
    rows = []
    for r in range(1, max_weight + 1):
        obs = Observable.from_strings([(1.0, "X" * r + "I" * (n_qubits - r))])
        oracle = exact_expectation(psi, obs)
        result = estimate_observable(state, obs)
        predicted = damp**r * oracle
        rows.append(
            NoiseAttenuationRow(
                weight=r,
                oracle=oracle,
                estimate=result.value,
                predicted=predicted,
                attenuation=damp**r,
                observed_ratio=result.value / oracle,
                abs_error=abs(result.value - predicted),
                std_bound=result.std_bound,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class VerificationResult:
    name: str
    passed: bool
    detail: str


def _count(n: int) -> str:
    """A count as 1e5 when it is a power of ten times one digit, else in full."""
    text = f"{n:.0e}".replace("e+0", "e").replace("e+", "e")
    return text if float(text) == n else str(n)


def check_tomographic_identity(
    n_snapshots: int, n_states: int, seed: int, snapshot_seed: int
) -> VerificationResult:
    """The kernel average of M snapshots of a single-qubit Haar state is
    |psi><psi| to within 5*sqrt(3)/sqrt(M) per entry.  States come from
    ``default_rng(seed)``; state k is acquired with ``snapshot_seed + k``."""
    limit = 5.0 * math.sqrt(3.0) / math.sqrt(n_snapshots)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_states):
        psi = haar_random_state(1, rng)
        rho = reconstruct_density(snapshots_from_state(psi, n_snapshots, snapshot_seed + k))
        worst = max(worst, float(np.max(np.abs(rho - np.outer(psi.amps, psi.amps.conj())))))
    return VerificationResult(
        "tomographic-identity",
        worst <= limit,
        f"{n_states} states, M={_count(n_snapshots)}: worst entry error {worst:.5f} <= {limit:.5f}",
    )


def check_second_moments(
    n_snapshots: int, tol: float, seed: int, snapshot_seed: int
) -> VerificationResult:
    """The single-qubit X, Y, Z estimator values have second moments
    3*delta_ab, on a Haar state from ``default_rng(seed)``."""
    psi = haar_random_state(1, np.random.default_rng(seed))
    state = snapshots_from_state(psi, n_snapshots, snapshot_seed)
    paulis = [Observable.from_strings([(1.0, axis)]) for axis in "XYZ"]
    w = np.stack(snapshot_values(state, paulis), axis=1)
    deviation = float(np.max(np.abs(w.T @ w / n_snapshots - 3.0 * np.eye(3))))
    return VerificationResult(
        "pauli-second-moments",
        deviation <= tol,
        f"max |<R1[a] R1[b]> - 3*delta| = {deviation:.4f} <= {tol} over "
        f"{_count(n_snapshots)} snapshots",
    )


def check_projector_closed_forms(seed: int) -> VerificationResult:
    """Explicit expansions of random basis projectors at N = 1..6 meet the
    closed forms seminorm2^2 = 1 - 4^-N and :func:`projector_seminorms`
    within 1e-12, and seminorm^2 <= (3/2)^N."""
    rng = np.random.default_rng(seed)
    gap2 = gap = 0.0
    bound_ok = True
    for n in range(1, 7):
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        expansion = projector_factored(bits).to_observable()
        gap2 = max(gap2, abs(seminorm2(expansion) ** 2 - (1.0 - 0.25**n)))
        gap = max(gap, abs(seminorm(expansion) - projector_seminorms(n)[0]))
        bound_ok &= seminorm(expansion) ** 2 <= 1.5**n
    return VerificationResult(
        "projector-closed-forms",
        gap2 <= 1e-12 and gap <= 1e-12 and bound_ok,
        f"N=1..6: |seminorm2^2 - (1 - 4^-N)| <= {gap2:.2e} (tol 1e-12), "
        f"|seminorm - closed form| <= {gap:.2e}, seminorm^2 <= (3/2)^N everywhere",
    )


def check_seminorm_hierarchy(n_observables: int, seed: int) -> VerificationResult:
    """seminorm2 <= seminorm <= seminorm1 holds exactly on random signed
    Pauli sums of 1..8 terms on 1..6 qubits."""
    rng = np.random.default_rng(seed)
    holds = True
    for _ in range(n_observables):
        n = int(rng.integers(1, 7))
        rows, coeffs = [], []
        for _ in range(int(rng.integers(1, 9))):
            rows.append(rng.integers(0, 4, n))
            coeffs.append(float(rng.uniform(-1, 1)))
        obs = Observable.from_rows(n, rows, coeffs)
        holds &= seminorm2(obs) <= seminorm(obs) <= seminorm1(obs)
    return VerificationResult(
        "seminorm-hierarchy",
        holds,
        f"seminorm2 <= seminorm <= seminorm1 exactly on {n_observables} random observables, N <= 6",
    )


def check_readout_attenuation(
    n_qubits: int, n_snapshots: int, p_err: float, seed: int, max_weight: int
) -> VerificationResult:
    """Every row of :func:`noise_attenuation_study` lies within 3 std_bound
    of its (1 - 2*p_err)^r prediction."""
    study = noise_attenuation_study(n_qubits, n_snapshots, p_err, seed, max_weight)
    rows = ", ".join(
        f"r={row.weight}: |err| {row.abs_error:.4f} <= {3 * row.std_bound:.4f}"
        for row in study
    )
    return VerificationResult(
        "readout-attenuation",
        all(row.abs_error <= 3 * row.std_bound for row in study),
        f"N={n_qubits}, p={p_err}, M={_count(n_snapshots)}: {rows}",
    )


def check_haar_mixed_terms(n_samples: int, seed: int) -> tuple[VerificationResult, ...]:
    """Over Haar states the mixed-term statistic of a random 3-qubit
    observable has zero mean (within 4 stderr), and that of the |0...0>
    projector at N = 2, 3, 4 has variance below (3/4)^N (plus 4 stderr)."""
    rng = np.random.default_rng(seed)
    obs = random_observable(3, 8, rng, normalization="none")
    mean = haar_mixed_term_check(n_samples, obs, rng)
    variance_ok, details = True, []
    for n in (2, 3, 4):
        projector = projector_factored([0] * n).to_observable()
        result = haar_mixed_term_check(n_samples, projector, rng)
        limit = 0.75**n + 4.0 * result.stderr_variance
        variance_ok &= result.variance < limit
        details.append(f"var(N={n}) {result.variance:.3f} < {limit:.3f}")
    return (
        VerificationResult(
            "haar-mixed-zero-mean",
            abs(mean.mean) <= 4.0 * mean.stderr_mean,
            f"mean |{mean.mean:.4f}| <= {4 * mean.stderr_mean:.4f}",
        ),
        VerificationResult("projector-mixed-variance", variance_ok, "; ".join(details)),
    )


def run_verification(fast: bool = True, seed: int = 20240901) -> list[VerificationResult]:
    """The statistical checks of acceptance criteria 1, 3 and 6-9, behind
    the `verify` CLI command: at reduced size, or at the acceptance suite's
    sizes and tolerances when ``fast`` is false.  Check k draws from seed + k."""
    scale = 5 if fast else 1
    return [
        check_tomographic_identity(100_000 // scale, 10 // scale, seed, seed),
        check_second_moments(1_000_000 // scale, 0.05 if fast else 0.02, seed + 1, seed + 1),
        check_projector_closed_forms(seed + 2),
        check_seminorm_hierarchy(1000 // scale, seed + 3),
        check_readout_attenuation(6, 100_000 // scale, 0.05, seed + 4, max_weight=4),
        *check_haar_mixed_terms(10_000 // scale, seed + 5),
    ]
