"""Experiment harness: random observables and projectors, coverage-fraction
experiments with convergence curves, Haar-ensemble property checks, and the
readout-attenuation study.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .pauli import (
    FactoredObservable,
    Observable,
    PauliAxis,
    PauliString,
    factored_seminorms,
    normalize_to_unit_seminorm,
    pair_compat,
    projector_factored,
    projector_pauli_expansion,
    projector_seminorms,
    seminorm,
    seminorm1,
    seminorm2,
)
from .statevector import (
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
from .snapshots import NoiseModel, build_approximate_state, snapshots_from_state
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
    "NoiseAttenuationReport",
    "VerificationResult",
    "random_observable",
    "random_projector",
    "projector_bits",
    "log_checkpoints",
    "run_experiment",
    "mixed_term_strings",
    "haar_mixed_term_check",
    "noise_attenuation_study",
    "run_verification",
]

OBSERVABLE_KINDS = ("random_pauli_sum", "basis_projector")
NORMALIZATIONS = ("seminorm", "seminorm2", "none")

REPORT_FORMAT_VERSION = 2

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
        if self.n_qubits < 2 or self.n_snapshots < 1 or self.n_observables < 1:
            raise ValueError("counts must be positive (and n_qubits >= 2)")
        if self.terms_per_observable < 1:
            raise ValueError("terms_per_observable must be positive")
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


def random_projector(n_qubits: int, rng: np.random.Generator) -> FactoredObservable:
    """Projector onto a uniformly random computational basis state."""
    bits = rng.integers(0, 2, size=n_qubits)
    return projector_factored([int(b) for b in bits])


def projector_bits(fobs: FactoredObservable) -> list[int]:
    """Recover the basis bitstring from a factored projector."""
    (_, factors), = fobs.terms
    return [0 if op.az > 0 else 1 for op in factors]


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
        data = asdict(self)
        data["config"] = asdict(self.config)
        return data

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


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Prepare a random state, collect one shared approximate state, and
    estimate every observable against it at log-spaced snapshot prefixes."""
    circuit = random_prep_circuit(cfg.n_qubits, _sub_rng(cfg.seed, _TAG_CIRCUIT))
    psi = run_circuit(circuit)
    snap_seed = _snapshot_seed(cfg.seed)
    state = snapshots_from_state(
        psi,
        cfg.n_snapshots,
        snap_seed,
        NoiseModel.uniform(cfg.p_err, cfg.n_qubits),
        circuit_hash=circuit.content_hash(),
    )
    checkpoints = log_checkpoints(cfg.n_snapshots)

    obs_rng = _sub_rng(cfg.seed, _TAG_OBSERVABLES)
    if cfg.observable_kind == "random_pauli_sum":
        observables = [
            random_observable(cfg.n_qubits, cfg.terms_per_observable, obs_rng, cfg.normalization)
            for _ in range(cfg.n_observables)
        ]
        norms = [(seminorm(obs), seminorm2(obs)) for obs in observables]
        oracles = [exact_expectation(psi, obs) for obs in observables]
        described = [{"kind": "pauli_sum", "n_terms": obs.n_terms} for obs in observables]
        band = "bound"
    else:
        observables = [random_projector(cfg.n_qubits, obs_rng) for _ in range(cfg.n_observables)]
        norms = [factored_seminorms(proj) for proj in observables]
        oracles = [exact_expectation_factored(psi, proj) for proj in observables]
        described = [{"kind": "basis_projector", "bits": projector_bits(p)} for p in observables]
        band = "approx"

    rows = []
    for values, norm, oracle in zip(snapshot_values(state, observables), norms, oracles):
        # curve point k averages the first m_k per-snapshot values; the last
        # checkpoint is M, so the last point is the final estimate
        points = [EstimateResult.from_values(values[:m], norm, cfg.n_qubits) for m in checkpoints]
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


def mixed_term_strings(obs: Observable) -> list[tuple[float, PauliString]]:
    """Merged product strings of all compatible ordered pairs of distinct
    non-identity terms, weighted by 3^r_ij * a_i * a_j.

    For compatible pairs the product P_i P_j carries no phase: shared-support
    axes agree (squaring to I) and the rest multiply identities.
    """
    terms = [(c, s) for c, s in obs.terms if s.weight > 0]
    merged: dict[tuple, float] = {}
    for i, (ci, si) in enumerate(terms):
        for j, (cj, sj) in enumerate(terms):
            if i == j:
                continue
            delta, r = pair_compat(si, sj)
            if delta == 0:
                continue
            support_i, support_j = dict(si.support), dict(sj.support)
            product = tuple(
                sorted(
                    (q, a)
                    for q, a in {**support_i, **support_j}.items()
                    if (q in support_i) != (q in support_j)
                )
            )
            merged[product] = merged.get(product, 0.0) + (3.0**r) * ci * cj
    return [
        (coeff, PauliString(obs.n_qubits, support))
        for support, coeff in sorted(merged.items())
        if coeff != 0.0
    ]


@dataclass(frozen=True)
class HaarMixedTermResult:
    mean: float
    stderr_mean: float
    variance: float
    stderr_variance: float
    n_samples: int


def haar_mixed_term_check(
    n_qubits: int,
    n_samples: int,
    obs: Observable,
    rng: np.random.Generator,
    max_qubits: int = 5,
) -> HaarMixedTermResult:
    """Sample the off-diagonal part of the squared seminorm over Haar states.

    For each random pure state the statistic is
    sum_{i != j} 3^r_ij * delta_ij * a_i * a_j * <P_i P_j>; its ensemble
    mean is zero and, for basis projectors, its variance stays below (3/4)^N.
    """
    if n_qubits > max_qubits:
        raise ValueError(f"haar check capped at {max_qubits} qubits")
    if obs.n_qubits != n_qubits:
        raise ValueError("observable does not match n_qubits")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    products = mixed_term_strings(obs)
    dim = 1 << n_qubits
    amps = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    values = np.zeros(n_samples)
    for coeff, string in products:
        values += coeff * pauli_expectation_batch(amps, string)
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
        n_samples=n_samples,
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


@dataclass(frozen=True)
class NoiseAttenuationReport:
    n_qubits: int
    n_snapshots: int
    p_err: float
    seed: int
    rows: tuple[NoiseAttenuationRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def noise_attenuation_study(
    n_qubits: int,
    n_snapshots: int,
    p_err: float,
    seed: int,
    max_weight: int | None = None,
) -> NoiseAttenuationReport:
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
    circuit = Circuit(n_qubits, tuple(Gate("H", (q,)) for q in range(n_qubits)))
    psi = run_circuit(circuit)
    state = build_approximate_state(
        circuit, n_snapshots, seed, NoiseModel.uniform(p_err, n_qubits)
    )
    damp = 1.0 - 2.0 * p_err
    rows = []
    for r in range(1, max_weight + 1):
        string = PauliString(n_qubits, tuple((q, PauliAxis.X) for q in range(r)))
        obs = Observable(n_qubits, ((1.0, string),))
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
    return NoiseAttenuationReport(n_qubits, n_snapshots, p_err, seed, tuple(rows))


@dataclass(frozen=True)
class VerificationResult:
    name: str
    passed: bool
    detail: str


def _verify_second_moments(n_snapshots: int, tol: float, seed: int) -> VerificationResult:
    psi = haar_random_state(1, np.random.default_rng(seed))
    state = snapshots_from_state(psi, n_snapshots, seed)
    paulis = [Observable.from_strings([(1.0, axis)]) for axis in "XYZ"]
    w = np.stack(snapshot_values(state, paulis), axis=1)
    second = (w.T @ w) / n_snapshots
    err = float(np.max(np.abs(second - 3.0 * np.eye(3))))
    return VerificationResult(
        "pauli-second-moments",
        err <= tol,
        f"max |<R1 R1> - 3*delta| = {err:.4f} (tol {tol})",
    )


def _verify_hierarchy(n_observables: int, seed: int) -> VerificationResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(n_observables):
        n = int(rng.integers(1, 7))
        terms = int(rng.integers(1, 9))
        obs = random_observable(n, terms, rng, normalization="none")
        s2, s, s1 = seminorm2(obs), seminorm(obs), seminorm1(obs)
        ok &= s2 <= s <= s1
        worst = max(worst, s2 - s, s - s1)
    return VerificationResult(
        "seminorm-hierarchy",
        ok,
        f"{n_observables} random observables, max violation {worst:.2e}",
    )


def _verify_projector_forms(seed: int) -> VerificationResult:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for n in range(1, 7):
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        expansion = projector_pauli_expansion(bits)
        closed = projector_seminorms(n)
        gap2 = abs(seminorm2(expansion) ** 2 - (1.0 - 0.25**n))
        gap = abs(seminorm(expansion) - closed[0])
        ok &= gap2 < 1e-12 and gap < 1e-12 and seminorm(expansion) ** 2 <= 1.5**n
        worst = max(worst, gap2, gap)
    return VerificationResult(
        "projector-closed-forms", ok, f"N=1..6, max deviation {worst:.2e}"
    )


def _verify_haar_mean(n_samples: int, seed: int) -> VerificationResult:
    rng = np.random.default_rng(seed)
    obs = random_observable(3, 8, rng, normalization="none")
    result = haar_mixed_term_check(3, n_samples, obs, rng)
    limit = 4.0 * result.stderr_mean
    return VerificationResult(
        "haar-mixed-zero-mean",
        abs(result.mean) <= limit,
        f"|mean| = {abs(result.mean):.2e} vs 4*stderr = {limit:.2e}",
    )


def _verify_projector_variance(n_samples: int, seed: int) -> VerificationResult:
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for n in (2, 3, 4):
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        result = haar_mixed_term_check(
            n, n_samples, projector_pauli_expansion(bits), rng
        )
        limit = 0.75**n + 4.0 * result.stderr_variance
        ok &= result.variance < limit
        details.append(f"N={n}: {result.variance:.4f} < {limit:.4f}")
    return VerificationResult("projector-mixed-variance", ok, "; ".join(details))


def _verify_tomographic_identity(
    n_snapshots: int, n_seeds: int, seed: int
) -> VerificationResult:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for n in (1, 2):
        limit = 5.0 * 3.0**n / math.sqrt(n_snapshots)
        for _ in range(n_seeds):
            psi = haar_random_state(n, rng)
            state = snapshots_from_state(
                psi, n_snapshots, int(rng.integers(0, 2**63))
            )
            rho = reconstruct_density(state)
            target = np.outer(psi.amps, psi.amps.conj())
            err = float(np.max(np.abs(rho - target)))
            ok &= err <= limit
            worst = max(worst, err / limit)
    return VerificationResult(
        "tomographic-identity",
        ok,
        f"worst error = {worst:.2f} of the 5*3^N/sqrt(M) allowance",
    )


def run_verification(fast: bool = True, seed: int = 20240901) -> list[VerificationResult]:
    """Statistical property suites behind the `verify` CLI command."""
    if fast:
        return [
            _verify_second_moments(200_000, 0.05, seed),
            _verify_hierarchy(300, seed + 1),
            _verify_projector_forms(seed + 2),
            _verify_haar_mean(2_000, seed + 3),
            _verify_projector_variance(2_000, seed + 4),
            _verify_tomographic_identity(20_000, 2, seed + 5),
        ]
    return [
        _verify_second_moments(1_000_000, 0.02, seed),
        _verify_hierarchy(1000, seed + 1),
        _verify_projector_forms(seed + 2),
        _verify_haar_mean(10_000, seed + 3),
        _verify_projector_variance(10_000, seed + 4),
        _verify_tomographic_identity(100_000, 10, seed + 5),
    ]
