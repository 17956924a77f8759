"""Projected-subgradient solvers for the paper's weight-optimization problems.

Problem (23) — minimize :math:`\\bar\\lambda_{max}(W)` (equivalently, since
``λ_max = 1`` is pinned, minimize the second largest eigenvalue), and problem
(22) — maximize :math:`\\lambda_{min}(W)` — over symmetric doubly stochastic
matrices supported on the topology. Both are convex over the convex feasible
set (Theorems 2–3); the paper solves them with an interior-point method seeded
by eq. (24). We use the equivalent edge-Laplacian parametrization
(:mod:`repro.weights.parametrization`) and a projected subgradient method with
a diminishing step, tracking the best feasible iterate — a standard convergent
scheme for nonsmooth convex eigenvalue optimization that needs no external
solver.

:func:`optimize_weight_matrix` solves both problems and returns the matrix
with the larger convergence-rate score, exactly the selection rule the paper
prescribes after deriving objective (20).

For the adaptive-topology runtime (:mod:`repro.weights.adaptive`),
``warm_start=`` resumes the projected subgradient from a prior solution's
matrix (its θ restricted to the surviving edges, re-projected), which makes
online re-solves after link pruning cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.exceptions import OptimizationError
from repro.topology.graph import Topology
from repro.types import WeightMatrix
from repro.utils.validation import check_positive, check_positive_int
from repro.weights.construction import metropolis_weights
from repro.weights.parametrization import EdgeParametrization
from repro.weights.spectrum import MixingReport, analyze_weight_matrix


@dataclass(frozen=True)
class WeightOptimizationResult:
    """Outcome of one weight-matrix optimization run.

    Attributes
    ----------
    matrix:
        The best feasible weight matrix found.
    report:
        Spectral summary of ``matrix``.
    objective_trace:
        Best-so-far objective value after each subgradient step (the second
        largest eigenvalue for problem (23), minus the smallest eigenvalue for
        problem (22); both are minimized).
    problem:
        ``"min_second_eigenvalue"`` or ``"max_smallest_eigenvalue"``.
    lazy_report:
        Spectral summary of the lazy variant ``W̃ = (matrix + I)/2`` when it
        was already computed along the way (``optimize_weight_matrix``
        analyzes it for every candidate it lazifies). EXTRA's step-size cap
        needs exactly ``λ_min(W̃)``, so consumers reuse this instead of
        re-running a full eigendecomposition — see
        :func:`repro.consensus.step_size.extra_max_step_size`.
    solver_steps:
        Total subgradient steps spent producing this result: the length of
        the trace for a single solve, the sum over both problem solves for
        :func:`optimize_weight_matrix` (lazified/baseline candidates cost no
        extra steps). The warm-start benchmark compares this between cold
        and warm re-solves.
    """

    matrix: WeightMatrix
    report: MixingReport
    objective_trace: list[float] = field(repr=False)
    problem: str = ""
    lazy_report: MixingReport | None = None
    solver_steps: int = 0
    #: The raw per-problem solves behind an :func:`optimize_weight_matrix`
    #: winner (empty for direct solver results). Warm starts resolve against
    #: these so each problem resumes from *its own* prior solution — the
    #: winner's matrix may be a lazified variant, which is a poor starting
    #: point for the un-lazified problems.
    components: tuple = field(default=(), repr=False)


def minimize_second_eigenvalue(
    topology: Topology,
    iterations: int = 300,
    initial_step: float = 0.2,
    min_self_weight: float = 1e-3,
    initial_matrix: WeightMatrix | None = None,
    patience: int | None = None,
    step_offset: int = 0,
) -> WeightOptimizationResult:
    """Solve problem (23): minimize :math:`\\bar\\lambda_{max}(W)` over the feasible set.

    Faster upper-spectrum mixing spreads information across the network in
    fewer EXTRA iterations. This is the fastest-mixing-Markov-chain problem
    restricted to symmetric doubly stochastic matrices.
    """
    return _Solver(
        topology, iterations, initial_step, min_self_weight, patience
    ).solve("min_second_eigenvalue", initial_matrix, step_offset)


def maximize_smallest_eigenvalue(
    topology: Topology,
    iterations: int = 300,
    initial_step: float = 0.2,
    min_self_weight: float = 1e-3,
    initial_matrix: WeightMatrix | None = None,
    patience: int | None = None,
    step_offset: int = 0,
) -> WeightOptimizationResult:
    """Solve problem (22): maximize :math:`\\lambda_{min}(W)` over the feasible set.

    A larger smallest eigenvalue enlarges :math:`\\lambda_{min}(\\widetilde W)`,
    which loosens EXTRA's step-size cap ``α < 2 λ_min(W̃) / L_f`` and improves
    the second term of the rate bound (17). Internally minimized as
    ``-λ_min(W)``.
    """
    return _Solver(
        topology, iterations, initial_step, min_self_weight, patience
    ).solve("max_smallest_eigenvalue", initial_matrix, step_offset)


def lazify(matrix: WeightMatrix) -> WeightMatrix:
    """The lazy variant ``(W + I) / 2`` of a weight matrix.

    Lazification keeps the matrix symmetric doubly stochastic and supported
    on the same edges while shifting the whole spectrum toward +1: it halves
    the upper gap (slower mixing) but guarantees ``λ_min >= 0``, which
    doubles-or-better the admissible EXTRA step size. Whether that trade is
    worth it is decided by the rate score, not here.
    """
    matrix = np.asarray(matrix, dtype=float)
    return (matrix + np.eye(matrix.shape[0])) / 2.0


def optimize_weight_matrix(
    topology: Topology,
    iterations: int = 300,
    initial_step: float = 0.2,
    min_self_weight: float = 1e-3,
    warm_start: WeightOptimizationResult | None = None,
    patience: int | None = None,
) -> WeightOptimizationResult:
    """Solve both problems and keep the matrix with the larger rate score.

    This is SNAP's full weight-matrix design step (Section IV-B): derive the
    two candidate optima from problems (22) and (23), then "implement the
    solution that can result in the larger convergence rate". The candidate
    pool also contains the lazy ``(W + I)/2`` variant of each optimum —
    which trades upper-spectrum mixing for a larger ``λ_min`` and hence a
    larger admissible step size — and the Metropolis matrix of eq. (24), so
    the optimized result is never worse than the non-optimized baseline.

    ``warm_start`` seeds both subgradient solvers from a prior result's
    matrix instead of the Metropolis matrix. Only entries on the new
    topology's edges are read, so a result optimized on a denser support
    (before pruning) is a valid — and empirically very close — starting
    point on the pruned support.
    """
    # One parametrization and one projected Metropolis start serve both
    # problems; a warm start gives each problem its own starting matrix.
    solver = _Solver(
        topology, iterations, initial_step, min_self_weight, patience
    )
    solved = [
        solver.solve(problem, *_warm_initial(warm_start, problem))
        for problem in ("min_second_eigenvalue", "max_smallest_eigenvalue")
    ]
    # The lazy spectrum of each solved matrix is computed once and cached on
    # both the solved candidate (as its lazy_report) and the lazy candidate
    # (as its report) — the step-size cap reuses it instead of redoing a
    # dense eigendecomposition. Candidate order is load-bearing: max() keeps
    # the *first* maximum, so it must stay [solved(23), solved(22),
    # lazy(23), lazy(22), metropolis].
    lazy_pairs = [
        (lazify(result.matrix), result) for result in solved
    ]
    lazy_reports = [analyze_weight_matrix(lazy) for lazy, _ in lazy_pairs]
    candidates = [
        replace(result, lazy_report=lazy_report)
        for result, lazy_report in zip(solved, lazy_reports)
    ]
    for (lazy, result), lazy_report in zip(lazy_pairs, lazy_reports):
        candidates.append(
            WeightOptimizationResult(
                matrix=lazy,
                report=lazy_report,
                # Lazification is free; the steps that produced this
                # candidate are the parent solve's, so step accounting (the
                # warm-start regression bar) survives a lazy winner.
                objective_trace=result.objective_trace,
                problem=f"lazy_{result.problem}",
            )
        )
    baseline = solver.metropolis
    candidates.append(
        WeightOptimizationResult(
            matrix=baseline,
            report=analyze_weight_matrix(baseline),
            objective_trace=[],
            problem="metropolis_baseline",
        )
    )
    winner = max(candidates, key=lambda result: result.report.rate_score)
    if winner.lazy_report is None:
        winner = replace(
            winner, lazy_report=analyze_weight_matrix(lazify(winner.matrix))
        )
    total_steps = sum(len(result.objective_trace) for result in solved)
    return replace(winner, solver_steps=total_steps, components=tuple(solved))


# -- internals ---------------------------------------------------------------


def _warm_initial(
    warm_start: WeightOptimizationResult | None, problem: str
) -> tuple[WeightMatrix | None, int]:
    """The (starting matrix, step-schedule offset) one solver resumes from.

    Prefers the matching raw solve among ``warm_start.components``; falls
    back to the winner matrix, un-lazifying it first (``2W - I`` inverts
    ``lazify`` exactly) so a lazy winner does not seed the solvers with
    halved edge weights. The offset continues the diminishing step schedule
    where the prior solve stopped — restarting at the full initial step
    would bounce the iterate away from the warm point before the schedule
    decays again, wasting most of the warm start's advantage.
    """
    if warm_start is None:
        return None, 0
    for component in warm_start.components:
        if component.problem == problem:
            return component.matrix, len(component.objective_trace)
    matrix = warm_start.matrix
    if warm_start.problem.startswith("lazy_"):
        matrix = 2.0 * np.asarray(matrix, dtype=float) - np.eye(matrix.shape[0])
    return matrix, warm_start.solver_steps // 2


def _second_eigenvalue_objective(eigenvalues, eigenvectors):
    """Objective/subgradient hook for problem (23).

    ``eigenvalues`` ascend; the second largest sits at index ``-2``. Returns
    ``(value, eigenvector)`` where the eigenvector feeds
    :meth:`EdgeParametrization.eigenvalue_subgradient` and the value is
    minimized directly.
    """
    value = float(eigenvalues[-2])
    vector = eigenvectors[:, -2]
    return value, vector, +1.0


def _negative_smallest_eigenvalue_objective(eigenvalues, eigenvectors):
    """Objective/subgradient hook for problem (22), as ``-λ_min`` minimization."""
    value = -float(eigenvalues[0])
    vector = eigenvectors[:, 0]
    return value, vector, -1.0


#: Objective/subgradient hook of each problem, by problem name.
_OBJECTIVES = {
    "min_second_eigenvalue": _second_eigenvalue_objective,
    "max_smallest_eigenvalue": _negative_smallest_eigenvalue_objective,
}


class _Solver:
    """One validated set-up of the projected subgradient method.

    Holds what the two problems share on one topology — the
    :class:`EdgeParametrization`, the Metropolis matrix and its projection
    (the cold start) — so :func:`optimize_weight_matrix` builds each once,
    not once per problem.
    """

    def __init__(
        self,
        topology: Topology,
        iterations: int,
        initial_step: float,
        min_self_weight: float,
        patience: int | None,
    ):
        check_positive_int("iterations", iterations)
        check_positive("initial_step", initial_step)
        if patience is not None:
            check_positive_int("patience", patience)
        if topology.n_nodes < 2:
            raise OptimizationError("weight optimization needs at least 2 nodes")
        self.parametrization = EdgeParametrization(topology, min_self_weight)
        if self.parametrization.n_edges == 0:
            raise OptimizationError("topology has no edges; nothing to optimize")
        self.iterations = iterations
        self.initial_step = initial_step
        self.patience = patience

    @cached_property
    def metropolis(self) -> WeightMatrix:
        return metropolis_weights(self.parametrization.topology)

    @cached_property
    def cold_start(self) -> np.ndarray:
        """The projected Metropolis θ every cold solve starts from."""
        return self._project_matrix(self.metropolis)

    def _project_matrix(self, matrix: WeightMatrix) -> np.ndarray:
        return self.parametrization.project(self.parametrization.from_matrix(matrix))

    def solve(
        self,
        problem: str,
        initial_matrix: WeightMatrix | None = None,
        step_offset: int = 0,
    ) -> WeightOptimizationResult:
        if step_offset < 0:
            raise OptimizationError(f"step_offset must be >= 0, got {step_offset}")
        objective = _OBJECTIVES[problem]
        parametrization, patience = self.parametrization, self.patience
        if initial_matrix is None:
            theta = self.cold_start
        else:
            theta = self._project_matrix(initial_matrix)

        best_theta = theta
        best_value = np.inf
        best_step = 0
        trace: list[float] = []
        for step_index in range(self.iterations):
            matrix = parametrization.to_matrix(theta)
            eigenvalues, eigenvectors = np.linalg.eigh(matrix)
            value, vector, sign = objective(eigenvalues, eigenvectors)
            if value < best_value:
                best_value = value
                best_theta = theta
                best_step = step_index
            trace.append(best_value)
            if patience is not None and step_index - best_step >= patience:
                break
            # Subgradient of the *minimized* objective: for problem (23) it is
            # the eigenvalue subgradient itself (sign +1); for problem (22) we
            # minimize -λ_min so the sign flips (sign -1).
            subgradient = sign * parametrization.eigenvalue_subgradient(vector)
            norm = float(np.linalg.norm(subgradient))
            if norm < 1e-14:
                break
            step = self.initial_step / np.sqrt(step_index + step_offset + 1.0)
            theta = parametrization.project(theta - step * subgradient / norm)

        matrix = parametrization.to_matrix(best_theta)
        return WeightOptimizationResult(
            matrix=matrix,
            report=analyze_weight_matrix(matrix),
            objective_trace=trace,
            problem=problem,
            solver_steps=len(trace),
        )
