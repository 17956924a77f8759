"""Accumulated Parameter Error (APE) threshold schedule — Algorithm 1.

Suppressing small parameter changes makes every server's view of its
neighbors slightly wrong; Section IV-C bounds how that error compounds:

.. math::

    |APE^k_{(i)}| \\le \\sum_{l=1}^{k-1} (1 + \\alpha G)^l
                       \\max_j |\\Delta x^{k-l}_{(j)}|

where ``G`` bounds the local objectives' second derivative. Algorithm 1
inverts the bound: given a stage budget ``T_k`` that must survive at least
``I_k`` iterations, a parameter may be suppressed when its change is below

.. math::

    \\max_j |\\Delta x_j| = \\frac{T_k}{I_k (1 + \\alpha G)^{I_k}}

Each server tracks its own accumulated-error estimate with the recursive form
``A <- (1 + αG) (A + m)`` (``m`` = largest suppressed change this round,
algebraically identical to the sum above); when ``A`` exceeds ``T_k`` the
stage ends, the threshold decays (the paper multiplies by 0.9), and the
accumulator restarts — "we restart the iteration from the solution derived by
the first 10 iterations". The schedule terminates once ``T_k`` falls below ε,
after which only exactly-unchanged parameters are suppressed (SNAP degrades
gracefully into SNAP-0, preserving exact convergence).

The state of Algorithm 1 lives in one place: an :class:`APEScheduleBank`
holds ``T_k``, the accumulated error, the iterations-in-stage counter and
the stage index of every server as four columns. The APE compressor's batch
methods (the vectorized engine's round) read and advance all rows with
:meth:`APEScheduleBank.send_thresholds` /
:meth:`APEScheduleBank.record_rounds`; everything that works one server at a
time (the reference engine, the compressor's per-node methods, the testbed,
checkpoints, the digest, the invariant monitor) sees row ``i`` as an
:class:`APESchedule`.
The scalar and the array transition are the same IEEE operations on the
same operands (held equal by ``tests/core/test_ape.py``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class APEScheduleBank:
    """Algorithm 1's state for ``n_nodes`` servers, one column per quantity.

    A sequence of :class:`APESchedule` row views: ``bank[i]`` is server
    ``i``'s schedule, and both read and write the same four arrays — which
    are therefore only ever written in place, never rebound.

    Parameters
    ----------
    n_nodes:
        Number of rows (servers).
    initial_threshold:
        ``T_0``; the paper uses 10% of the mean absolute initial parameter.
    growth:
        The per-iteration error amplification ``1 + αG``.
    stage_iterations:
        ``I_k``, the minimum iterations each stage must last.
    decay:
        Multiplier applied to ``T_k`` when a stage ends (paper: 0.9).
    epsilon:
        Terminal threshold; once ``T_k <= epsilon`` a row is exhausted and
        its send threshold becomes 0.
    max_stage_iterations:
        Time-box on a stage: after this many iterations the stage ends even
        if the error budget was never exhausted. Defaults to
        ``stage_iterations``, matching the paper's worked example where the
        threshold steps down every 10 iterations. Without the time-box a run
        that settles into a suppression-induced fixed point (no changes ->
        no accumulated error) would keep its large threshold forever and
        never converge to the optimum; with it, the threshold marches to ε
        and the paper's "we can still derive the optimal solution when the
        APE threshold approaches 0" holds.
    """

    def __init__(
        self,
        n_nodes: int,
        initial_threshold: float,
        growth: float,
        stage_iterations: int = 10,
        decay: float = 0.9,
        epsilon: float = 0.0,
        max_stage_iterations: int | None = None,
    ):
        check_positive_int("n_nodes", n_nodes)
        check_positive("initial_threshold", initial_threshold)
        if growth < 1.0:
            raise ValueError(f"growth (1 + alpha*G) must be >= 1, got {growth}")
        self.initial_threshold = float(initial_threshold)
        self.growth = float(growth)
        self.stage_iterations = check_positive_int("stage_iterations", stage_iterations)
        self.decay = check_fraction("decay", decay)
        self.epsilon = check_non_negative("epsilon", epsilon)
        if max_stage_iterations is None:
            max_stage_iterations = stage_iterations
        self.max_stage_iterations = check_positive_int(
            "max_stage_iterations", max_stage_iterations
        )
        if self.max_stage_iterations < self.stage_iterations:
            raise ValueError(
                "max_stage_iterations must be >= stage_iterations "
                f"({self.max_stage_iterations} < {self.stage_iterations})"
            )
        # I_k (1 + αG)^{I_k} never changes across stages (only T_k decays),
        # so the send-threshold denominator is computed once.
        self.send_denominator = (
            self.stage_iterations * self.growth**self.stage_iterations
        )

        self.thresholds = np.full(n_nodes, self.initial_threshold)
        self.accumulated = np.zeros(n_nodes)
        self.iterations_in_stage = np.zeros(n_nodes, dtype=np.int64)
        self.stages = np.zeros(n_nodes, dtype=np.int64)
        self._rows = [APESchedule._of(self, row) for row in range(n_nodes)]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, row: int) -> "APESchedule":
        return self._rows[row]

    def __iter__(self):
        return iter(self._rows)

    def send_thresholds(self) -> np.ndarray:
        """Every row's :attr:`APESchedule.send_threshold` as one array."""
        return np.where(
            self.thresholds > self.epsilon,
            self.thresholds / self.send_denominator,
            0.0,
        )

    def record_rounds(self, nodes: np.ndarray, suppressed_max: np.ndarray) -> np.ndarray:
        """:meth:`APESchedule.record_round` for the distinct rows ``nodes`` at once.

        ``suppressed_max[k]`` is row ``nodes[k]``'s largest suppressed change
        this round. Returns the rows whose stage advanced.
        """
        if np.any(suppressed_max < 0):
            raise ValueError(
                f"suppressed_max must be >= 0, got {suppressed_max.min()}"
            )
        thresholds = self.thresholds[nodes]
        live = thresholds > self.epsilon
        if not live.all():
            nodes, suppressed_max = nodes[live], suppressed_max[live]
            thresholds = thresholds[live]
        accumulated = self.growth * (self.accumulated[nodes] + suppressed_max)
        iterations = self.iterations_in_stage[nodes] + 1
        advance = (accumulated > thresholds) | (iterations >= self.max_stage_iterations)
        self.accumulated[nodes] = np.where(advance, 0.0, accumulated)
        self.iterations_in_stage[nodes] = np.where(advance, 0, iterations)
        advanced = nodes[advance]
        if advanced.size:
            thresholds = thresholds[advance]
            decayed = thresholds * self.decay
            # See APESchedule.record_round for the denormal branch.
            self.thresholds[advanced] = np.where(decayed < thresholds, decayed, 0.0)
            self.stages[advanced] += 1
        return advanced


class APESchedule:
    """Per-server APE threshold state machine: one row of a bank.

    Constructed directly (same parameters as :class:`APEScheduleBank`,
    minus ``n_nodes``) it owns a private one-row bank; ``bank[i]`` yields
    the view of row ``i`` of a shared one.
    """

    def __init__(
        self,
        initial_threshold: float,
        growth: float,
        stage_iterations: int = 10,
        decay: float = 0.9,
        epsilon: float = 0.0,
        max_stage_iterations: int | None = None,
    ):
        self._bind(
            APEScheduleBank(
                1,
                initial_threshold,
                growth,
                stage_iterations=stage_iterations,
                decay=decay,
                epsilon=epsilon,
                max_stage_iterations=max_stage_iterations,
            ),
            0,
        )

    @classmethod
    def _of(cls, bank: APEScheduleBank, row: int) -> "APESchedule":
        """The view of ``bank``'s row ``row``."""
        view = object.__new__(cls)
        view._bind(bank, row)
        return view

    def _bind(self, bank: APEScheduleBank, row: int) -> None:
        # The configuration is copied so the per-round scalar path costs
        # plain attribute reads; only the four state columns are shared.
        self._bank = bank
        self._row = row
        self.initial_threshold = bank.initial_threshold
        self.growth = bank.growth
        self.stage_iterations = bank.stage_iterations
        self.decay = bank.decay
        self.epsilon = bank.epsilon
        self.max_stage_iterations = bank.max_stage_iterations
        self._send_denominator = bank.send_denominator

    @property
    def bank(self) -> APEScheduleBank:
        """The bank this schedule is a row of."""
        return self._bank

    @property
    def threshold(self) -> float:
        """Current stage budget ``T_k`` (0 once exhausted)."""
        threshold = self._bank.thresholds.item(self._row)
        return threshold if threshold > self.epsilon else 0.0

    @property
    def stage(self) -> int:
        """Zero-based index of the current stage."""
        return self._bank.stages.item(self._row)

    @property
    def accumulated_error(self) -> float:
        """Current APE estimate ``A`` within the stage."""
        return self._bank.accumulated.item(self._row)

    @property
    def active(self) -> bool:
        """Whether the schedule still suppresses nonzero changes."""
        return self._bank.thresholds.item(self._row) > self.epsilon

    @property
    def send_threshold(self) -> float:
        """Per-iteration suppression threshold (line 4 of Algorithm 1).

        ``T_k / (I_k (1 + αG)^{I_k})`` while active, else 0 — meaning only
        exactly-unchanged parameters are suppressed.
        """
        threshold = self._bank.thresholds.item(self._row)
        if threshold > self.epsilon:
            return threshold / self._send_denominator
        return 0.0

    def record_round(self, suppressed_max: float) -> None:
        """Fold one round's largest suppressed change into the APE estimate.

        Advances to the next stage when the estimate exceeds the stage
        budget (line 5–6 of Algorithm 1). A no-op once exhausted.
        """
        if suppressed_max < 0:
            raise ValueError(f"suppressed_max must be >= 0, got {suppressed_max}")
        bank, row = self._bank, self._row
        threshold = bank.thresholds.item(row)
        if not threshold > self.epsilon:
            return
        accumulated = self.growth * (bank.accumulated.item(row) + float(suppressed_max))
        iterations = bank.iterations_in_stage.item(row) + 1
        if accumulated > threshold or iterations >= self.max_stage_iterations:
            decayed = threshold * self.decay
            # In the denormal range the product can round back to the
            # threshold itself (e.g. 2 ulp * 0.9 -> 2 ulp), which would pin
            # the schedule above a denormal epsilon forever; a decay step
            # that fails to strictly shrink the budget means the threshold
            # is already numerically indistinguishable from exhausted.
            bank.thresholds[row] = decayed if decayed < threshold else 0.0
            bank.accumulated[row] = 0.0
            bank.iterations_in_stage[row] = 0
            bank.stages[row] += 1
        else:
            bank.accumulated[row] = accumulated
            bank.iterations_in_stage[row] = iterations

    def state_dict(self) -> dict:
        """Mutable state for checkpointing (configuration is not included)."""
        bank, row = self._bank, self._row
        return {
            "threshold": bank.thresholds.item(row),
            "accumulated": bank.accumulated.item(row),
            "iterations_in_stage": bank.iterations_in_stage.item(row),
            "stage": bank.stages.item(row),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        bank, row = self._bank, self._row
        bank.thresholds[row] = float(state["threshold"])
        bank.accumulated[row] = float(state["accumulated"])
        bank.iterations_in_stage[row] = int(state["iterations_in_stage"])
        bank.stages[row] = int(state["stage"])

    def __repr__(self) -> str:
        return (
            f"APESchedule(stage={self.stage}, threshold={self.threshold:.3e}, "
            f"send_threshold={self.send_threshold:.3e}, active={self.active})"
        )
