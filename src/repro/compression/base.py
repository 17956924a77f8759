"""The compressor protocol: how an update is shrunk before it hits the wire.

Every scheme in this package — APE thresholding, Top-k/Random-k
sparsification, b-bit uniform quantization, TernGrad — is expressed as one
interface so the trainer, both simulation engines, and the TCP testbed can
run any of them through a single code path with honest byte accounting:

* :meth:`Compressor.begin_round` computes per-round, per-node context (the
  APE threshold, for example) from the node's current parameters;
* :meth:`Compressor.compress` turns ``(current, reference)`` for one
  directed edge into a sparse :class:`Payload` of (indices, values, meta);
* :meth:`Compressor.end_round` folds round statistics back into persistent
  state and reports whether the optimizer should restart its recursion
  (Algorithm 1's stage boundary).

The receiver and the sizer are not hooks: a delivered frame is overlaid by
:meth:`~repro.network.messages.ParameterUpdate.apply_to` (per edge) or
:meth:`PayloadBatch.deliver` (per round), and every frame is sized by
:func:`~repro.network.frames.encoded_update_bytes`.

The vectorized engine runs the same protocol a round at a time, three calls
on one instance: :meth:`Compressor.begin_round_batch` opens the round for
every active node, :meth:`Compressor.compress_batch` returns every eligible
edge's payload as one columnar :class:`PayloadBatch`, and
:meth:`Compressor.end_round_batch` closes the round and names the nodes
that restart their recursion. ``batched`` compressors implement these
as array kernels; for the rest the base class adapts the per-node and
per-edge methods into the same calls, so the engine has one round.

**Reference tracking is the protocol's backbone.** Every edge carries a
reference vector — the receiver's current view of the sender, which by
protocol invariant equals the sender's ``last_sent`` record. Compressors
always compress the drift ``current - reference``, and the reference only
advances on *confirmed delivery*. Anything not transmitted this round
(suppressed, dropped by the link, or lost to quantization) therefore stays
in the drift and is re-offered next round — which is precisely error
feedback: the drift ``current - reference`` IS the error-feedback
accumulator, so no scheme keeps one of its own. SNAP's APE machinery is
the special case that additionally tracks a scalar budget on the
suppressed drift (see ``docs/COMPRESSION.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import ProtocolError
from repro.network.frames import encoded_update_bytes
from repro.network.messages import ParameterUpdate, QuantizationInfo


@dataclass
class EdgeState:
    """Persistent per-directed-edge compressor state.

    Attributes
    ----------
    source, destination:
        The directed edge this state belongs to.
    reference:
        What the destination currently holds for the source (set by the
        engine before every :meth:`Compressor.compress` call).
    rng:
        Per-edge random generator for stochastic compressors, keyed by
        ``(seed, source, destination)`` so results are independent of the
        order edges are processed in — the property that keeps the
        reference engine, the vectorized engine, and the threaded testbed
        bit-for-bit identical.
    """

    source: int
    destination: int
    reference: np.ndarray | None = None
    rng: np.random.Generator | None = None


class Payload(NamedTuple):
    """One compressed update: what :meth:`Compressor.compress` returns.

    ``indices`` are sorted flat parameter indices; ``values`` are the
    *absolute* parameter values the receiver should hold at those indices
    (reference tracking makes absolute values and deltas interchangeable;
    absolute is what the Fig. 3 frames carry). ``meta`` optionally carries
    ``"quantization"`` (:class:`~repro.network.messages.QuantizationInfo`)
    plus compressor telemetry.
    """

    indices: np.ndarray
    values: np.ndarray
    meta: dict

    @property
    def n_sent(self) -> int:
        return int(self.indices.size)


def payload_to_update(
    payload: Payload, sender: int, round_index: int, total_params: int
) -> ParameterUpdate:
    """Wrap a payload in the message type the channel/transport ships."""
    quantization = payload.meta.get("quantization")
    return ParameterUpdate(
        sender=sender,
        round_index=round_index,
        total_params=total_params,
        indices=payload.indices,
        values=payload.values,
        quantization=quantization,
    )


class PayloadBatch:
    """One round's payloads in columnar form: row ``r`` is edge ``r``'s payload.

    Attributes
    ----------
    indices, values:
        ``(K, width)`` matrices; row ``r`` holds its payload's sorted
        indices and absolute values in the first ``n_sent[r]`` columns
        (the padding beyond is unspecified). A batch built by
        :meth:`from_mask` has ``indices = None`` instead: ``values`` is the
        ``(K, d)`` matrix of full vectors and ``mask`` (``(K, d)`` bool, or
        ``None`` for every column) marks the transmitted entries, so a
        threshold selection over a large ``d`` is never sorted into index
        columns.
    n_sent:
        ``(K,)`` transmitted-coordinate counts.
    bits:
        Bit width of the QUANTIZED frame the non-empty rows may use, or
        ``None`` for full-precision payloads.
    scales, levels:
        Quantization metadata of a columnar quantizer's rows (``(K,)`` and
        ``(K, width)``, aligned with ``indices``), else ``None``.

    ``len(batch)`` is the number of payloads and ``batch[r]`` is row ``r``
    as the :class:`Payload` per-edge :meth:`Compressor.compress` returns.
    """

    __slots__ = (
        "indices", "values", "n_sent", "bits", "scales", "levels", "mask",
        "_payloads",
    )

    def __init__(
        self, indices, values, n_sent, bits=None, scales=None, levels=None,
        payloads: list[Payload] | None = None, mask=None,
    ):
        self.indices = indices
        self.values = values
        self.n_sent = n_sent
        self.bits = bits
        self.scales = scales
        self.levels = levels
        self.mask = mask
        self._payloads = payloads

    @classmethod
    def from_mask(
        cls, currents: np.ndarray, mask: np.ndarray | None = None
    ) -> "PayloadBatch":
        """Row ``r`` sends the entries of ``currents[r]`` that ``mask[r]`` marks.

        ``mask=None`` sends every column (the dense scheme).
        """
        n_rows, n_params = currents.shape
        if mask is None:
            n_sent = np.full(n_rows, n_params, dtype=np.int64)
        else:
            n_sent = row_reduce(np.add, mask, dtype=np.int64)
        return cls(None, currents, n_sent, mask=mask)

    @classmethod
    def from_payloads(cls, payloads: list[Payload]) -> "PayloadBatch":
        """Pack per-edge payloads (kept, so ``batch[r]`` is the original)."""
        n_sent = np.fromiter(
            (p.indices.size for p in payloads), dtype=np.int64, count=len(payloads)
        )
        width = int(n_sent.max()) if payloads else 0
        sent = np.arange(width) < n_sent[:, None]
        indices = np.zeros((len(payloads), width), dtype=np.int64)
        values = np.zeros((len(payloads), width))
        if payloads:
            indices[sent] = np.concatenate([p.indices for p in payloads])
            values[sent] = np.concatenate([p.values for p in payloads])
        bit_widths = {
            getattr(p.meta.get("quantization"), "bits", None)
            for p in payloads
            if p.indices.size
        }
        if len(bit_widths) > 1:
            raise ProtocolError(
                "one round's payloads mix quantization widths "
                f"{sorted(map(str, bit_widths))}"
            )
        return cls(
            indices,
            values,
            n_sent,
            bits=bit_widths.pop() if bit_widths else None,
            payloads=payloads,
        )

    def __len__(self) -> int:
        return int(self.n_sent.size)

    def __getitem__(self, row: int) -> Payload:
        if self._payloads is not None:
            return self._payloads[row]
        if not -len(self) <= row < len(self):
            raise IndexError(row)
        if self.indices is None:
            if self.mask is None:
                indices = np.arange(self.values.shape[1], dtype=np.int64)
            else:
                indices = np.flatnonzero(self.mask[row]).astype(np.int64, copy=False)
            return Payload(indices, self.values[row][indices], {})
        count = int(self.n_sent[row])
        meta = {}
        if count and self.levels is not None:
            meta["quantization"] = QuantizationInfo(
                bits=self.bits,
                scale=float(self.scales[row]),
                levels=self.levels[row, :count],
            )
        return Payload(
            indices=self.indices[row, :count],
            values=self.values[row, :count],
            meta=meta,
        )

    def wire_bytes(self, total_params: int) -> np.ndarray:
        """Exact wire bytes of every row's cheapest frame (``int64``)."""
        return encoded_update_bytes(
            total_params, total_params - self.n_sent, self.bits
        )

    def deliver(
        self, references: np.ndarray, rows: np.ndarray, outcome: np.ndarray
    ) -> None:
        """Write the sent entries of the delivered rows into ``references``.

        Batch row ``r`` belongs to row ``rows[r]`` of ``references`` (the
        live ``(E, d)`` views; ``rows`` ascending and unique) and
        ``outcome[r]`` says whether it arrived. A mask-backed batch is one
        masked copy of ``values`` over ``mask & outcome`` — in place when
        ``rows`` is every row, else through a gather of those rows and one
        scatter back; an index-backed batch scatters its sent columns.
        Either writes exactly the coordinates ``batch[r]`` carries, with
        its values, bit for bit.
        """
        if self.indices is None:
            sent = outcome[:, None]
            if self.mask is not None:
                sent = self.mask & sent
            every_row = rows.size == len(references)
            target = references if every_row else references[rows]
            np.copyto(target, self.values, where=sent)
            if not every_row:
                references[rows] = target
            return
        sent = np.arange(self.indices.shape[1]) < self.n_sent[:, None]
        sent &= outcome[:, None]
        positions, columns = np.nonzero(sent)
        references[rows[positions], self.indices[positions, columns]] = (
            self.values[positions, columns]
        )


class Compressor:
    """Base class of every compression scheme (see the module docstring).

    Subclasses must implement :meth:`compress`; everything else has
    behavior-preserving defaults. Class attributes advertise capabilities:

    * ``uses_rng`` — the scheme is stochastic; edge states get a keyed
      per-edge generator.
    * ``batched`` — :meth:`compress_batch` is an array kernel that is
      bit-for-bit identical to per-edge :meth:`compress` calls (asserted by
      the engine-parity tests) and reads no ``states``, and the round
      opens and closes through :meth:`begin_round_batch` /
      :meth:`end_round_batch`, never the per-node ones (a batched scheme
      with per-node round state overrides both, as APE does). The
      vectorized engine routes all edges through one instance, and
      creates no :class:`EdgeState` for it. Its per-edge :meth:`compress`
      is pure: the payload depends on nothing but ``(current,
      state.reference, ctx)``, and a repeat call on the same inputs
      leaves ``ctx`` as the first call left it (APE's running
      ``suppressed_max`` takes the same maximum again). So
      :meth:`~repro.core.trainer.SNAPTrainer.send_round` builds one
      message per distinct reference and hands it to every neighbor that
      holds that reference.
    """

    #: Human-readable label; the builder overrides it with the full spec
    #: label (e.g. ``"topk(k=32)"``), which is also the cost tracker's
    #: stage-attribution key.
    name: str = "compressor"
    uses_rng: bool = False
    batched: bool = False

    # -- state ------------------------------------------------------------------

    def make_edge_state(
        self, source: int, destination: int, seed: int | None
    ) -> EdgeState:
        """Create the persistent state for one directed edge."""
        state = EdgeState(source=int(source), destination=int(destination))
        if self.uses_rng:
            state.rng = edge_rng(seed, source, destination)
        return state

    # -- the round protocol ------------------------------------------------------

    def begin_round(self, params: np.ndarray, round_index: int) -> dict:
        """Per-node round context, computed once before the edge fan-out."""
        return {}

    def begin_round_batch(
        self, params: np.ndarray, nodes: np.ndarray, round_index: int, peers
    ):
        """Open the round for the rows ``nodes`` of the ``(N, d)`` stack.

        ``peers[i]`` is node ``i``'s compressor (``self`` is one of them).
        Returns the round's contexts indexed by node: ``ctxs[sources]`` is
        what :meth:`compress_batch` takes for edges leaving ``sources``.
        This default adapts per-node :meth:`begin_round`; ``batched``
        kernels read no context, so for them it makes no per-node call.
        """
        ctxs = np.full(len(params), None, dtype=object)
        if not self.batched:
            for i in nodes.tolist():
                ctxs[i] = peers[i].begin_round(params[i], round_index)
        return ctxs

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        """Compress ``current`` against ``state.reference`` for one edge."""
        raise NotImplementedError

    def compress_batch(
        self,
        currents: np.ndarray,
        references: np.ndarray,
        states=None,
        ctxs=None,
    ) -> PayloadBatch:
        """Compress many edges at once; rows of the two matrices align.

        This default adapts per-edge :meth:`compress` (``states`` and
        ``ctxs`` give each row's edge state and its source's round
        context) into a columnar batch; ``batched`` subclasses override it
        with array kernels that produce bitwise-identical payloads.
        """
        payloads = []
        for row, state in enumerate(states):
            state.reference = references[row]
            payloads.append(self.compress(currents[row], state, ctxs[row]))
        return PayloadBatch.from_payloads(payloads)

    def end_round(self, ctx: dict) -> bool:
        """Fold round statistics into state; ``True`` requests an optimizer
        recursion restart (Algorithm 1's stage boundary)."""
        return False

    def end_round_batch(self, ctxs, nodes: np.ndarray, peers) -> np.ndarray:
        """Close the round :meth:`begin_round_batch` opened for ``nodes``.

        Returns the nodes whose optimizer recursion restarts. The default
        adapts per-node :meth:`end_round` (skipped, like the opening call,
        for ``batched`` kernels).
        """
        if self.batched:
            return np.empty(0, dtype=np.int64)
        restarts = [i for i in nodes.tolist() if peers[i].end_round(ctxs[i])]
        return np.asarray(restarts, dtype=np.int64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def row_reduce(ufunc: np.ufunc, matrix: np.ndarray, dtype=None) -> np.ndarray:
    """``ufunc.reduce(matrix, axis=1)``, run along the longer of the two axes.

    numpy reduces each row of a C-contiguous ``(K, d)`` matrix with its own
    inner-loop call, so over thousands of short rows (N=1024 edges of an
    11-parameter model) the per-row overhead is most of the cost; with
    ``K > d`` this reduces the columns of a transposed copy instead — one
    vector operation per column. Only for reductions whose result does not
    depend on the order of the operands (``np.maximum``; ``np.add`` over
    booleans into an integer ``dtype``): a float ``np.add`` row sum is
    pairwise and would change bits.
    """
    if matrix.shape[0] > matrix.shape[1]:
        return ufunc.reduce(np.ascontiguousarray(matrix.T), axis=0, dtype=dtype)
    return ufunc.reduce(matrix, axis=1, dtype=dtype)


def edge_rng(
    seed: int | None, source: int, destination: int
) -> np.random.Generator:
    """The keyed per-edge generator stochastic compressors draw from.

    Seeding by ``(seed, source, destination)`` (through numpy's
    ``SeedSequence`` entropy spawning) makes each edge's stream independent
    of every other edge's and of the order edges are compressed in.
    """
    base = 0 if seed is None else int(seed)
    return np.random.default_rng([base, int(source), int(destination)])


__all__ = [
    "Compressor",
    "EdgeState",
    "Payload",
    "PayloadBatch",
    "QuantizationInfo",
    "edge_rng",
    "payload_to_update",
]
