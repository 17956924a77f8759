"""Message types exchanged between simulated edge servers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProtocolError
from repro.network.frames import (
    FrameFormat,
    check_quant_bits,
    frame_layout,
    quantization_levels,
)
from repro.types import NodeId


def strictly_increasing(indices: np.ndarray) -> bool:
    """Whether a 1-D index array is strictly increasing (the index-order check).

    The one spelling of the check: :class:`ParameterUpdate` runs it on the
    indices it is handed and the wire codec on the index list it decodes,
    so a received frame pays for it once.
    """
    ascending = indices[1:] > indices[:-1]
    # count_nonzero skips the Python layer of ``.all()``: a third of the
    # cost on the few-dozen-entry lists the frames carry.
    return np.count_nonzero(ascending) == ascending.size


@dataclass(frozen=True, eq=False)
class QuantizationInfo:
    """Quantization metadata riding on an update whose values are quantized.

    Attributes
    ----------
    bits:
        Bit width of one level on the wire (2..16).
    scale:
        Full-precision scale factor; level ``l`` reconstructs to
        ``l * scale / (2**(bits-1) - 1)``.
    levels:
        Signed integer levels aligned with the update's ``indices``, each in
        ``[-L, L]`` for ``L = 2**(bits-1) - 1``.
    """

    bits: int
    scale: float
    levels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", check_quant_bits(self.bits))
        scale = float(self.scale)
        if not np.isfinite(scale) or scale <= 0:
            raise ProtocolError(f"quantization scale must be finite > 0, got {scale}")
        object.__setattr__(self, "scale", scale)
        levels = np.asarray(self.levels)
        if levels.ndim != 1 or not np.issubdtype(levels.dtype, np.integer):
            raise ProtocolError("quantization levels must be a 1-D integer array")
        levels = levels.astype(np.int64)
        cap = quantization_levels(self.bits)
        if levels.size and int(np.abs(levels).max()) > cap:
            raise ProtocolError(
                f"quantization levels exceed the {self.bits}-bit range "
                f"[-{cap}, {cap}]"
            )
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True, init=False)
class ParameterUpdate:
    """A sparse parameter update from one server to one neighbor.

    Carries the *changed* coordinates only (SNAP's Select Parameters idea):
    ``indices[k]`` is the flat parameter index whose new value is
    ``values[k]``. The frame format and byte size are fixed at construction
    from the paper's Fig. 3 formulas.

    Attributes
    ----------
    sender:
        Originating edge server.
    round_index:
        Iteration the update belongs to.
    total_params:
        Full model dimension ``N`` in the frame formulas.
    indices:
        Sorted flat indices of the transmitted parameters.
    values:
        Transmitted values, aligned with ``indices``. Absolute parameter
        values normally; reconstructed *deltas* when ``additive`` is set.
    quantization:
        Optional :class:`QuantizationInfo` when the values were produced by
        a quantizing compressor; enables the QUANTIZED wire format.
    additive:
        Decoded quantized frames are additive: ``apply_to`` adds the values
        onto the target instead of overwriting. Only valid together with
        ``quantization`` (the simulator always builds absolute updates; the
        flag exists so the wire codec can round-trip without re-deriving
        absolute values it does not know the receiver's reference for).
    frame_format:
        The cheapest frame format for this update (two Fig. 3 structures,
        plus QUANTIZED when quantization metadata is present).
    size_bytes:
        Exact wire size of the chosen frame.
    """

    sender: NodeId
    round_index: int
    total_params: int
    indices: np.ndarray
    values: np.ndarray
    quantization: QuantizationInfo | None = None
    additive: bool = False
    frame_format: FrameFormat = field(init=False)
    size_bytes: int = field(init=False)

    def __init__(
        self,
        sender: NodeId,
        round_index: int,
        total_params: int,
        indices: np.ndarray,
        values: np.ndarray,
        quantization: QuantizationInfo | None = None,
        additive: bool = False,
    ) -> None:
        # Written by hand, not generated: the fields go straight into the
        # instance dict, where the frozen dataclass __init__ would pay one
        # object.__setattr__ per field on every frame the sender builds.
        indices = np.asarray(indices, np.int64)
        values = np.asarray(values, np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise ProtocolError("indices and values must be 1-D arrays")
        if indices.shape != values.shape:
            raise ProtocolError(
                f"indices ({indices.shape}) and values ({values.shape}) differ in length"
            )
        if indices.size:
            # One pass: strictly increasing indices have their extremes at
            # the two ends, so only a malformed update pays for min / max.
            increasing = strictly_increasing(indices)
            if increasing:
                low, high = indices[0], indices[-1]
            else:
                low, high = indices.min(), indices.max()
            if low < 0 or high >= total_params:
                raise ProtocolError(f"indices out of range 0..{total_params - 1}")
            if not increasing:
                raise ProtocolError("indices must be strictly increasing")
        bits = None
        if quantization is not None:
            if not isinstance(quantization, QuantizationInfo):
                raise ProtocolError(
                    f"quantization must be QuantizationInfo, got {quantization!r}"
                )
            if quantization.levels.shape != indices.shape:
                raise ProtocolError(
                    f"quantization levels ({quantization.levels.shape}) "
                    f"and indices ({indices.shape}) differ in length"
                )
            bits = quantization.bits
        elif additive:
            raise ProtocolError("additive updates must carry quantization metadata")
        chosen, size = frame_layout(total_params, total_params - indices.size, bits)
        vars(self).update(
            sender=sender,
            round_index=round_index,
            total_params=total_params,
            indices=indices,
            values=values,
            quantization=quantization,
            additive=additive,
            frame_format=chosen,
            size_bytes=size,
        )

    @classmethod
    def _from_wire(
        cls,
        sender: NodeId,
        round_index: int,
        total_params: int,
        indices: np.ndarray,
        values: np.ndarray,
        quantization: QuantizationInfo | None = None,
    ) -> "ParameterUpdate":
        """Build the update a wire decoder has just parsed, checking nothing twice.

        The caller (:func:`repro.network.codec.decode_update`) has proven
        what ``__init__`` would re-check: ``indices`` and ``values`` are
        1-D ``int64`` / ``float64`` arrays of equal length, the indices are
        strictly increasing and below ``total_params``, and ``quantization``
        (when given) is a :class:`QuantizationInfo` with one level per index.
        A decoded quantized frame is additive, a full-precision one is not.
        Frame format and size still come from :func:`frame_layout`, which
        checks the counts.
        """
        chosen, size = frame_layout(
            total_params,
            total_params - indices.size,
            None if quantization is None else quantization.bits,
        )
        update = object.__new__(cls)
        vars(update).update(
            sender=sender,
            round_index=round_index,
            total_params=total_params,
            indices=indices,
            values=values,
            quantization=quantization,
            additive=quantization is not None,
            frame_format=chosen,
            size_bytes=size,
        )
        return update

    @property
    def n_sent(self) -> int:
        """Number of transmitted parameters."""
        return int(self.indices.size)

    @property
    def n_unsent(self) -> int:
        """Number of suppressed parameters (``M`` in the frame formulas)."""
        return self.total_params - self.n_sent

    def apply_to(self, target: np.ndarray) -> np.ndarray:
        """Overlay the update onto a cached parameter vector (returns a copy).

        The receiver keeps its last view of the sender's parameters and
        replaces only the transmitted coordinates — the paper's rule that
        missing parameters default to "the latest values of those parameters
        from edge server j".
        """
        if type(target) is not np.ndarray or target.dtype != np.float64:
            target = np.asarray(target, dtype=float)
        if target.shape != (self.total_params,):
            raise ProtocolError(
                f"target shape {target.shape} does not match total_params "
                f"{self.total_params}"
            )
        updated = target.copy()
        if self.additive:
            updated[self.indices] = target[self.indices] + self.values
        else:
            updated[self.indices] = self.values
        return updated

    @classmethod
    def dense(
        cls, sender: NodeId, round_index: int, params: np.ndarray
    ) -> "ParameterUpdate":
        """An update carrying every coordinate (what SNO/SNAP-0's first round sends)."""
        params = np.asarray(params, dtype=float)
        return cls(
            sender=sender,
            round_index=round_index,
            total_params=params.size,
            indices=np.arange(params.size, dtype=np.int64),
            values=params,
        )
