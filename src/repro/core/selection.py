"""Changed-parameter selection — SNAP's "Select Parameters" step.

A parameter is transmitted when its value differs from the value the
neighbors currently hold by more than the APE-derived threshold. Comparing
against the *last transmitted* value (rather than last iteration's value)
keeps the neighbors' error bounded by the threshold itself: small changes
cannot silently drift across many iterations without ever triggering a send.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ProtocolError


class Selection(NamedTuple):
    """Outcome of one selection pass.

    Attributes
    ----------
    indices:
        Sorted flat indices of the parameters to transmit.
    values:
        Current values at those indices.
    suppressed_max:
        Largest absolute suppressed change (``m`` in the APE recursion);
        zero when nothing nonzero was suppressed.
    """

    indices: np.ndarray
    values: np.ndarray
    suppressed_max: float


def select_parameters(
    current: np.ndarray, reference: np.ndarray, threshold: float
) -> Selection:
    """Pick the coordinates of ``current`` to transmit.

    Parameters
    ----------
    current:
        The server's new parameter vector.
    reference:
        What the neighbors currently believe this server's parameters are
        (the values last sent to them).
    threshold:
        Suppression threshold; changes with absolute value strictly greater
        than this are transmitted. ``0`` reproduces SNAP-0: any nonzero
        change is sent, exact ties are suppressed.
    """
    current = np.asarray(current, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if current.shape != reference.shape or current.ndim != 1:
        raise ProtocolError(
            f"current {current.shape} and reference {reference.shape} must be "
            "matching 1-D vectors"
        )
    if threshold < 0:
        raise ProtocolError(f"threshold must be >= 0, got {threshold}")
    delta = np.abs(current - reference)
    send_mask = delta > threshold
    # delta >= 0, so the 0.0 floor only answers "nothing suppressed"; a NaN
    # change is never sent and propagates into the max.
    suppressed_max = float(delta.max(where=~send_mask, initial=0.0))
    # Already int64: ParameterUpdate keeps this very array (no cast, no copy).
    indices = send_mask.nonzero()[0]
    return Selection(
        indices=indices,
        values=current[indices],
        suppressed_max=suppressed_max,
    )
