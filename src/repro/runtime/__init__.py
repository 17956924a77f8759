"""A real networked SNAP runtime — the paper's "small scale testbed".

Where :mod:`repro.core` *simulates* message exchange in-process, this package
actually runs it: every edge server has its own TCP listener, peers hold
persistent connections (as the paper's wired deployment does), one event
loop drives all of them, and every parameter update crosses a real socket
encoded in the binary Fig. 3 frame format of :mod:`repro.network.codec`.

The runtime exists for fidelity, not scale: the integration tests prove that
a networked run produces bit-for-bit the same parameters as the simulated
:class:`~repro.core.SNAPTrainer` on the same inputs — so every simulation
result in this repository is also a statement about the real protocol.
"""

from repro.runtime.transport import FrameConnection, RetryPolicy
from repro.runtime.testbed import TestbedResult, TestbedRuntime

__all__ = [
    "FrameConnection",
    "RetryPolicy",
    "TestbedResult",
    "TestbedRuntime",
]
