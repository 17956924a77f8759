#!/usr/bin/env python
"""Wire-level emulation: real frames on modeled 1 Gbps links.

Where the other examples count bytes, this one goes one level deeper:

* every parameter update a SNAP run produces is *actually encoded* with the
  Fig. 3 binary codecs, proving the byte accounting is honest;
* the per-round flow records are pushed through a link timing model
  (the paper's testbed links are 1 Gbps) to estimate how long the run would
  take on real hardware, for SNAP vs the always-send-everything variant.

Run:  python examples/wire_emulation.py
"""

from repro.analysis.reporting import ascii_table, format_bytes
from repro.core import SNAPConfig, SNAPTrainer
from repro.network import LinkTimingModel
from repro.network.codec import decode_update, encode_update
from repro.network.frames import encoded_update_bytes
from repro.simulation import mnist_mlp_workload

import numpy as np


def verified_bytes_of_one_round(trainer: SNAPTrainer) -> int:
    """Re-encode one round's worth of updates through the real codec.

    Each server's round goes through the trainer's own sender
    (``send_round``); its wire encodes every frame, checks the length against
    the Fig. 3 size formula, decodes it and checks it round-trips.
    """
    total = 0

    def transmit(source, neighbor, message, stage) -> bool:
        nonlocal total
        frame = encode_update(message)
        assert len(frame) == encoded_update_bytes(
            message.total_params, message.n_unsent
        )
        decoded = decode_update(
            frame,
            message.frame_format,
            message.total_params,
            message.sender,
            message.round_index,
        )
        assert np.array_equal(decoded.indices, message.indices)
        assert np.array_equal(decoded.values, message.values)
        total += len(frame)
        return True

    round_index = trainer.servers[0].iteration + 1
    for server in trainer.servers:
        trainer.send_round(server, round_index, frozenset(), transmit)
    return total


def main() -> None:
    workload = mnist_mlp_workload(
        n_servers=3, n_train=900, n_test=300, noise_std=0.3, seed=6
    )
    timing = LinkTimingModel(compute_s_per_round=0.05)  # 1 Gbps + 50ms compute

    rows = []
    for label, compressor in [("snap", "ape"), ("sno (send everything)", "dense")]:
        trainer = SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(compressor=compressor, alpha=0.5, seed=6),
            initial_params=workload.model.init_params(6),
        )
        result = trainer.run(max_rounds=100, stop_on_convergence=False)
        seconds = timing.total_time(trainer.tracker, result.n_rounds)
        rows.append(
            [
                label,
                format_bytes(result.total_bytes),
                f"{seconds:.2f} s",
                f"{result.rounds[-1].mean_loss:.4f}",
            ]
        )

    print("100 rounds of the 3-server MLP testbed on modeled 1 Gbps links:")
    print(
        ascii_table(
            ["scheme", "traffic", "estimated wall clock", "final loss"], rows
        )
    )

    # Byte-accounting honesty check through the real codec.
    trainer = SNAPTrainer(
        workload.model,
        workload.shards,
        workload.topology,
        config=SNAPConfig(alpha=0.5, seed=6),
        initial_params=workload.model.init_params(6),
    )
    for server in trainer.servers:
        server.step()
    real = verified_bytes_of_one_round(trainer)
    print()
    print(
        f"one full round re-encoded through the binary Fig. 3 codecs: "
        f"{format_bytes(real)} — every payload length matched the size "
        "formulas and decoded losslessly."
    )


if __name__ == "__main__":
    main()
