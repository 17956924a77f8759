"""Default presets are pinned bit-for-bit to the pre-subsystem behavior.

The golden digests below were captured on the commit *before* the
compression subsystem existed (selection logic inlined in the trainer and
engines). The acceptance bar for the refactor is that SNAP / SNAP-0 / SNO
runs — RoundRecords, the flow ledger, and the final parameters — are
byte-identical on both engines, clean and under the chaos fault plan.
"""

from __future__ import annotations

import pytest

from tests.compression.conftest import make_trainer, run_digest

GOLDEN = {
    "ape|clean": {
        "rounds_sha": "b744f9f67690516bd15ec0d10972e1f1d6cd95d10fa5cbd839fce0e6782b3c86",
        "ledger_sha": "d0389b65714e3ed202942b710833bace02e891bbca0cc318afdd012c88f025de",
        "final_params_sha": "5a4f2bbc685edadc93c5b06ba29050b5c0a5e39c17c464d63eb0fd2a819426a3",
        "total_bytes": 17828,
        "total_cost": 17828,
        "final_loss": "0x1.4ae69e0d624cfp-1",
    },
    "ape|faulty": {
        "rounds_sha": "5ed6e4a51722e113e99839f0ae4154ab7aef9b8859293359bb31b1f05109be44",
        "ledger_sha": "a1abc24243bc4daf29d76862fbe61a3b7dfb15d2ada554d9e54548b934fc4e80",
        "final_params_sha": "9d34474cc2ab3c8ece4163bec79cbf9e80c529dd5154f7bdd6c5394b4ee0604a",
        "total_bytes": 8784,
        "total_cost": 8784,
        "final_loss": "0x1.5c75da190bd1fp-1",
    },
    "changed_only|clean": {
        "rounds_sha": "0def568bec13491505d3a126071a5d0d597d4521ff1f693e5a5b3349726616e6",
        "ledger_sha": "920594952823d60fe0e54a913455e05381843f9da5a6afdb927c7e72c6d2b8b6",
        "final_params_sha": "90074dec430929f7a25940f8b6c1baa0760b38691e68706cedc2fe237f988a72",
        "total_bytes": 18200,
        "total_cost": 18200,
        "final_loss": "0x1.534fd18d2e803p-1",
    },
    "changed_only|faulty": {
        "rounds_sha": "b6b19041f4b7c73a9aaece61e2bac1846c00916b1570b1e77c1bfccbbaa0c269",
        "ledger_sha": "0062a73c0dc2f17c41e4ab5cfcd606f62f8dbbadc11649ac85144cafc85fb64a",
        "final_params_sha": "2441694e5110b189fe009eef84554ef23f99b0d101423c44eecc0a9ded686ac6",
        "total_bytes": 8840,
        "total_cost": 8840,
        "final_loss": "0x1.5fc0d4b8019a0p-1",
    },
    # On this 5-parameter model SNO and SNAP-0 coincide: with every
    # coordinate changing every round, SNAP-0's UNCHANGED_INDEX frame
    # degenerates to the dense size 4 + 8N, so values *and* bytes agree.
    "dense|clean": None,  # == changed_only|clean
    "dense|faulty": None,  # == changed_only|faulty
}
GOLDEN["dense|clean"] = GOLDEN["changed_only|clean"]
GOLDEN["dense|faulty"] = GOLDEN["changed_only|faulty"]

SELECTIONS = ("ape", "changed_only", "dense")


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("selection", SELECTIONS)
def test_preset_matches_pre_refactor_golden(engine, selection, faulty):
    trainer = make_trainer(engine, faulty=faulty, selection=selection)
    key = f"{selection}|{'faulty' if faulty else 'clean'}"
    assert run_digest(trainer) == GOLDEN[key]
