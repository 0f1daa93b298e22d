"""The benchmark's outputs, pinned to the byte: one ``run_pipeline`` pass
per workload at seeds 1 and 2 must give the same eval scores (by sha256)
and the same epoch losses (as float hex) as the commit the pin was
recorded at. A refactor changes neither. A change that moves these bytes
on purpose updates the pin and says why in CHANGES.md."""

import hashlib
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "mvse_bench"

# (workload, seed): (sha256 of eval.scores.tobytes(), epoch losses as float hex)
PINNED = {
    ("global-train", 1): (
        "d10dd35f0654c87570dccf89a0d2d29650e50b251bacd6d46f6a31d62b50fb0b",
        ["0x1.0fe7ce4533908p+1", "0x1.066d9a6942cadp+0", "0x1.9b1ad9f7073eap-1", "0x1.1fc5f9f73ca90p-1",
         "0x1.a24552d700627p-2", "0x1.99d1d148a4b83p-2", "0x1.3ad7520be382cp-2", "0x1.3004231cecd46p-2"],
    ),
    ("global-train", 2): (
        "509b4e025fdefdc76bea67fa79758e4cbf047e1b16e18571d2d06a9180567e98",
        ["0x1.458683878e914p+1", "0x1.48d0c28bf2f23p+0", "0x1.0b1e71cb60c6cp+0", "0x1.373269e87adf9p-1",
         "0x1.49b4d74ea55eep-1", "0x1.a4d09ab55dcf0p-2", "0x1.9de84c0a268c2p-2", "0x1.204a8af751be9p-2"],
    ),
    ("seq-train", 1): (
        "49d5f58bc5d1aa645c93eb90ec839dc16eb0a2097f6a778a32fb4b18672fefc6",
        ["0x1.340018be032c8p-1", "0x1.24c40f86bf56bp-1", "0x1.04c6136ce51e7p-1"],
    ),
    ("seq-train", 2): (
        "c28b6dce16e8ab0b0630e5a29d965330c6a857d3b1c75e6cfe031ad1186585e4",
        ["0x1.45537933ff3a0p-1", "0x1.2c181c4fd425dp-1", "0x1.103cc52bd0b74p-1"],
    ),
    ("seq-retrieve", 1): (
        "078f77515395fad7bbcd955fbd02eb5f2705f0e2ca97c82e06f7e84eac8202e1",
        ["0x1.3025768df330fp-1", "0x1.eb84c4efaf154p-2"],
    ),
    ("seq-retrieve", 2): (
        "3455123198f91734dfd392e83453bca61f6f48f70df45b2a7ed160d492571db4",
        ["0x1.22121d9366accp-1", "0x1.0aeae69330513p-1"],
    ),
}


@pytest.mark.parametrize("workload, seed", list(PINNED), ids=[f"{w}-{s}" for w, s in PINNED])
def test_a_pipeline_pass_gives_the_pinned_bytes(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    ledger = pipeline.Ledger()
    result = pipeline.run_pipeline(pipeline.WORKLOADS[workload], seed, tmp_path, ledger)
    assert (ledger.failed, ledger.problems) == (0, [])
    scores = hashlib.sha256(result.eval.scores.tobytes()).hexdigest()
    assert (scores, [loss.hex() for loss in result.train.losses]) == PINNED[workload, seed]
