"""What a serving process loads: nothing it never runs.

``repro.resil`` and ``repro.obs`` name the fault campaign and the
attribution report among their public names; the first pulls in all of
:mod:`repro.verify`, the second :mod:`repro.baselines`.  A server uses
neither, so both load on first access (PEP 562), and importing
:mod:`repro.serve` and serving a request must leave them unloaded.  Run in
a fresh interpreter: this test process has imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SERVE_ONE = """
import sys
import numpy as np
from repro.config import small_test_chip
from repro.nn.transformer import TransformerConfig
from repro.serve import BatchPolicy, InferenceServer, TransformerMlpServeModel

config = small_test_chip()
ffn = TransformerConfig(
    d_model=16, n_heads=2, d_ff=32, seq_len=8, n_layers=1, vocab=64
)
model = TransformerMlpServeModel("ffn", ffn, config, seed=0)
with InferenceServer(
    config, [model], n_workers=1,
    default_policy=BatchPolicy(max_batch=1, max_delay_s=0.0),
) as server:
    server.submit("ffn", np.ones(ffn.d_model)).result(timeout=60)
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

#: loaded only by the tools that use them
NEVER_SERVED = ("repro.verify", "repro.baselines", "repro.resil.campaign",
                "repro.obs.attribution")


def test_serving_a_request_loads_no_verifier_and_no_baselines():
    done = subprocess.run(
        [sys.executable, "-c", SERVE_ONE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.split())
    assert {"repro.serve.pool", "repro.sim.replay"} <= loaded
    assert not {
        name for name in loaded
        if any(name == m or name.startswith(m + ".") for m in NEVER_SERVED)
    }


def test_every_public_name_still_resolves():
    import repro.obs
    import repro.resil
    from repro.obs.attribution import attribute
    from repro.resil.campaign import SCENARIOS

    for package in (repro.obs, repro.resil):
        for name in package.__all__:
            getattr(package, name)
    assert repro.obs.attribute is attribute
    assert repro.resil.SCENARIOS is SCENARIOS
