"""The repository benchmark's traced pass patches names *inside* this
package (``benchmarks/e2e/tracer.py::LAYERS``).  A rename there would
otherwise surface minutes into ``e2e-smoke``; here it fails in seconds.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks/e2e/tracer.py"


def test_every_traced_layer_resolves():
    """Each name resolves to a callable defined on the owner itself: the
    traced pass swaps ``vars(owner)[attr]``, so a method that only an
    inherited lookup finds would break it as surely as a rename."""
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracer)
        for layer in tracer.LAYERS:
            owner, attr = tracer.resolve(layer)
            assert callable(vars(owner).get(attr)), layer.name
    finally:
        del sys.modules[spec.name]
