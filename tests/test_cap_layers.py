"""Smoke test of tools/cap_layers.py on a small shape.

The cap tool imports private names of the package (the roof's contraction
rule among them), so a rename there breaks it; this runs its checks on
(4, 2), which takes well under a second.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cap_layers.py"


def test_measure_small_shape_passes():
    spec = importlib.util.spec_from_file_location("cap_layers", TOOL)
    cap_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cap_layers)
    # passed covers every check, the roof's two contraction orders included
    assert cap_layers.measure(4, 2)["passed"]
