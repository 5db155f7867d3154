"""The demos run to completion.

Each of demos/01-04 runs in its own interpreter with src/ on the path and
must exit 0.  05_benchmark.py trains a model for minutes and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_log_chroma_histograms.py", "02_ccc_localization.py",
         "03_autodiff_and_gradcheck.py", "04_sensor_simulation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
