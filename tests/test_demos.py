import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scaled_comparison_runs_at_toy_size():
    args = ["--pairs", "64", "--valid", "16", "--topics", "8", "--fillers", "20",
            "--replies", "30", "--hidden", "8", "--embed", "4", "--batch", "16",
            "--epochs", "3", "--patience", "2"]
    stdout = run_demo("scaled_comparison.py", *args)
    assert len([l for l in stdout.splitlines() if "BLEU-4" in l]) == 4


@pytest.mark.parametrize("name", ["autodiff_basics.py", "metrics_walkthrough.py",
                                  "representation_matching.py", "train_and_chat.py"])
def test_demo_runs(name):
    assert run_demo(name)
