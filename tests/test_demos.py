import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scaled_comparison_runs_at_toy_size():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    args = ["--pairs", "64", "--valid", "16", "--topics", "8", "--fillers", "20",
            "--replies", "30", "--hidden", "8", "--embed", "4", "--batch", "16",
            "--epochs", "3", "--patience", "2"]
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "scaled_comparison.py")] + args,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len([l for l in done.stdout.splitlines() if "BLEU-4" in l]) == 4
