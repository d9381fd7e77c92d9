"""The README's examples run as written.

The Python block runs as a script in a fresh interpreter, with `src` on
PYTHONPATH and no bytecode written into the tree, and `setloss train` runs on
the README's `train.json`.
"""

import math
import os
import re
import subprocess
import sys

from setloss import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _block(lang):
    with open(os.path.join(ROOT, "README.md")) as fh:
        (body,) = re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)
    return body


def test_readme_examples_run(tmp_path, capsys):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _block("python")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout.split()[0]))

    config = tmp_path / "train.json"
    config.write_text(_block("json"))
    out = tmp_path / "runs"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["fl", "gc-cf", "supcon"]
    capsys.readouterr()
