"""Each script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_exits_zero():
    assert len(DEMOS) == 5
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the five run side by side, so the test takes about as long as the slowest
    procs = {
        demo.name: subprocess.Popen([sys.executable, str(demo)], cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in DEMOS
    }
    failed = {}
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0:
            failed[name] = err
    assert failed == {}
