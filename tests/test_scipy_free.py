"""botmeterd must run, byte for byte, without scipy installed.

scipy backs only the confidence-interval helpers and the tests; the
daemon's start-up and estimate path use :mod:`repro.core.numeric`.
Each check runs in a fresh interpreter, so modules imported by other
tests cannot hide an eager ``import scipy``.  This file imports no scipy
itself and runs in an environment without it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Installed ahead of every other finder: any ``scipy`` import fails as
# if the package were not installed.
_BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, _NoScipy())
"""


def _python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_no_scipy():
    loaded = _python(
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded.strip() == "[]"


def test_golden_replays_without_scipy(tmp_path):
    """MB (new_goz_jitter, through the bounded minimiser) and MP
    (murofet_small) replays reproduce the committed goldens with every
    scipy import failing."""
    outputs = {name: tmp_path / f"{name}.ndjson" for name in ("new_goz_jitter", "murofet_small")}
    code = _BLOCK_SCIPY + f"""
import json
from repro.cli import main
import repro.core.bernoulli as bernoulli

minimised = []
inner = bernoulli.minimize_bounded
def counted(*args, **kwargs):
    minimised.append(1)
    return inner(*args, **kwargs)
bernoulli.minimize_bounded = counted

outputs = {json.dumps({k: str(v) for k, v in outputs.items()})}
for name, out in outputs.items():
    rc = main(["replay", {str(GOLDEN)!r} + "/" + name + ".ndjson",
               "--out", out, "--trace-sample", "0"])
    assert rc == 0, (name, rc)
print(json.dumps({{"minimised": len(minimised)}}))
"""
    report = json.loads(_python(code).strip().splitlines()[-1])
    assert report["minimised"] > 0
    for name, out in outputs.items():
        expected = (GOLDEN / f"{name}.landscape.ndjson").read_bytes()
        assert out.read_bytes() == expected, name
