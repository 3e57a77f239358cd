"""Every demo script runs to completion against the source tree, with
warnings made errors as in CI, and prints the same bytes as before: its
stdout is deterministic, so its SHA-256 is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_lattices_and_discriminant_forms":
        "f0788749c43a5f5a6ea846c7d5a861be579426aeff5540a77075253113736586",
    "02_parity_and_the_ambient_lattice":
        "f935c081e3008e9ad31c7774ecaa40388984ccc2341ab8f2332bd93a3ea840ed",
    "03_embedding_tables":
        "69e7e8b0e45bce4411ef8cfd684257f1c28addde9b31ddd98ad54ccfd6ef3c9b",
    "04_existence_and_transfer":
        "cdca44c2004d14b3649148c57ef4b6ff760e92350c58bb8ad338519a2254884a",
    "05_class_groups_and_multipliers":
        "5a7f2f5e07461a5d0b0095371fb513f285cc8186d60e94f1c066021c4cec313e",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
