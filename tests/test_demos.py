"""Each demo runs as a script and prints exactly its pinned output.

A change that alters a demo's stdout on purpose updates its sha256 here
and says so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_wreath_and_group_ring.py": "b837cfd38567463d0ef8ed31fd38c541de24d2b54866b4e333825ee2fe98163c",
    "02_fox_calculus.py": "1c46797eaf747007675581ea73b5cb81557c8c86652f186865e7855ddef3e401",
    "03_zerodivisor_certificates.py": "58420a2ee9ca5a69fd1c3742f9d8975f7b3ab2f0b85f67d3bf1e8600a1d75cfe",
    "04_ore_window_search.py": "913ae70b934dd3ee393544b22c643f3a91a2830103c4fa9ed2cb2bfe621da047",
    "05_base_ideal_tools.py": "cf00ca9aa63c54718d191d2aae8cefe8b87d07cb4dda2f24d98b4d02aea57aef",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_is_pinned(name):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                            capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_SHA256[name]
