import os
import subprocess
import sys

from conftest import SRC_DIR


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every stage process and `ask` launch imports qapipe.cli first, so what
    that import loads is paid per process. The modules loaded before it,
    such as those `site` loads, do not count."""
    probe = (
        "import sys; before = set(sys.modules); import qapipe.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    added = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "qapipe.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
