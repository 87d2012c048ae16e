import os
import subprocess
import sys

import zdbench


def test_every_export_resolves():
    assert [name for name in zdbench.__all__ if not hasattr(zdbench, name)] == []
    # a fresh interpreter, so warnings raised while importing count too
    src = os.path.dirname(os.path.dirname(zdbench.__file__))
    subprocess.run([sys.executable, "-W", "error", "-c", "from zdbench import *"],
                   check=True, env=dict(os.environ, PYTHONPATH=src))
