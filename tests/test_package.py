import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_is_bare():
    # the submodules are the API; importing the package must not pull in
    # the solver and with it scipy.optimize
    code = "import linetrack, sys; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
