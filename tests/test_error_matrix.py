import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_error_matrix_regenerates_byte_for_byte(tmp_path):
    """tools/error_matrix.py rewrites the committed ERROR_MATRIX.csv byte for
    byte, also when the caller runs two BLAS threads: the tool computes it
    in a subprocess pinned to one.  A change that moves a network fails here
    until the matrix is regenerated, and the file's diff shows what moved."""
    out = tmp_path / "ERROR_MATRIX.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    subprocess.run([sys.executable, str(ROOT / "tools" / "error_matrix.py"), "--out", str(out)],
                   env=env, check=True, timeout=60)
    assert out.read_bytes() == (ROOT / "ERROR_MATRIX.csv").read_bytes()
