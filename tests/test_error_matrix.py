import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the columns that name a row of the matrix
KEY = ("activation", "strategy", "target", "fit")


def _moved_rows(old: str, new: str, shown: int = 5) -> str:
    """The first rows that differ between two matrix texts, by their KEY,
    with the old and the new sup_error; a row missing on one side reads
    "absent" there."""
    def rows(text):
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(io.StringIO(text))}

    before, after = rows(old), rows(new)
    keys = list(before) + [key for key in after if key not in before]
    moved = [key for key in keys if before.get(key) != after.get(key)]
    lines = [f"{len(moved)} of {len(keys)} rows differ; the first {min(shown, len(moved))}:"]
    for key in moved[:shown]:
        old_err, new_err = ((side[key]["sup_error"] or side[key]["failure"]) if key in side
                            else "absent" for side in (before, after))
        lines.append(f"  {key}: sup_error {old_err} -> {new_err}")
    return "\n".join(lines)


def test_moved_rows_names_the_first_rows_that_differ():
    head = ",".join(("activation", "strategy", "target", "fit", "depth", "sup_error", "failure"))
    old = "\n".join([head, "a,S,re,seed=1,5,0.1,", "a,S,re,seed=2,5,0.2,",
                     "b,S,re,seed=1,,,Err: x"]) + "\n"
    new = "\n".join([head, "a,S,re,seed=1,5,0.1,", "a,S,re,seed=2,7,0.2,",
                     "b,S,re,seed=1,5,0.3,", "c,S,re,seed=1,5,0.4,"]) + "\n"
    assert _moved_rows(old, new, shown=2).splitlines() == [
        "3 of 4 rows differ; the first 2:",
        "  ('a', 'S', 're', 'seed=2'): sup_error 0.2 -> 0.2",
        "  ('b', 'S', 're', 'seed=1'): sup_error Err: x -> 0.3"]
    assert _moved_rows(old, new).splitlines()[-1] == (
        "  ('c', 'S', 're', 'seed=1'): sup_error absent -> 0.4")


def test_error_matrix_regenerates_byte_for_byte(tmp_path):
    """tools/error_matrix.py rewrites the committed ERROR_MATRIX.csv byte for
    byte, also when the caller runs two BLAS threads: the tool computes it
    in a subprocess pinned to one.  A change that moves a network fails here
    until the matrix is regenerated; the failure names the first rows that
    moved, and the file's diff shows them all."""
    out = tmp_path / "ERROR_MATRIX.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    subprocess.run([sys.executable, str(ROOT / "tools" / "error_matrix.py"), "--out", str(out)],
                   env=env, check=True, timeout=60)
    new, old = out.read_bytes(), (ROOT / "ERROR_MATRIX.csv").read_bytes()
    assert new == old, _moved_rows(old.decode(), new.decode())
