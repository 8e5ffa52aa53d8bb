"""Library invariants fail through InvariantError, under any interpreter flag."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# plancherel at n_max 4, first as shipped, then with the tableau count of
# (2, 1) off by one; prints one status per line.  The assert stops the
# script unless the interpreter strips assert statements.
_PLANCHEREL_TWICE = """
from ycalc import growth
from ycalc.partitions import Partition
from ycalc.verify import run_identity

assert False, "this line must be stripped"
print(run_identity("plancherel", n_max=4).status)
counts = growth.tableau_counts

def off_by_one(n_max):
    f = counts(n_max)
    f[Partition((2, 1))] += 1
    return f

growth.tableau_counts = off_by_one
print(run_identity("plancherel", n_max=4).status)
"""


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "ycalc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_plancherel_fails_on_a_wrong_count_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PLANCHEREL_TWICE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "failed"]
