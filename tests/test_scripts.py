import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_outputs_finds_a_tree_equal_to_itself():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), src, src],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "identical: 54 commands\n"
