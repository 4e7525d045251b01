import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_outputs_finds_a_tree_equal_to_itself():
    """Output bytes do not depend on the hash seed: each side runs in a fresh
    spawned interpreter with its own hash seed, so output that follows set or
    dict order shows as a difference."""
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), src, src],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "identical: 54 commands\n"
