"""The repository's pytest configuration turns warnings into errors; a
failing hypothesis property test must still be reported as one failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


def test_passes():
    assert True


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_property_test_is_reported_not_aborted(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
