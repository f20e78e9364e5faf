"""The test configuration itself: a failing property test must report as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_reports_one_failure_without_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(textwrap.dedent('''
        import warnings

        import pytest
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_other_deprecation_warnings_stay_errors():
            with pytest.raises(DeprecationWarning):
                warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    '''))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
