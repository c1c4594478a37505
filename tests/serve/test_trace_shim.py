"""The end-to-end benchmark's trace shim still finds what it wraps.

``benchmarks/e2e/traced_server.py`` replaces serving-layer callables
by name (``RankingService._refresh_entry_sync``,
``ApproxRankPreprocessor.rank``, ``router.http_request`` ...), so
renaming one of them away breaks ``run.py --trace 1``.  This runs the
shim's ``install()`` in a fresh interpreter, which only reads
``benchmarks/e2e``, so the tier-1 suite notices such a rename.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.serve

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def test_trace_shim_installs():
    code = (
        f"import sys; sys.path.insert(0, {str(E2E)!r}); "
        "import traced_server; traced_server.install()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
