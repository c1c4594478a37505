"""A serving process imports only what it serves.

``scipy.stats`` (~1 s, ~40 MiB) and ``scipy.sparse.csgraph`` (~0.1 s,
~10 MiB) each have one caller in ``repro``, and no serve path reaches
either, so each is imported inside its caller.  ``scipy.sparse.linalg``
(~0.1 s, ~10 MiB) has no caller in ``repro`` at all; it stays on the
list so that a new top-level import of it shows up here.  A fresh
interpreter checks that importing the package, the CLI and the server
leaves all three unloaded, then that the two callers still import
theirs on demand and return the values they returned when the imports
sat at module top.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.stats", "scipy.sparse.csgraph", "scipy.sparse.linalg")

PROGRAM = textwrap.dedent(
    """
    import json
    import sys

    import repro, repro.cli, repro.serve.server

    loaded = [name for name in sys.argv[1:] if name in sys.modules]

    import numpy as np

    from repro.graph.builder import graph_from_edges
    from repro.graph.scc import strongly_connected_components
    from repro.metrics.kendall import kendall_distance

    graph = graph_from_edges(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                 (4, 3), (5, 6), (6, 7)])
    print(json.dumps({
        "loaded": loaded,
        "kendall": kendall_distance(
            np.array([0.1, 0.4, 0.3, 0.9, 0.2, 0.4]),
            np.array([0.2, 0.1, 0.5, 0.8, 0.3, 0.4]),
        ),
        "scc": [c.tolist() for c in strongly_connected_components(graph)],
    }))
    """
)


def test_serving_imports_leave_deferred_scipy_unloaded():
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, *DEFERRED],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    # The values below were recorded with the imports at module top.
    assert result["kendall"] == 0.2929803321972937
    assert result["scc"] == [[0, 1, 2], [3, 4], [5], [6], [7]]
