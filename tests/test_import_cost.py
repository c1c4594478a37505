"""A serving process imports only what it serves.

``scipy.stats`` (~1 s, ~40 MiB), ``scipy.sparse.csgraph`` and
``scipy.sparse.linalg`` (~0.1 s and ~10 MiB each) each have one caller
in ``repro``, and no serve path reaches any of them, so each is
imported inside its caller.  A fresh interpreter checks that importing
the package, the CLI and the server leaves all three unloaded, then
that the three callers still import them on demand and return the
values they returned when the imports sat at module top.
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
    from repro.pagerank.linear import solve_linear_system
    from repro.pagerank.solver import uniform_teleport
    from repro.pagerank.transition import transition_matrix_transpose

    graph = graph_from_edges(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                 (4, 3), (5, 6), (6, 7)])
    transition_t, dangling = transition_matrix_transpose(graph)
    outcome = solve_linear_system(transition_t, uniform_teleport(8), dangling)
    print(json.dumps({
        "loaded": loaded,
        "kendall": kendall_distance(
            np.array([0.1, 0.4, 0.3, 0.9, 0.2, 0.4]),
            np.array([0.2, 0.1, 0.5, 0.8, 0.3, 0.4]),
        ),
        "scc": [c.tolist() for c in strongly_connected_components(graph)],
        "linear": outcome.scores.tolist(),
        "iterations": outcome.iterations,
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
    assert result["linear"] == [
        0.06651369847738924,
        0.08233921106123276,
        0.09579089675749967,
        0.31872389452080485,
        0.2967178776981359,
        0.025802567355451847,
        0.04773474960758591,
        0.06637710452189985,
    ]
    assert result["iterations"] == 15
