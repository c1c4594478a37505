"""Strongly connected components (§II-A's irreducibility premise).

"According to the Ergodic Theorem for Markov chains, if the graph is
aperiodic and irreducible, i.e., the Web graph is strongly connected,
then a unique steady state distribution exists."  Damping makes the
walk irreducible regardless, but the *undamped* connectivity structure
still matters — it drives mixing speed and the bow-tie shape of real
crawls — so the substrate exposes it.

Components come from :func:`scipy.sparse.csgraph.connected_components`
(strong for SCCs here, weak for
:func:`repro.graph.traversal.weakly_connected_components`); one
grouping step turns its labels into member arrays.  The tests
cross-check both against networkx.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import CSRGraph


def _components(graph: CSRGraph, connection: str) -> list[np.ndarray]:
    """Sorted member arrays of every component, largest first.

    Ties are broken by smallest member.  ``connection`` is ``"strong"``
    or ``"weak"``.
    """
    if graph.num_nodes == 0:
        return []
    # Imported here: scipy.sparse.csgraph costs every importer of
    # repro.graph ~0.1 s and ~11 MiB, and only this function uses it.
    from scipy.sparse import csgraph

    count, labels = csgraph.connected_components(
        graph.adjacency, connection=connection
    )
    members = np.argsort(labels, kind="stable").astype(np.int64)
    sizes = np.bincount(labels, minlength=count)
    ends = np.cumsum(sizes)
    groups = np.split(members, ends[:-1])
    firsts = members[ends - sizes]
    return [groups[i] for i in np.lexsort((firsts, -sizes))]


def strongly_connected_components(graph: CSRGraph) -> list[np.ndarray]:
    """All SCCs of the graph, largest first.

    Returns
    -------
    list of sorted node-id arrays; every node appears in exactly one
    component (singletons included).
    """
    return _components(graph, "strong")


def largest_scc_fraction(graph: CSRGraph) -> float:
    """Fraction of nodes in the largest SCC.

    Real web crawls have a giant SCC covering a substantial fraction of
    pages (the bow-tie core); the generator tests assert the synthetic
    graphs share this property.
    """
    if graph.num_nodes == 0:
        return 0.0
    components = strongly_connected_components(graph)
    return components[0].size / graph.num_nodes


def is_strongly_connected(graph: CSRGraph) -> bool:
    """Whether the whole graph is one SCC (§II-A's idealised premise)."""
    if graph.num_nodes == 0:
        return True
    return strongly_connected_components(graph)[0].size == (
        graph.num_nodes
    )
