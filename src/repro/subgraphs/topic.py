"""TS subgraphs: topic category pages plus a focused crawl (§V-C).

The paper forms a TS subgraph from the pages of a dmoz category "as
well as by crawling to all pages within three links".  On the real Web
such a crawl stays topical because linking is strongly topic-local; on
a synthetic graph an unrestricted 3-hop expansion from hundreds of
seeds would swallow most of the graph (out-degree ≈ 4 cubed).  We
therefore model the crawler the paper's introduction motivates — a
*focused* crawler that keeps expanding only from on-topic pages:

* every page of the topic is a seed (the dmoz category);
* the crawl follows out-links up to ``max_depth`` hops;
* off-topic pages reached by a link are *included* in the subgraph (a
  crawler fetches them before it can classify them) but not expanded
  further.

The result is the topic cluster plus its one-link fringe reached
through topical paths — the same relative size band (≈0.3–1.4 % of the
global graph) as the paper's TS subgraphs, with a realistic boundary.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.exceptions import SubgraphError
from repro.generators.datasets import WebDataset
from repro.graph.digraph import CSRGraph
from repro.graph.traversal import _bfs_levels


def focused_crawl(
    graph: CSRGraph,
    seed_pages: np.ndarray,
    expandable: np.ndarray,
    max_depth: int = 3,
) -> np.ndarray:
    """Depth-limited crawl that only expands from ``expandable`` pages.

    Parameters
    ----------
    graph:
        The global graph.
    seed_pages:
        Starting page ids (all included in the result).
    expandable:
        Boolean mask over all pages; a fetched page's out-links are
        followed only when its entry is True (the focused crawler's
        relevance classifier).
    max_depth:
        Maximum link distance from a seed.

    Returns
    -------
    Sorted array of crawled page ids.
    """
    if max_depth < 0:
        raise SubgraphError(f"max_depth must be >= 0, got {max_depth}")
    seed_pages = np.asarray(seed_pages, dtype=np.int64)
    if seed_pages.size == 0:
        raise SubgraphError("focused crawl needs at least one seed page")
    expandable = np.asarray(expandable, dtype=bool)
    if expandable.shape != (graph.num_nodes,):
        raise SubgraphError(
            "expandable mask must cover every page, got shape "
            f"{expandable.shape} for {graph.num_nodes} pages"
        )
    if seed_pages.min() < 0 or seed_pages.max() >= graph.num_nodes:
        raise SubgraphError(
            f"seed page ids must lie in 0..{graph.num_nodes - 1}"
        )
    levels = _bfs_levels(graph.adjacency, np.unique(seed_pages), expandable)
    crawled = np.concatenate(list(islice(levels, max_depth + 1)))
    return np.sort(crawled).astype(np.int64)


def topic_subgraph(
    dataset: WebDataset,
    topic_name: str,
    max_depth: int = 3,
) -> np.ndarray:
    """TS subgraph: the topic's pages plus a 3-link focused crawl.

    Parameters
    ----------
    dataset:
        A dataset with a ``"topic"`` label dimension (e.g. the
        politics-like dataset).
    topic_name:
        One of ``dataset.label_names["topic"]``.
    max_depth:
        Crawl radius (the paper uses three links).

    Returns
    -------
    Sorted array of global page ids.
    """
    seeds = dataset.pages_with_label("topic", topic_name)
    if seeds.size == 0:
        raise SubgraphError(f"topic {topic_name!r} has no pages")
    topic_index = dataset.label_index("topic", topic_name)
    expandable = dataset.labels["topic"] == topic_index
    return focused_crawl(
        dataset.graph, seeds, expandable, max_depth=max_depth
    )
