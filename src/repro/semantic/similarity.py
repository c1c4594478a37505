"""Cosine top-M retrieval with inverted-index candidate pruning.

The retriever answers "which pages are most like this query" — the
selection stage of the semantic pipeline.  Scoring is one vectorized
sparse mat-vec over the whole :class:`~repro.semantic.embeddings
.PageEmbeddings` matrix, which the caller may compute once and share
with the neighborhood crawl; when a lexicon is attached, its inverted
index restricts the answers to pages sharing at least one query term
(signed feature hashing makes collision-only similarity pure noise,
so pruning de-noises the tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import DatasetError
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.embeddings import PageEmbeddings

__all__ = ["Retrieval", "SemanticRetriever"]


@dataclass(frozen=True)
class Retrieval:
    """Result of one top-M retrieval.

    Attributes
    ----------
    pages:
        Retrieved page ids, best first (ties broken by lower id).
    similarities:
        Cosine of each retrieved page against the query, aligned
        with ``pages``.
    candidates:
        How many pages competed for the Top-M (those sharing a query
        term when pruning, else every page).
    pruned:
        How many pages the inverted index ruled out
        (``num_pages - candidates``; 0 without pruning).
    """

    pages: np.ndarray
    similarities: np.ndarray
    candidates: int
    pruned: int


class SemanticRetriever:
    """Query→pages retrieval over an embedded corpus.

    Parameters
    ----------
    embeddings:
        The page vectors to score against.
    lexicon:
        Optional term index of the same pages; enables candidate
        pruning (pages sharing no query term are never retrieved).
    """

    def __init__(
        self,
        embeddings: PageEmbeddings,
        lexicon: SyntheticLexicon | None = None,
    ):
        if (
            lexicon is not None
            and lexicon.num_pages != embeddings.num_pages
        ):
            raise DatasetError(
                "lexicon and embeddings disagree on corpus size: "
                f"{lexicon.num_pages} vs {embeddings.num_pages} pages"
            )
        self._embeddings = embeddings
        self._lexicon = lexicon

    @property
    def embeddings(self) -> PageEmbeddings:
        """The underlying page vectors."""
        return self._embeddings

    def retrieve(
        self,
        terms: Iterable[int],
        m: int = 20,
        min_similarity: float = 0.0,
        prune: bool | None = None,
        similarities: np.ndarray | None = None,
    ) -> Retrieval:
        """The ``m`` pages most similar to the query, best first.

        Parameters
        ----------
        terms:
            Query term ids.
        m:
            Maximum pages to return.
        min_similarity:
            Pages below this cosine never appear (strictly positive
            similarity is always required — a page orthogonal to the
            query is not an answer).
        prune:
            Force the inverted-index candidate pruning on/off;
            ``None`` (default) prunes whenever a lexicon is
            attached.
        similarities:
            The query's cosine against *every* page
            (``embeddings.similarities(embeddings.embed_terms(terms))``),
            when the caller already holds it; computed here when
            omitted.  Candidates read their cosines from it, which is
            bit-identical to scoring their rows alone (a row slice
            keeps each row's summation order).

        Returns a :class:`Retrieval`; ordering is deterministic
        (descending similarity, then ascending page id).
        """
        if m < 1:
            raise DatasetError(f"m must be >= 1, got {m}")
        term_list = [int(t) for t in terms]
        use_index = (
            self._lexicon is not None if prune is None else bool(prune)
        )
        if use_index and self._lexicon is None:
            raise DatasetError(
                "candidate pruning needs a lexicon, none was attached"
            )
        num_pages = self._embeddings.num_pages
        if similarities is None:
            similarities = self._embeddings.similarities(
                self._embeddings.embed_terms(term_list)
            )
        elif similarities.shape != (num_pages,):
            raise DatasetError(
                "similarities must cover every page, expected shape "
                f"({num_pages},), got {similarities.shape}"
            )
        if use_index:
            candidates = self._lexicon.pages_matching(
                term_list, mode="any"
            )
            sims = similarities[candidates]
        else:
            candidates = np.arange(num_pages, dtype=np.int64)
            sims = similarities
        floor = max(float(min_similarity), 0.0)
        keep = sims > floor if floor == 0.0 else sims >= floor
        pages, sims = candidates[keep], sims[keep]
        order = np.lexsort((pages, -sims))[:m]
        return Retrieval(
            pages=pages[order],
            similarities=sims[order],
            candidates=int(candidates.size),
            pruned=int(num_pages - candidates.size),
        )
