"""Synthetic term assignment for web pages.

Real pages carry terms; synthetic pages need them assigned.  The model
here captures the two properties query evaluation depends on:

* **Zipfian term popularity** — a few terms match many pages, most
  match few (so Top-K pruning matters);
* **group coherence** — pages of the same group (domain/topic) share
  vocabulary more than random pages do, controlled by ``coherence``.

Terms are integers ``0..num_terms-1`` (callers can map them to strings
if they like); assignment is a deterministic function of the seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.graph.digraph import CSRGraph

#: Pages assembled per pass.  Bounding the temporaries (a few hundred
#: KiB) keeps the build from leaving heap growth behind: arrays sized
#: to the whole corpus raise glibc's dynamic mmap threshold, and their
#: successors then stay resident after they are freed.
_CHUNK_PAGES = 4096


def _assign_chunk(
    rng: np.random.Generator,
    counts: np.ndarray,
    starts: np.ndarray,
    global_cdf: np.ndarray,
    slice_size: int,
    coherence: float,
    num_terms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Terms of consecutive pages: the flat array and per-page lengths.

    Page ``i`` draws ``counts[i]`` terms; its group's slice of the
    vocabulary begins at ``starts[i]``.  The RNG calls run page by
    page in a fixed order — the coherence coins, the global draws,
    then the group draws — so every page gets the same terms whatever
    the chunking; the rest is whole-array work.  Each page's terms
    come back sorted and distinct.
    """
    total = int(counts.sum())
    coins = np.empty(total)
    global_draws = np.empty(total)
    group_draws: list[np.ndarray] = []
    random, integers = rng.random, rng.integers
    position = used = 0
    for count in counts.tolist():
        coin = random(out=coins[position : position + count])
        n_group = np.count_nonzero(coin < coherence)
        n_global = count - n_group
        if n_global:
            random(out=global_draws[used : used + n_global])
            used += n_global
        if n_group:
            group_draws.append(integers(0, slice_size, n_group))
        position += count

    use_group = coins < coherence
    page = np.repeat(np.arange(counts.size), counts)
    terms = np.empty(total, dtype=np.int64)
    terms[~use_group] = np.searchsorted(global_cdf, global_draws[:used])
    if group_draws:
        terms[use_group] = starts[page[use_group]] + np.concatenate(
            group_draws
        )
    np.clip(terms, 0, num_terms - 1, out=terms)
    # Per-page np.unique: sort by (page, term) and drop repeats.
    order = np.lexsort((terms, page))
    terms, page = terms[order], page[order]
    keep = np.ones(total, dtype=bool)
    keep[1:] = (terms[1:] != terms[:-1]) | (page[1:] != page[:-1])
    return terms[keep], np.bincount(page[keep], minlength=counts.size)


class SyntheticLexicon:
    """Deterministic page-term assignment with an inverted index.

    Parameters
    ----------
    graph:
        The graph whose pages receive terms.
    group_of:
        Optional group index per page (domains/topics); groups share
        vocabulary.  ``None`` treats all pages as one group.
    num_terms:
        Vocabulary size.
    terms_per_page:
        Mean number of distinct terms per page (Poisson, min 1).
    coherence:
        Probability a page's term is drawn from its group's preferred
        sub-vocabulary rather than the global Zipf distribution.
    zipf_exponent:
        Popularity skew of the global term distribution.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        graph: CSRGraph,
        group_of: np.ndarray | None = None,
        num_terms: int = 1000,
        terms_per_page: float = 8.0,
        coherence: float = 0.5,
        zipf_exponent: float = 1.1,
        seed: int = 0,
    ):
        if num_terms < 1:
            raise DatasetError(f"num_terms must be >= 1, got {num_terms}")
        if terms_per_page <= 0:
            raise DatasetError(
                f"terms_per_page must be positive, got {terms_per_page}"
            )
        if not 0.0 <= coherence <= 1.0:
            raise DatasetError(
                f"coherence must lie in [0, 1], got {coherence}"
            )
        if zipf_exponent <= 0:
            raise DatasetError(
                f"zipf_exponent must be positive, got {zipf_exponent}"
            )
        self.num_terms = int(num_terms)
        num_pages = graph.num_nodes
        if num_pages < 1:
            # group_of.max() on an empty graph would raise a raw
            # numpy ValueError; fail with the typed error instead.
            raise DatasetError(
                "cannot assign terms on an empty graph (0 pages)"
            )
        if group_of is None:
            group_of = np.zeros(num_pages, dtype=np.int64)
        else:
            group_of = np.asarray(group_of, dtype=np.int64)
            if group_of.shape != (num_pages,):
                raise DatasetError(
                    "group_of must label every page, expected shape "
                    f"({num_pages},), got {group_of.shape}"
                )
        rng = np.random.default_rng(seed)

        # Global Zipf weights over terms.
        ranks = np.arange(1, num_terms + 1, dtype=np.float64)
        global_weights = ranks ** (-zipf_exponent)
        global_cdf = np.cumsum(global_weights)
        global_cdf /= global_cdf[-1]

        # Each group prefers a contiguous slice of the vocabulary.
        num_groups = int(group_of.max()) + 1
        slice_size = max(num_terms // max(num_groups, 1), 1)
        group_start = (
            rng.integers(0, max(num_terms - slice_size, 1), num_groups)
            if num_terms > slice_size
            else np.zeros(num_groups, dtype=np.int64)
        )

        counts = np.maximum(rng.poisson(terms_per_page, num_pages), 1)
        indptr = np.zeros(num_pages + 1, dtype=np.int64)
        chunks: list[np.ndarray] = []
        for lo in range(0, num_pages, _CHUNK_PAGES):
            hi = min(lo + _CHUNK_PAGES, num_pages)
            terms, lengths = _assign_chunk(
                rng,
                counts[lo:hi],
                group_start[group_of[lo:hi]],
                global_cdf,
                slice_size,
                coherence,
                num_terms,
            )
            chunks.append(terms)
            indptr[lo + 1 : hi + 1] = lengths
        np.cumsum(indptr, out=indptr)
        self._indptr = indptr
        self._terms = np.concatenate(chunks)
        del chunks

        # Postings: page ids grouped by term, ascending within a term
        # (a stable sort of the page-ordered flat array), keyed in the
        # order terms first appear page by page.
        order = np.argsort(self._terms, kind="stable")
        pages = np.searchsorted(indptr, order, side="right")
        del order
        pages -= 1
        frequency = np.bincount(self._terms, minlength=num_terms)
        present = np.flatnonzero(frequency)
        ends = np.cumsum(frequency[present])
        starts = ends - frequency[present]
        first = np.lexsort((present, pages[starts]))
        self._postings = {
            term: pages[lo:hi]
            for term, lo, hi in zip(
                present[first].tolist(),
                starts[first].tolist(),
                ends[first].tolist(),
            )
        }

    @property
    def num_pages(self) -> int:
        """Number of pages terms were assigned to."""
        return self._indptr.size - 1

    @property
    def page_terms(self) -> np.ndarray:
        """Every page's sorted distinct terms, concatenated in page
        order (the CSR ``indices`` of the page × term matrix)."""
        return self._terms

    @property
    def page_offsets(self) -> np.ndarray:
        """Page ``p``'s terms are ``page_terms[page_offsets[p]:
        page_offsets[p + 1]]`` (the CSR ``indptr``)."""
        return self._indptr

    def terms_of(self, page: int) -> np.ndarray:
        """Sorted distinct terms of one page."""
        if not 0 <= page < self.num_pages:
            raise DatasetError(f"unknown page {page}")
        return self._terms[self._indptr[page] : self._indptr[page + 1]]

    def pages_with_term(self, term: int) -> np.ndarray:
        """Sorted ids of pages containing ``term`` (possibly empty)."""
        if not 0 <= term < self.num_terms:
            raise DatasetError(
                f"term {term} outside vocabulary of {self.num_terms}"
            )
        return self._postings.get(int(term), np.empty(0, dtype=np.int64))

    def query_postings(self, terms, mode: str = "all") -> list[np.ndarray]:
        """The posting list of every term of a validated query.

        Raises :class:`DatasetError` for an empty query, a mode other
        than ``"all"``/``"any"``, or a term outside the vocabulary.
        """
        term_list = list(terms)
        if not term_list:
            raise DatasetError("a query needs at least one term")
        if mode not in ("all", "any"):
            raise DatasetError(f"mode must be 'all' or 'any', got {mode!r}")
        return [self.pages_with_term(t) for t in term_list]

    def pages_matching(
        self, terms, mode: str = "all"
    ) -> np.ndarray:
        """Pages matching a multi-term query, over the whole corpus.

        Parameters
        ----------
        terms:
            Query terms.
        mode:
            ``"all"`` (conjunctive, default) or ``"any"``
            (disjunctive).
        """
        posting_lists = self.query_postings(terms, mode)
        if mode == "all":
            result = posting_lists[0]
            for postings in posting_lists[1:]:
                result = np.intersect1d(result, postings)
            return result
        # A page mask is linear in the postings and gives the same
        # sorted union as np.unique over their concatenation, cheaper.
        matched = np.zeros(self.num_pages, dtype=bool)
        for postings in posting_lists:
            matched[postings] = True
        return np.flatnonzero(matched)

    def document_frequency(self, term: int) -> int:
        """Number of pages containing ``term``."""
        return int(self.pages_with_term(term).size)

    def popular_terms(self, count: int) -> np.ndarray:
        """The ``count`` terms with the highest document frequency."""
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        frequencies = [
            (term, postings.size)
            for term, postings in self._postings.items()
        ]
        frequencies.sort(key=lambda item: (-item[1], item[0]))
        return np.asarray(
            [term for term, __ in frequencies[:count]], dtype=np.int64
        )
