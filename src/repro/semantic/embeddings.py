"""Offline page embeddings: feature-hashed TF-IDF over lexicon terms.

Pages carry integer terms (:class:`~repro.search.lexicon
.SyntheticLexicon`); an embedding turns each page's term set into a
fixed-width vector so queries can select pages by *meaning* (shared
weighted vocabulary) rather than by link topology.  The construction
is the classic hashing trick:

* every term hashes to one of ``dim`` buckets with a ±1 sign
  (splitmix64 on ``term ⊕ h(seed)`` — deterministic, no Python
  ``hash()`` salting);
* the bucket receives the term's smoothed IDF weight
  ``log((1+N)/(1+df)) + 1`` (term sets are distinct per page, so TF
  is 1);
* rows are L2-normalized, making a dot product a cosine.

Everything stays numpy/scipy: the matrix is CSR, built once, and can
be persisted beside the graph npz (:meth:`PageEmbeddings.save`) and
memory-mapped back (:meth:`PageEmbeddings.load` with ``mmap=True``)
so a serving process never re-embeds.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np
from scipy import sparse

from repro.exceptions import DatasetError
from repro.search.lexicon import SyntheticLexicon

__all__ = ["PageEmbeddings"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_FORMAT_VERSION = 1


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer), vectorized."""
    x = values.astype(np.uint64, copy=True)
    x += _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash_terms(
    num_terms: int, dim: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, sign) of every vocabulary term under ``seed``."""
    terms = np.arange(num_terms, dtype=np.uint64)
    salt = _splitmix64(np.asarray([seed], dtype=np.uint64))[0]
    mixed = _splitmix64(terms ^ salt)
    buckets = (mixed % np.uint64(dim)).astype(np.int64)
    signs = np.where(
        (mixed >> np.uint64(63)).astype(bool), -1.0, 1.0
    )
    return buckets, signs


class PageEmbeddings:
    """L2-normalized sparse page vectors over a hashed term space.

    Build with :meth:`from_lexicon`; the constructor is the
    deserialization seam (it takes already-built arrays).

    Parameters
    ----------
    matrix:
        ``num_pages × dim`` CSR matrix of L2-normalized rows.
    idf:
        Smoothed inverse document frequency per vocabulary term
        (needed to embed queries consistently after a load).
    dim / seed / num_terms:
        The hashing configuration the matrix was built with.
    """

    def __init__(
        self,
        matrix: sparse.csr_matrix,
        idf: np.ndarray,
        dim: int,
        seed: int,
        num_terms: int,
    ):
        self._matrix = matrix
        self._idf = np.asarray(idf, dtype=np.float64)
        self.dim = int(dim)
        self.seed = int(seed)
        self.num_terms = int(num_terms)
        self._buckets, self._signs = _hash_terms(
            self.num_terms, self.dim, self.seed
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_lexicon(
        cls,
        lexicon: SyntheticLexicon,
        dim: int = 256,
        seed: int = 0,
    ) -> "PageEmbeddings":
        """Embed every page of ``lexicon`` (deterministic per seed)."""
        if dim < 1:
            raise DatasetError(f"dim must be >= 1, got {dim}")
        num_pages = lexicon.num_pages
        num_terms = lexicon.num_terms
        terms = lexicon.page_terms
        df = np.bincount(terms, minlength=num_terms).astype(np.float64)
        idf = np.log((1.0 + num_pages) / (1.0 + df)) + 1.0
        buckets, signs = _hash_terms(num_terms, dim, seed)
        rows = np.repeat(
            np.arange(num_pages, dtype=np.int64),
            np.diff(lexicon.page_offsets),
        )
        matrix = sparse.coo_matrix(
            (idf[terms] * signs[terms], (rows, buckets[terms])),
            shape=(num_pages, dim),
        ).tocsr()
        matrix.sum_duplicates()
        matrix.sort_indices()
        _normalize_rows(matrix)
        return cls(matrix, idf, dim, seed, num_terms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of embedded pages (rows)."""
        return int(self._matrix.shape[0])

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The ``num_pages × dim`` row-normalized CSR matrix."""
        return self._matrix

    # ------------------------------------------------------------------
    # Query / similarity operations
    # ------------------------------------------------------------------

    def embed_terms(self, terms: Iterable[int]) -> np.ndarray:
        """Dense L2-normalized query vector for a term multiset.

        Unknown terms (outside the vocabulary) raise
        :class:`DatasetError`; a query whose buckets cancel to zero
        yields the zero vector (callers treat it as matching
        nothing).
        """
        term_list = list(terms)
        try:
            term_array = np.unique(np.asarray(term_list, dtype=np.int64))
        except OverflowError:
            raise DatasetError(
                "query terms must lie in the vocabulary "
                f"[0, {self.num_terms}), got {term_list}"
            ) from None
        if term_array.size == 0:
            raise DatasetError("a query needs at least one term")
        if term_array.min() < 0 or term_array.max() >= self.num_terms:
            raise DatasetError(
                "query terms must lie in the vocabulary "
                f"[0, {self.num_terms}), got {term_array.tolist()}"
            )
        vector = np.zeros(self.dim, dtype=np.float64)
        np.add.at(
            vector,
            self._buckets[term_array],
            self._idf[term_array] * self._signs[term_array],
        )
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector /= norm
        return vector

    def similarities(
        self,
        query_vector: np.ndarray,
        pages: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cosine of the query against every page (or ``pages`` only).

        One vectorized sparse mat-vec; rows are pre-normalized, so
        the dot product *is* the cosine.
        """
        query = np.asarray(query_vector, dtype=np.float64)
        if query.shape != (self.dim,):
            raise DatasetError(
                f"query vector must have shape ({self.dim},), "
                f"got {query.shape}"
            )
        if pages is None:
            return np.asarray(self._matrix @ query, dtype=np.float64)
        rows = self._matrix[np.asarray(pages, dtype=np.int64)]
        return np.asarray(rows @ query, dtype=np.float64)

    def pairwise(self, pages: np.ndarray) -> np.ndarray:
        """Dense cosine matrix among ``pages`` (small answer sets)."""
        rows = self._matrix[np.asarray(pages, dtype=np.int64)]
        return np.asarray((rows @ rows.T).todense(), dtype=np.float64)

    # ------------------------------------------------------------------
    # Persistence (beside the graph npz)
    # ------------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist as an *uncompressed* npz (so ``mmap=True`` loads).

        Stores the CSR arrays plus the hashing configuration and the
        IDF table — everything needed to embed future queries
        identically.
        """
        np.savez(
            path,
            format_version=np.int64(_FORMAT_VERSION),
            data=self._matrix.data,
            indices=self._matrix.indices,
            indptr=self._matrix.indptr,
            shape=np.asarray(self._matrix.shape, dtype=np.int64),
            idf=self._idf,
            dim=np.int64(self.dim),
            seed=np.int64(self.seed),
            num_terms=np.int64(self.num_terms),
        )

    @classmethod
    def load(
        cls, path: str | os.PathLike, mmap: bool = False
    ) -> "PageEmbeddings":
        """Load a persisted embedding matrix.

        ``mmap=True`` maps the CSR arrays read-only straight from
        disk (the archive is written uncompressed for exactly this) —
        a serving process pays no copy for the page matrix.  Archives
        that cannot be mapped fall back to the copying load.
        """
        if mmap:
            from repro.graph.io import _mmap_npz_arrays

            arrays = _mmap_npz_arrays(path)
            if arrays is not None:
                return cls._from_arrays(arrays)
        with np.load(path) as archive:
            return cls._from_arrays(archive)

    @classmethod
    def _from_arrays(cls, arrays) -> "PageEmbeddings":
        version = int(np.asarray(arrays["format_version"]))
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"embeddings format v{version} is not supported "
                f"(expected v{_FORMAT_VERSION})"
            )
        shape = tuple(
            int(x) for x in np.asarray(arrays["shape"]).tolist()
        )
        matrix = sparse.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=shape,
        )
        return cls(
            matrix,
            np.asarray(arrays["idf"], dtype=np.float64),
            dim=int(np.asarray(arrays["dim"])),
            seed=int(np.asarray(arrays["seed"])),
            num_terms=int(np.asarray(arrays["num_terms"])),
        )


def _normalize_rows(matrix: sparse.csr_matrix) -> None:
    """L2-normalize CSR rows in place (zero rows stay zero)."""
    norms = np.sqrt(
        np.asarray(
            matrix.multiply(matrix).sum(axis=1)
        ).ravel()
    )
    scale = np.divide(
        1.0,
        norms,
        out=np.zeros_like(norms),
        where=norms > 0.0,
    )
    matrix.data *= np.repeat(scale, np.diff(matrix.indptr))
