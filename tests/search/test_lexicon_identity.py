"""Byte-identity pins for the lexicon and the embeddings built from it.

The term assignment is a fixed sequence of RNG calls, page by page;
anything else about how the lexicon is assembled may change, but not
its output.  The end-to-end benchmark builds its requests from
``popular_terms`` and ``document_frequency``, so a drift here would
change the traffic it sends.  Each configuration pins sha256 digests
of three things:

* every page's terms, in page order;
* the postings, in the dict's insertion order (terms in the order
  they first appear, page by page);
* the :class:`PageEmbeddings` CSR arrays and IDF vector.

The digests were recorded from the per-page implementation the
whole-array build replaced.  The 9,000-page configurations cross the
build's page-chunk boundaries; ``default`` is the 50,000-page lexicon
a server builds for the benchmark graph (only the page count matters
with the default arguments).
"""

import hashlib

import numpy as np
import pytest

from repro.graph.builder import graph_from_edges
from repro.search.lexicon import _CHUNK_PAGES, SyntheticLexicon
from repro.semantic.embeddings import PageEmbeddings

PAGES = 9_000
GROUPS = np.random.default_rng(17).integers(0, 13, PAGES)

#: name -> (pages, lexicon kwargs, embedding kwargs, digests)
CONFIGS = {
    "default": (
        50_000,
        {},
        {},
        (
            "7a42eb2c8b48e32cb92a4f047ecc9581e5adc7f8eed0dac2253ad42169f69882",
            "370a42d0e09db50218dce709c8f17ea5220f2d4ba96da64f49bdbad9a929e79a",
            "9a752c844871f9e6b67863f0f7fd77e59490a36540dfa9fd43845727a9bc954f",
        ),
    ),
    "groups": (
        PAGES,
        dict(group_of=GROUPS, num_terms=300, seed=3),
        dict(dim=64, seed=11),
        (
            "cffbf1c29496c8e402ad867e21a39dc4475ffbb337b694c741da0e322efd24f2",
            "d702be335c235bb46d7f1fdfc237171e8078b304143c5352c6ae03bcdf5d54e8",
            "9030e2170ec107e6405c932291fcc42875a0a7428d2f8fbdaf4c252afd728b73",
        ),
    ),
    "coherence0": (
        PAGES,
        dict(group_of=GROUPS, num_terms=300, coherence=0.0, seed=4),
        dict(dim=64, seed=11),
        (
            "249ca1fcb8002a8624abe8b7e208ec288443be86f7621af6f36c6c9b1d082866",
            "3b1ef3371f4f6430f9fce2ab8a1762c89443d71305c9514cd4dab7fe618359c8",
            "5ae39b064f197f3de094bff26e8057bdbe8cfb1b4b3998bdaf968ac0ad30f202",
        ),
    ),
    "coherence1": (
        PAGES,
        dict(group_of=GROUPS, num_terms=300, coherence=1.0, seed=5),
        dict(dim=64, seed=11),
        (
            "31e8a390f54b2b074e6371304440dcc0340d3b6cf22d9360a482eb85518e3198",
            "6fb0defad439f94087d4538e37a6a5e71c0e3ee65488b5a9aa3f0136ece2ed27",
            "0955f1c20a6648dea446463e77d130812603f3e6e1368e801a2e92b712463968",
        ),
    ),
    "one_term": (
        PAGES,
        dict(num_terms=1, seed=6),
        dict(dim=8, seed=2),
        (
            "697599fba2a357395b0b6b98ecda8ae9f7d57a9415ad41a5eabdaece0f24ab47",
            "7b0aa7e643d09bb7f51cfb39610d59ac55991a23eeffd52b8023af46dc06cba2",
            "f5e0506dd2c799972e803dec91d32afd8421cf6dc4e96bc1561053d792fa7c0f",
        ),
    ),
    # Mean 0.3 terms per page (most pages get the minimum of one) and
    # more groups than terms, so every group slice is one term wide.
    "sparse_pages": (
        PAGES,
        dict(group_of=GROUPS, num_terms=2, terms_per_page=0.3, seed=7),
        dict(dim=16, seed=3),
        (
            "8574094ffdcd2a6e51f90921104b9e4cfc8b2e68025a99ec20a29591b0ff0d98",
            "d546512c203f28ef51b5c39ba66d820fa4330da22f4f160a9999a581894aec6b",
            "a379732068219ca719c6c037d29d7a9e9ddb421751764a874ca7f269568a228e",
        ),
    ),
}


def _update(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _digests(lexicon: SyntheticLexicon, embeddings: PageEmbeddings):
    terms = hashlib.sha256()
    for page in range(lexicon.num_pages):
        _update(terms, lexicon.terms_of(page))
    postings = hashlib.sha256()
    for term, pages in lexicon._postings.items():
        postings.update(f"{term}:".encode())
        _update(postings, pages)
    matrix = hashlib.sha256()
    for array in (
        embeddings.matrix.data,
        embeddings.matrix.indices,
        embeddings.matrix.indptr,
        embeddings._idf,
    ):
        _update(matrix, array)
    return terms.hexdigest(), postings.hexdigest(), matrix.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lexicon_and_embeddings_are_byte_identical(name):
    pages, lexicon_kwargs, embedding_kwargs, expected = CONFIGS[name]
    lexicon = SyntheticLexicon(graph_from_edges(pages, []), **lexicon_kwargs)
    embeddings = PageEmbeddings.from_lexicon(lexicon, **embedding_kwargs)
    assert _digests(lexicon, embeddings) == expected


def test_csr_view_matches_per_page_terms():
    lexicon = SyntheticLexicon(
        graph_from_edges(PAGES, []), group_of=GROUPS, num_terms=300, seed=3
    )
    offsets, terms = lexicon.page_offsets, lexicon.page_terms
    assert offsets.shape == (PAGES + 1,) and offsets[0] == 0
    assert offsets[-1] == terms.size
    for page in (0, _CHUNK_PAGES - 1, _CHUNK_PAGES, PAGES - 1):
        assert np.array_equal(
            terms[offsets[page] : offsets[page + 1]], lexicon.terms_of(page)
        )
    frequency = np.bincount(terms, minlength=lexicon.num_terms)
    for term in range(lexicon.num_terms):
        assert lexicon.document_frequency(term) == frequency[term]


def _reference_lexicon(
    num_pages, group_of, num_terms, terms_per_page, coherence, seed
):
    """The per-page loop the whole-array build replaced (Zipf 1.1)."""
    rng = np.random.default_rng(seed)
    global_cdf = np.cumsum(np.arange(1, num_terms + 1.0) ** -1.1)
    global_cdf /= global_cdf[-1]
    num_groups = int(group_of.max()) + 1
    slice_size = max(num_terms // num_groups, 1)
    group_start = (
        rng.integers(0, max(num_terms - slice_size, 1), num_groups)
        if num_terms > slice_size
        else np.zeros(num_groups, dtype=np.int64)
    )
    page_terms, postings = [], {}
    counts = np.maximum(rng.poisson(terms_per_page, num_pages), 1)
    for page in range(num_pages):
        count = int(counts[page])
        use_group = rng.random(count) < coherence
        terms = np.empty(count, dtype=np.int64)
        n_global = int((~use_group).sum())
        if n_global:
            terms[~use_group] = np.searchsorted(
                global_cdf, rng.random(n_global)
            )
        if count - n_global:
            terms[use_group] = group_start[group_of[page]] + rng.integers(
                0, slice_size, count - n_global
            )
        terms = np.unique(np.clip(terms, 0, num_terms - 1))
        page_terms.append(terms)
        for term in terms:
            postings.setdefault(int(term), []).append(page)
    return page_terms, {
        term: np.asarray(pages, dtype=np.int64)
        for term, pages in postings.items()
    }


@pytest.mark.parametrize("seed", range(4))
def test_matches_the_per_page_loop(seed):
    rng = np.random.default_rng(100 + seed)
    num_pages = int(rng.integers(_CHUNK_PAGES + 1, _CHUNK_PAGES + 600))
    group_of = rng.integers(0, int(rng.integers(1, 40)), num_pages)
    kwargs = dict(
        num_terms=int(rng.integers(1, 500)),
        terms_per_page=float(rng.uniform(0.2, 12.0)),
        coherence=float(rng.choice([0.0, rng.uniform(), 1.0])),
        seed=seed,
    )
    lexicon = SyntheticLexicon(
        graph_from_edges(num_pages, []), group_of=group_of, **kwargs
    )
    page_terms, postings = _reference_lexicon(num_pages, group_of, **kwargs)
    for page, terms in enumerate(page_terms):
        assert np.array_equal(lexicon.terms_of(page), terms)
    assert list(lexicon._postings) == list(postings)
    for term, pages in postings.items():
        assert np.array_equal(lexicon.pages_with_term(term), pages)
