"""Tier-2 gate: the semantic diversity benchmark in smoke mode.

Excluded from the tier-1 run by the ``tier2`` marker; CI runs it via
``make bench-semantic-smoke``.  Both clauses are never waived: the
identical query on a freshly rebuilt pipeline must reproduce the
answer bit-for-bit, and every family's measured L1 error must sit
under the certified bound of its ``push:r_max`` accuracy request.
"""

import pytest

from repro.semantic.bench import run_semantic_benchmark

pytestmark = [pytest.mark.semantic, pytest.mark.tier2]


@pytest.fixture(scope="module")
def smoke_record():
    return run_semantic_benchmark(smoke=True, output_path=None)


class TestSmokeGate:
    def test_gate_passes(self, smoke_record):
        assert smoke_record["gate_passed"], (
            "smoke gate failed: "
            f"determinism={smoke_record['determinism']}, "
            f"certificates_ok={smoke_record['certificates_ok']}"
        )

    def test_determinism_clause_holds(self, smoke_record):
        determinism = smoke_record["determinism"]
        assert determinism["ok"]
        assert determinism["answers_identical"]
        assert determinism["digests_identical"]
        assert determinism["scores_bit_identical"]
        assert len(determinism["query_digest"]) == 64

    def test_every_certificate_honoured(self, smoke_record):
        assert smoke_record["certificates_ok"]
        for family in smoke_record["families"]:
            push = family["push"]
            assert push["certificate_ok"], family
            assert push["error_l1"] <= push["error_bound"] + 1e-9
            assert push["error_bound"] <= push["r_max"]

    def test_nothing_is_waived(self, smoke_record):
        assert smoke_record["waivers"] == []

    def test_all_three_families_measured(self, smoke_record):
        names = {f["family"] for f in smoke_record["families"]}
        assert names == {"TS", "RS", "semantic"}

    def test_dedup_never_raises_redundancy(self, smoke_record):
        answer = smoke_record["semantic_answer"]
        assert (
            answer["redundancy_post_dedup"]
            <= answer["redundancy_pre_dedup"] + 1e-12
        )
