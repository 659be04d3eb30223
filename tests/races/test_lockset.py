"""Eraser-style lockset lint over the analysis mini-IR."""

import pytest

from repro.analysis.corpus import (
    guarded_counter_module,
    heap_imprecision_module,
    nginx_module,
    paper_corpus,
    racy_counter_module,
    spinlock_module,
    volatile_flag_module,
)
from repro.races.lockset import lint_corpus, lint_module


class TestDemoModules:
    def test_listing1_spinlock_clean(self):
        lint = lint_module(spinlock_module())
        assert lint.clean
        assert lint.lock_objects  # the spinlock itself was recognised

    def test_listing2_volatile_flag_flagged(self):
        lint = lint_module(volatile_flag_module())
        assert not lint.clean
        candidate = lint.candidate_for("flag")
        assert candidate is not None
        assert len(candidate.functions()) == 2
        assert candidate.writes >= 1
        for access in candidate.accesses:
            assert access.lockset == frozenset()

    def test_listing2_clean_with_volatile_as_sync(self):
        lint = lint_module(volatile_flag_module(),
                           treat_volatile_as_sync=True)
        assert lint.clean

    def test_racy_counter_flagged(self):
        lint = lint_module(racy_counter_module())
        assert not lint.clean
        candidate = lint.candidate_for("counter")
        assert candidate is not None
        assert "racy.peek_counter.load" in candidate.sites()
        assert "racy.bump_counter.store" in candidate.sites()

    def test_guarded_counter_clean(self):
        """Same shape as racy_counter but lock-guarded — no candidate."""
        lint = lint_module(guarded_counter_module())
        assert lint.clean
        assert lint.accesses_recorded == 2  # data accesses still seen

    def test_nginx_module_clean(self):
        """nginx's custom primitives guard their data consistently —
        the *static* lint can't see the Listing-2-style coverage gap
        (that's the dynamic detector's job)."""
        assert lint_module(nginx_module()).clean


class TestAnalysisChoice:
    def test_both_analyses_accepted(self):
        for analysis in ("andersen", "steensgaard"):
            lint = lint_module(racy_counter_module(), analysis=analysis)
            assert not lint.clean

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            lint_module(racy_counter_module(), analysis="magic")


class TestCorpus:
    def test_paper_corpus_lints_clean(self):
        """The corpus models well-synchronised libraries; flagging them
        would be a lint false positive."""
        for lint in lint_corpus(paper_corpus()):
            assert lint.clean, lint.summary()

    def test_heap_imprecision_clean_under_both(self):
        for analysis in ("andersen", "steensgaard"):
            assert lint_module(heap_imprecision_module(),
                               analysis=analysis).clean


class TestReportShape:
    def test_summary_mentions_candidates(self):
        lint = lint_module(racy_counter_module())
        assert "1 candidate" in lint.summary()
        assert lint.candidate_sites() == {"racy.peek_counter.load",
                                          "racy.bump_counter.store"}

    def test_source_lines_resolved(self):
        candidate = lint_module(racy_counter_module()) \
            .candidate_for("counter")
        lines = candidate.source_lines()
        assert lines
        for filename, lineno in lines:
            assert isinstance(filename, str) and isinstance(lineno, int)

    def test_clean_summary(self):
        assert "clean" in lint_module(guarded_counter_module()).summary()
