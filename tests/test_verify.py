import pytest

import excount.verify as verify
from excount.oracle import EnumerationBudgetError
from excount.verify import (
    CheckResult,
    check_counter_cross_validation,
    check_transformation_soundness,
    check_tree_star_partition,
    run_verify_suite,
)


def test_randomized_verdicts_are_seed_invariant():
    for check in (
        check_transformation_soundness,
        check_tree_star_partition,
        check_counter_cross_validation,
    ):
        assert check("quick", 7).passed == check("quick", 42).passed


def test_budget_overrun_is_skipped_not_failed(monkeypatch):
    def starved(scale, seed):
        raise EnumerationBudgetError(10**12, 10**8)

    def fine(scale, seed):
        return CheckResult("fine", True, "ok")

    monkeypatch.setattr(verify, "CHECKS", (("1", starved), ("2", fine)))
    report = run_verify_suite("quick", 42)
    assert report.all_passed
    assert report.results[0].skipped and "skipped" in report.results[0].detail
    assert not report.results[1].skipped


def test_rejects_unknown_scale():
    with pytest.raises(ValueError):
        run_verify_suite("medium")


def test_report_records_scale_and_seed(monkeypatch):
    monkeypatch.setattr(
        verify, "CHECKS", (("1", lambda s, r: CheckResult("stub", True, "ok")),)
    )
    report = run_verify_suite("quick", 99)
    assert (report.scale, report.seed) == ("quick", 99)


def test_result_shows_five_failures_and_counts_the_rest():
    failures = [f"case {i}" for i in range(7)]
    result = verify._result("stub", failures)
    assert not result.passed
    assert result.detail == "case 0; case 1; case 2; case 3; case 4 (+2 more)"
