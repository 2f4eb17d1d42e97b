"""Median/min/max/n reporting, percentiles and failed-rep accounting."""

import pytest

from ladder.stats import RepLog, nearest_rank, summarize


def test_summarize_reports_median_min_max_n():
    assert summarize([3.0, 1.0, 2.0, 10.0]) == {
        "median": 2.5, "min": 1.0, "max": 10.0, "n": 4,
    }
    assert summarize([7.0]) == {"median": 7.0, "min": 7.0, "max": 7.0, "n": 1}


def test_summarize_rejects_empty_sample():
    with pytest.raises(ValueError):
        summarize([])


def test_nearest_rank_is_a_sample_value():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.95) == 95
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([4.0, 8.0], 0.95) == 8.0
    assert nearest_rank([5.0], 0.5) == 5.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def _ok(checksum="aa", problems=()):
    return lambda: {"checksum": checksum, "problems": list(problems)}


def test_clean_reps_count_as_attempted_not_failed():
    log = RepLog()
    assert log.run("rep 0", _ok())["checksum"] == "aa"
    assert (log.attempted, log.failed, log.failed_share) == (1, 0, 0.0)


def test_a_raising_rep_raises_the_failed_share():
    log = RepLog()
    log.run("rep 0", _ok())

    def boom():
        raise RuntimeError("device on fire")

    assert log.run("rep 1", boom) is None
    assert (log.attempted, log.failed) == (2, 1)
    assert log.failed_share == 0.5
    assert "RuntimeError: device on fire" in log.failures[0]


def test_a_broken_identity_raises_the_failed_share():
    log = RepLog()
    assert log.run("rep 0", _ok(problems=["steps 1 != D*R*T 2"])) is None
    assert log.failed_share == 1.0
    assert log.failures == ["rep 0: steps 1 != D*R*T 2"]


def test_a_checksum_mismatch_raises_the_failed_share():
    log = RepLog()
    warmup = log.run("warm-up", _ok("aa"))
    same = log.run("rep 0", _ok("aa"))
    log.require_same_checksum("rep 0", warmup, same)
    assert log.failed == 0
    other = log.run("rep 0 again", _ok("bb"))
    log.require_same_checksum("rep 0 again", warmup, other)
    assert (log.attempted, log.failed) == (3, 1)
    assert "differs from the same-seed warm-up" in log.failures[0]


def test_checksum_check_skips_reps_that_already_failed():
    log = RepLog()
    log.require_same_checksum("rep 0", None, {"checksum": "aa"})
    assert log.failed == 0
