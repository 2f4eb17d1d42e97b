"""Span self time with nested and sibling children."""

import json

import pytest

from ladder.trace import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_sibling_children_once_each():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with rec.span("root") as root:
        clock.advance(1.0)
        with rec.span("child"):
            clock.advance(2.0)
        clock.advance(0.5)
        with rec.span("child"):
            clock.advance(3.0)
        clock.advance(0.25)
    assert root.duration == pytest.approx(6.75)
    assert rec.self_time(root) == pytest.approx(1.75)
    assert rec.total("child") == pytest.approx(5.0)


def test_self_time_counts_only_direct_children():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with rec.span("root") as root:
        with rec.span("middle") as middle:
            clock.advance(1.0)
            with rec.span("leaf") as leaf:
                clock.advance(4.0)
        clock.advance(2.0)
    assert rec.self_time(root) == pytest.approx(2.0)
    assert rec.self_time(middle) == pytest.approx(1.0)
    assert rec.self_time(leaf) == pytest.approx(4.0)
    assert (middle.parent, leaf.parent, root.parent) == (root.span_id, middle.span_id, None)
    table = rec.by_name()
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(root.duration)


def test_overlapping_recorded_children_are_covered_once():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with rec.span("root") as root:
        clock.advance(10.0)
    rec.add("a", 1.0, 5.0, parent=root.span_id)
    rec.add("b", 4.0, 7.0, parent=root.span_id)
    rec.add("outside", 9.0, 12.0, parent=root.span_id)  # clipped to the root
    assert rec.self_time(root) == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_closes_when_the_block_raises():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with pytest.raises(KeyError):
        with rec.span("root"):
            clock.advance(1.0)
            raise KeyError("x")
    assert rec.spans[0].duration == 1.0
    with rec.span("next") as following:
        pass
    assert following.parent is None


def test_write_keeps_every_span_and_the_workload_id(tmp_path):
    rec = SpanRecorder("paper_2dev", clock=FakeClock())
    with rec.span("root", seed=3):
        with rec.span("child"):
            pass
    path = tmp_path / "trace.json"
    rec.write(path)
    document = json.loads(path.read_text())
    assert document["workload"] == "paper_2dev"
    assert [row["name"] for row in document["spans"]] == ["root", "child"]
    assert {row["workload"] for row in document["spans"]} == {"paper_2dev"}
    assert document["spans"][0]["attrs"] == {"seed": 3}
    assert document["by_name"]["child"]["count"] == 1
