import numpy as np
import pytest

from spans import SpanRecorder


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def nested_calls(clock_times):
    """root [0, 10] calls a [1, 3] then b [4, 8]; b calls c [5, 6]; then a
    second root d [10, 12] runs alone."""
    rec = SpanRecorder(clock=FakeClock(clock_times))
    c = rec.wrap(lambda: None, "c")
    b = rec.wrap(lambda: c(), "b")
    a = rec.wrap(lambda: None, "a")
    root = rec.wrap(lambda: (a(), b()), "root")
    d = rec.wrap(lambda: None, "d")
    root()
    d()
    return rec


TIMES = [0, 1, 3, 4, 5, 6, 8, 10, 10, 12]


def test_self_time_is_duration_minus_child_coverage():
    rec = nested_calls(TIMES)
    assert rec.arrays()["parent"].tolist() == [-1, 0, 0, 2, -1]
    np.testing.assert_allclose(rec.self_times(), [10 - 2 - 4, 2, 4 - 1, 1, 2])


def test_root_self_times_sum_to_root_duration():
    rec = nested_calls(TIMES)
    a = rec.arrays()
    own = rec.self_times()
    root_of = np.arange(len(rec))
    for i, parent in enumerate(a["parent"]):
        if parent >= 0:
            root_of[i] = root_of[parent]
    for root in np.flatnonzero(a["parent"] < 0):
        assert own[root_of == root].sum() == pytest.approx(a["end"][root] - a["start"][root])


def test_stats_by_name_and_group():
    rec = nested_calls(TIMES)
    by_name = rec.stats()
    assert by_name["root"].calls == 1 and by_name["root"].busy_s == 10
    assert by_name["b"].self_s == 3
    grouped = rec.stats(group=lambda name: "x" if name in ("b", "c") else name)
    # c is nested in b of the same group: busy counts b once, self sums both
    assert grouped["x"].calls == 2
    assert grouped["x"].busy_s == 4
    assert grouped["x"].self_s == 4
    np.testing.assert_allclose(np.sort(grouped["x"].durations), [1, 4])


def test_wrapped_name_without_calls_reports_zero():
    rec = SpanRecorder()
    rec.wrap(lambda: None, "never")
    stats = rec.stats()
    assert stats["never"].calls == 0 and stats["never"].busy_s == 0.0


def test_hooks_and_errors():
    seen = []
    rec = SpanRecorder(clock=FakeClock(range(10)))
    ok = rec.wrap(lambda x: x + 1, "ok", before=lambda x: seen.append(("before", x)),
                  after=lambda r: seen.append(("after", r)))
    assert ok(1) == 2

    def fail():
        raise ValueError("boom")

    bad = rec.wrap(fail, "bad", on_error=lambda: seen.append("error"))
    with pytest.raises(ValueError):
        bad()
    assert seen == [("before", 1), ("after", 2), "error"]
    assert rec.stats()["bad"].calls == 1  # the failed call's span is closed


def test_export_refused_while_a_span_is_open():
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        rec.wrap(rec.arrays, "outer")()


def test_write_round_trip(tmp_path):
    rec = nested_calls(TIMES)
    path = tmp_path / "spans.npz"
    rec.write(path)
    with np.load(path) as data:
        assert data["names"].tolist() == rec.names
        for key, array in rec.arrays().items():
            np.testing.assert_array_equal(data[key], array)
