"""Tests for stream text I/O."""

from __future__ import annotations

import io

import pytest

from repro.errors import StreamError
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    dumps_stream,
    erdos_renyi_graph,
    loads_stream,
    read_stream,
    write_stream,
)


class TestStreamIO:
    def test_round_trip(self):
        n = 15
        st = churn_stream(n, erdos_renyi_graph(n, 0.3, seed=1), seed=2)
        restored = loads_stream(dumps_stream(st))
        assert restored.n == st.n
        assert list(restored) == list(st)

    def test_file_round_trip(self, tmp_path):
        st = DynamicGraphStream(5)
        st.insert(0, 1)
        st.delete(0, 1)
        st.insert(2, 3, copies=4)
        path = tmp_path / "stream.txt"
        write_stream(st, path)
        assert read_stream(path).multiplicities() == {(2, 3): 4}

    def test_handle_round_trip(self):
        st = DynamicGraphStream(4)
        st.insert(1, 2)
        buf = io.StringIO()
        write_stream(st, buf)
        buf.seek(0)
        assert list(read_stream(buf)) == list(st)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# dynamic-graph-stream n=4\n"
            "\n"
            "# a comment\n"
            "0 1 1\n"
            "1 2 -1\n"
        )
        st = loads_stream(text)
        assert len(st) == 2
        assert st[1].delta == -1

    def test_missing_header(self):
        with pytest.raises(StreamError):
            loads_stream("0 1 1\n")

    def test_duplicate_header(self):
        with pytest.raises(StreamError):
            loads_stream(
                "# dynamic-graph-stream n=4\n# dynamic-graph-stream n=4\n"
            )

    def test_malformed_token(self):
        with pytest.raises(StreamError):
            loads_stream("# dynamic-graph-stream n=4\n0 1\n")
        with pytest.raises(StreamError):
            loads_stream("# dynamic-graph-stream n=4\n0 x 1\n")

    def test_self_loop_rejected_on_load(self):
        with pytest.raises(StreamError):
            loads_stream("# dynamic-graph-stream n=4\n2 2 1\n")
