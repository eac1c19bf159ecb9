"""Unit tests for the analysis utilities."""

import json

import pytest

from repro.analysis import Table


class TestTable:
    def test_render_contains_title_columns_rows(self):
        table = Table("E1: RAID-10", ["policy", "MB/s"])
        table.add_row("uniform", 11.0)
        table.add_row("adaptive", 19.25)
        text = table.render()
        assert "E1: RAID-10" in text
        assert "policy" in text and "MB/s" in text
        assert "uniform" in text and "adaptive" in text
        assert "19.2" in text

    def test_column_accessor(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]
        with pytest.raises(KeyError):
            table.column("c")

    def test_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_note_rendered(self):
        table = Table("t", ["a"], note="shape only")
        table.add_row(1)
        assert "note: shape only" in table.render()

    def test_formatting(self):
        table = Table("t", ["v"])
        table.add_row(True)
        table.add_row(123456.0)
        table.add_row(float("inf"))
        table.add_row(0.00123)
        text = table.render()
        assert "yes" in text
        assert "123,456" in text
        assert "inf" in text
        assert "0.00123" in text

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_len(self):
        table = Table("t", ["a"])
        assert len(table) == 0
        table.add_row(1)
        assert len(table) == 1


class TestTableRoundTrip:
    def _table(self):
        table = Table("T: demo", ["name", "value", "flag"], note="a note")
        table.add_row("pi", 3.14159, True)
        table.add_row("count", 7, False)
        table.add_row("nan", float("nan"), True)
        table.add_row("inf", float("inf"), False)
        return table

    def test_round_trip_renders_identically(self):
        table = self._table()
        assert Table.from_dict(table.to_dict()).render() == table.render()

    def test_round_trip_digest_is_stable(self):
        table = self._table()
        assert Table.from_dict(table.to_dict()).digest() == table.digest()

    def test_round_trip_survives_json(self):
        table = self._table()
        payload = json.loads(json.dumps(table.to_dict()))
        rebuilt = Table.from_dict(payload)
        assert rebuilt.render() == table.render()
        assert rebuilt.digest() == table.digest()

    def test_digest_sees_full_precision(self):
        """Cells that render identically still digest differently."""
        a = Table("T", ["v"])
        a.add_row(0.123456789)
        b = Table("T", ["v"])
        b.add_row(0.123456788)
        assert a.render() == b.render()  # both display as 3 significant digits
        assert a.digest() != b.digest()

    def test_digest_changes_with_any_field(self):
        base = self._table()
        retitled = Table("T: other", base.columns, note=base.note)
        for row in base.rows:
            retitled.add_row(*row)
        assert retitled.digest() != base.digest()
