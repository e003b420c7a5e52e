"""The property table, run by pytest exactly as `ilse verify` runs it."""

import pytest

from ilse import cli, properties

from conftest import row_result


@pytest.mark.parametrize("prop", properties.TABLE, ids=lambda prop: prop.name)
def test_property(prop):
    result = row_result(prop)
    assert result.ok, result.line()


def test_verify_runs_the_table_pytest_parametrizes(monkeypatch, capsys):
    seen = []

    def record(prop, suite):
        seen.append(prop)
        return properties.RowResult(prop.name, passed=1)

    monkeypatch.setattr(properties, "run_row", record)
    assert cli.main(["verify"]) == 0
    (mark,) = test_property.pytestmark
    assert mark.args[1] is properties.TABLE
    assert seen == list(properties.TABLE)
    assert len(capsys.readouterr().out.splitlines()) == len(properties.TABLE) + 1
