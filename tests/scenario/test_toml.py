"""TOML scenario specs: invalid TOML is one actionable error naming the file."""

import pytest

from repro.scenario import ScenarioSpecError, load_scenario


@pytest.mark.parametrize(
    "bad",
    ["key", "[unclosed", 'x = "unterminated', "x = [1, 2", "x = 1\nx = 2", "x = nonsense"],
    ids=["no_value", "unclosed_table", "unterminated_string", "unterminated_array",
         "duplicate_key", "bad_value"],
)
def test_invalid_toml_raises_spec_error_with_path(tmp_path, bad):
    path = tmp_path / "broken.toml"
    path.write_text(bad)
    with pytest.raises(ScenarioSpecError, match="invalid TOML") as excinfo:
        load_scenario(path)
    assert str(path) in str(excinfo.value)
