"""The README's examples run as written."""

import dataclasses
import re
from enum import Enum
from pathlib import Path

import numpy as np
from test_scenario import KEY_TABLES, SELECTOR_KEYS, field_default

from swarmtrack.scenario import parse_scenario_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    """Bodies of the README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_scenario_file_parses():
    (text,) = fenced("ini")
    config = parse_scenario_text(text)
    assert config.n == 3
    assert tuple(config.speeds) == (10.0, 12.0, 16.0)
    assert (config.dt, config.duration, config.seed) == (0.05, 120.0, 11)


def test_readme_quickstart_runs(capsys):
    (code,) = fenced("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    log = namespace["log"]
    assert "final V = " in capsys.readouterr().out
    # what the quickstart's comments promise
    assert log.V[-1] < 1e-6
    np.testing.assert_allclose(log.centroid_vel[-1], [2.0, 0.0], atol=1e-3)


def readme_key_table():
    """{(section, variant, key): default cell} from the README's scenario key table."""
    rows = re.findall(r"^\| `\[(\w+)\]` \| (?:`(\w+)`)? ?\| `(\w+)` \| ([^|]+?) \|",
                      README, flags=re.MULTILINE)
    table = {(section, variant, key): default for section, variant, key, default in rows}
    assert len(table) == len(rows), "a key is listed twice"
    return table


def readme_default(value) -> str:
    """A dataclass default as the README's key table writes it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, Enum):
        return value.value
    return f"{value:g}"


def test_readme_key_table_lists_every_key_with_its_default():
    expected = {(section, "", key): "required" for section, key in SELECTOR_KEYS}
    for section, variant, cls, table in KEY_TABLES:
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, (name, _, required) in table.items():
            expected[section, variant, key] = (
                "required" if required else readme_default(field_default(fields[name]))
            )
    assert readme_key_table() == expected
