"""The README's library documentation stays true to the package."""

import dataclasses
import re
from pathlib import Path

import pytest

import wavereg
from wavereg.fixtures import FixtureSpec, write_fixture
from wavereg.transform import AffineParams

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    return text[text.index("## Library"):text.index("## Conventions")]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    example = _library_section().split("```python\n")[1].split("```")[0]
    write_fixture(FixtureSpec(size=64, truth=AffineParams(tx=2.0), remap="invert"),
                  tmp_path / "fixture")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_root_exports_resolve_and_are_documented():
    section = _library_section()
    assert len(wavereg.__all__) == len(set(wavereg.__all__))
    for name in wavereg.__all__:
        assert getattr(wavereg, name) is not None, name
        assert f"`{name}`" in section, name


@pytest.mark.parametrize("config", [wavereg.RegistrationConfig, wavereg.OptimizerConfig])
def test_documented_config_fields_match(config):
    # "`X` holds `a`, `b` ... and `z`." up to the first period or semicolon
    section = " ".join(_library_section().split())  # undo the wrapping
    listed = re.search(rf"`{config.__name__}` holds ([^.;]*)", section).group(1)
    documented = re.findall(r"`([a-z_]+)`", listed)
    assert documented == [f.name for f in dataclasses.fields(config)]
