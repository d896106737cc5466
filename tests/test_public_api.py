"""The public surface stays in step with its declarations: ``tubelink.__all__``
with the package namespace, and README's "Pipeline flags" table with the
``postprocess`` parser and the defaults of the settings behind its flags."""

import dataclasses
import re
import types
from pathlib import Path

import tubelink
from tubelink.cli import RunSettings, build_parser
from tubelink.pipeline import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"
# postprocess flags that are not settings: help, the settings file, inputs and outputs
NOT_SETTINGS = {"-h", "--help", "--config", "--detections", "--out"}


def test_all_names_resolve():
    missing = [name for name in tubelink.__all__ if not hasattr(tubelink, name)]
    assert missing == []


def test_every_public_name_is_in_all():
    public = {name for name, value in vars(tubelink).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(tubelink.__all__) == set()
    assert len(tubelink.__all__) == len(set(tubelink.__all__))


def readme_flag_table() -> dict[str, str]:
    """{flag: default} from the rows of README's "Pipeline flags" table."""
    section = README.read_text(encoding="utf-8").split("## Pipeline flags", 1)[1]
    section = section.split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+?) \|", section, re.MULTILINE))


def shown(default) -> str:
    # by identity: 1 == True, and --jobs defaults to 1
    return "off" if default is None else "on" if default is True else str(default)


def test_readme_flag_table_matches_the_postprocess_parser():
    sub = next(a for a in build_parser()._subparsers._group_actions
               if a.dest == "command").choices["postprocess"]
    flags = {flag: action.dest for action in sub._actions for flag in action.option_strings
             if flag not in NOT_SETTINGS}
    defaults = {f.name: f.default for cls in (RunSettings, PipelineConfig)
                for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    assert readme_flag_table() == {flag: shown(defaults[dest]) for flag, dest in flags.items()}
