"""The settings schema: flags, config-file keys and construction checks all
come from the fields of ScenarioConfig, PipelineConfig and RunSettings."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubelink import (
    ConfigError,
    PipelineConfig,
    ScenarioConfig,
    TubelinkError,
    ValidationError,
    generate,
    parse_config,
    standard_scenario,
    write_detections,
)
from tubelink import cli
from tubelink.cli import RunSettings, main
from tubelink.settings import read_settings
from tubelink.simulate import MAX_FP_RATE

from test_simulate import time_limit

# every postprocess file key, with a valid non-default value
POSTPROCESS_KEYS = {
    "model": "m.txt", "nms_iou": "0.4", "no_repp": "1", "no_tubelet_link": "1",
    "tau_link": "0.3", "assignment": "exact", "alpha": "0.1", "smooth_window": "3",
    "min_len": "4", "g_max": "9", "tau_tub": "0.6", "interp_score": "endpoint", "jobs": "2",
}
SCENARIO_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
HUGE = "1" + "0" * 400  # an integer too large for a float


@pytest.fixture
def stream(tmp_path):
    _, dets = generate(dataclasses.replace(standard_scenario(1), frame_count=20))
    path = tmp_path / "raw.txt"
    write_detections(dets, path)
    return path


def postprocess(tmp_path, stream, config_text, *flags):
    cfg = tmp_path / "pp.txt"
    cfg.write_text(config_text)
    return main(["postprocess", "--config", str(cfg), "--detections", str(stream),
                 "--out", str(tmp_path / "out.txt"), *flags])


def simulate(tmp_path, *args):
    return main(["simulate", *args, "--ground-truth", str(tmp_path / "g.txt"),
                 "--detections", str(tmp_path / "d.txt")])


class TestPostprocessFile:
    def test_misspelled_boolean_exits_1(self, tmp_path, stream, capsys):
        assert postprocess(tmp_path, stream, "no_repp = ture\n") == 1
        assert "no_repp" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, stream, capsys, jobs):
        assert postprocess(tmp_path, stream, f"jobs = {jobs}\n") == 1
        assert "jobs must be an integer >= 1" in capsys.readouterr().err

    def test_bad_value_fails_before_any_input_is_read(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert postprocess(tmp_path, missing, "alpha = 3\n") == 1
        err = capsys.readouterr().err
        assert "alpha must be in [0,1]" in err and "nope.txt" not in err

    @pytest.mark.parametrize("spelling, repp", [
        ("1", False), ("true", False), ("YES", False),
        ("0", True), ("False", True), ("no", True),
    ])
    def test_strict_boolean_spellings(self, tmp_path, stream, capsys, monkeypatch,
                                      spelling, repp):
        seen = record_configs(monkeypatch)
        assert postprocess(tmp_path, stream, f"no_repp = {spelling}\n") == 0
        assert seen == [PipelineConfig(repp=repp)]

    def test_flag_overrides_file(self, tmp_path, stream, capsys, monkeypatch):
        seen = record_configs(monkeypatch)
        assert postprocess(tmp_path, stream, "alpha = 0.2\ng_max = 3\n", "--alpha", "0.7") == 0
        assert seen == [PipelineConfig(alpha=0.7, g_max=3)]

    def test_file_keys(self):
        text = "".join(f"{k} = {v}\n" for k, v in POSTPROCESS_KEYS.items())
        values = read_settings(text, (PipelineConfig, RunSettings), "postprocess")
        assert values == dict(
            model="m.txt", jobs=2, nms_iou=0.4, repp=False, tubelet_link=False, tau_link=0.3,
            assignment="exact", alpha=0.1, smooth_window=3, min_len=4, g_max=9, tau_tub=0.6,
            interp_score="endpoint",
        )
        with pytest.raises(ConfigError, match="unknown postprocess key 'repp'"):
            read_settings("repp = 0\n", (PipelineConfig, RunSettings), "postprocess")


# One non-default value per PipelineConfig setting, as a flag and as a file line.
FLAG_AND_KEY = {
    "nms_iou": (["--nms-iou", "0.4"], "nms_iou = 0.4"),
    "repp": (["--no-repp"], "no_repp = true"),
    "tubelet_link": (["--no-tubelet-link"], "no_tubelet_link = yes"),
    "tau_link": (["--tau-link", "0.3"], "tau_link = 0.3"),
    "assignment": (["--assignment", "exact"], "assignment = exact"),
    "alpha": (["--alpha", "0.25"], "alpha = 0.25"),
    "smooth_window": (["--smooth-window", "7"], "smooth_window = 7"),
    "min_len": (["--min-len", "3"], "min_len = 3"),
    "g_max": (["--g-max", "0"], "g_max = 0"),
    "tau_tub": (["--tau-tub", "0.9"], "tau_tub = 0.9"),
    "interp_score": (["--interp-score", "endpoint"], "interp_score = endpoint"),
}


def record_configs(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_process_one", lambda i, o, config: seen.append(config) or "")
    return seen


def test_table_covers_every_pipeline_setting():
    names = {f.name for f in dataclasses.fields(PipelineConfig)} - {"model"}
    assert set(FLAG_AND_KEY) == names


@pytest.mark.parametrize("name", sorted(FLAG_AND_KEY))
def test_flag_and_file_key_build_equal_configs(tmp_path, stream, capsys, monkeypatch, name):
    flags, line = FLAG_AND_KEY[name]
    seen = record_configs(monkeypatch)
    assert postprocess(tmp_path, stream, "", *flags) == 0
    assert postprocess(tmp_path, stream, line + "\n") == 0
    via_flag, via_file = seen
    assert via_flag == via_file != PipelineConfig()


@pytest.mark.parametrize("bad", [
    {"alpha": 3}, {"smooth_window": 4}, {"tau_tub": 1.0}, {"tau_link": 0.0},
    {"nms_iou": 1.0}, {"min_len": 0}, {"g_max": -1}, {"assignment": "optimal"},
    {"interp_score": "median"},
])
def test_pipeline_config_checks_on_construction(bad):
    (name, _), = bad.items()
    with pytest.raises(ValidationError, match=name):
        PipelineConfig(**bad)


class TestScenarioLimits:
    def test_drop_prob_one_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            simulate(tmp_path, "--drop-prob", "1.0")
        assert e.value.code == 2

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            simulate(tmp_path, "--seed", "-1")
        assert e.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_in_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "s.txt"
        cfg.write_text("seed = -4\n")
        assert simulate(tmp_path, "--config", str(cfg)) == 1
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="seed"):
            ScenarioConfig(seed=-4)

    def test_fp_rate_is_bounded(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            simulate(tmp_path, "--fp-rate", "1e300")
        assert e.value.code == 2
        with pytest.raises(ValidationError, match="fp_rate"):
            ScenarioConfig(fp_rate=1e300)
        ScenarioConfig(fp_rate=MAX_FP_RATE)
        with pytest.raises(ValidationError, match="fp_rate"):
            ScenarioConfig(fp_rate=MAX_FP_RATE * 1.01)

    @pytest.mark.parametrize("name, largest", [("classes", 2**63 - 1), ("burst_max", 2**63 - 2)])
    def test_int64_draws_are_bounded(self, tmp_path, capsys, name, largest):
        # a value beyond int64 ended in numpy's "high is out of bounds" traceback
        flag = "--" + name.replace("_", "-")
        for value in (largest + 1, 10**23):
            with pytest.raises(SystemExit) as e:
                simulate(tmp_path, flag, str(value))
            assert e.value.code == 2
            assert f"{flag[2:]} must be an integer in" in capsys.readouterr().err
        cfg = tmp_path / "s.txt"
        cfg.write_text(f"{name} = {10**23}\n")
        assert simulate(tmp_path, "--config", str(cfg)) == 1
        assert f"{name} must be an integer in" in capsys.readouterr().err
        with pytest.raises(ValidationError, match=name):
            ScenarioConfig(**{name: largest + 1})
        ScenarioConfig(**{name: largest})
        assert simulate(tmp_path, flag, str(largest), "--frame-count", "20",
                        "--burst-prob", "0.5") == 0

    def test_frame_side_beyond_float_range_rejected(self, tmp_path):
        # both sides used to end in an OverflowError from float arithmetic
        with pytest.raises(ValidationError, match="width"):
            ScenarioConfig(width=int(HUGE), height=int(HUGE))
        with pytest.raises(SystemExit) as e:
            simulate(tmp_path, "--width", HUGE)
        assert e.value.code == 2


# ---------------------------------------------------------------- fuzzing

TOKENS = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "3", "4", "0.5", "1.0", "-0", "1e300", "-1e300", "nan", "inf", "-inf",
        HUGE, "1" * 5000, "true", "ture", "YES", "no", "", "greedy", "exact", "mean",
        "endpoint", "default", "=",
    ]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


def config_texts(keys):
    """Config files of up to 4 lines, mostly `known key = token` so that many
    reach construction, with unknown keys, odd separators and junk lines."""
    key = st.one_of(*[st.sampled_from(keys)] * 4, st.text(max_size=8))
    sep = st.one_of(*[st.just(" = ")] * 3, st.sampled_from(["=", "  =", "==", " ", ""]))
    pair = st.builds(lambda k, s, v: f"{k}{s}{v}", key, sep, TOKENS)
    line = st.one_of(*[pair] * 6, st.text(max_size=20), st.just("# note"))
    return st.lists(line, max_size=4).map("\n".join)


FUZZ = settings(max_examples=250, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(config_texts(SCENARIO_KEYS))
def test_fuzz_scenario_config(text):
    with time_limit(2.0):
        try:
            parse_config(text)
        except TubelinkError:
            pass


@FUZZ
@given(config_texts(list(POSTPROCESS_KEYS)))
def test_fuzz_postprocess_config(text):
    with time_limit(2.0):
        try:
            values = read_settings(text, (PipelineConfig, RunSettings), "postprocess")
            RunSettings(model=values.pop("model", "default"), jobs=values.pop("jobs", 1))
            PipelineConfig(**values)
        except TubelinkError:
            pass
