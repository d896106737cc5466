"""Golden hashes of the simulate -> postprocess -> eval chain.

Each case hashes four artifacts with sha256: the simulated input (ground
truth, then detections), the ``postprocess`` output, the ``eval --out`` JSON
and the ``eval --pr-out`` CSV. The input hash is asserted first, so a
simulator change is reported as one and not as a pipeline change. Two more
tables pin ``eval`` on its own: the ``eval --out`` JSON of each scenario's
raw input, with its descriptors, and one pooled two-video ``eval
--per-video`` call (printed tables, then JSON). A change
meant to keep output bytes keeps every hash here; a change meant to alter
them updates the table and says why. To print the table of the code under
test, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import pytest

from tubelink import generate, standard_scenario, write_detections, write_ground_truth
from tubelink.cli import main

FLAGS = {"default": [], "nms": ["--nms-iou", "0.5"], "exact": ["--assignment", "exact"]}


def scenario(name):
    if name == "crowded":  # pairwise scoring dominates; NMS on
        return dataclasses.replace(standard_scenario(0), video_id=name, num_tracks=30,
                                   fp_rate=5.0)
    if name == "multiclass":  # class gating and descriptors
        return dataclasses.replace(standard_scenario(0), video_id=name, classes=30,
                                   num_tracks=12, fp_rate=1.0, appearance_dim=16)
    return standard_scenario(int(name))


CASES = [(str(seed), flags) for seed in range(3) for flags in FLAGS]
CASES += [("crowded", "nms"), ("multiclass", "default")]

# (input, postprocess output, eval JSON, PR CSV) per case
GOLDEN = {
    ('0', 'default'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'c2db07179719fafa6bd64bee41db36287981ffd087eaa7e7a4f2e8202303cc8e',
        '187efc53197b1428fbea10f7184860012e70e1649bd73a89c572227398819551',
        '7d45886cf91b1c0206dbd1a785f004c33b04102785a452ea8e01adde3c834585',
    ),
    ('0', 'nms'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'd35d9382e2849b17c66cdcb83656a4d6c95e8716f6c7ea2706dc80b013558085',
        'eb8da479415d7943175c2312fe972d4914d9967419c845e0bc7376063630f6a5',
        '26c39043a9fd1ae56ae88114ad2c9bd7aef227e88a9c8fba5a1707e55837f2a6',
    ),
    ('0', 'exact'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'c2db07179719fafa6bd64bee41db36287981ffd087eaa7e7a4f2e8202303cc8e',
        '187efc53197b1428fbea10f7184860012e70e1649bd73a89c572227398819551',
        '7d45886cf91b1c0206dbd1a785f004c33b04102785a452ea8e01adde3c834585',
    ),
    ('1', 'default'): (
        '8a4cab6297cfa4153254624ebd953b97eb36b4812e82b21e054fb68875b8724a',
        'd4e5d6dc0ca3485a569b32e855471f195cc51c8b2fb7a6205ab244cdb47c1ad8',
        '71f0fabf75c66d0cfdf699dd75e821a2721705188eeb5f4758669472ce0a88a2',
        '0409b2e087774329820e84bea4bdde09630e8ce9017ccb364efdc332d491a350',
    ),
    ('1', 'nms'): (
        '8a4cab6297cfa4153254624ebd953b97eb36b4812e82b21e054fb68875b8724a',
        'd4e5d6dc0ca3485a569b32e855471f195cc51c8b2fb7a6205ab244cdb47c1ad8',
        '71f0fabf75c66d0cfdf699dd75e821a2721705188eeb5f4758669472ce0a88a2',
        '0409b2e087774329820e84bea4bdde09630e8ce9017ccb364efdc332d491a350',
    ),
    ('1', 'exact'): (
        '8a4cab6297cfa4153254624ebd953b97eb36b4812e82b21e054fb68875b8724a',
        'd4e5d6dc0ca3485a569b32e855471f195cc51c8b2fb7a6205ab244cdb47c1ad8',
        '71f0fabf75c66d0cfdf699dd75e821a2721705188eeb5f4758669472ce0a88a2',
        '0409b2e087774329820e84bea4bdde09630e8ce9017ccb364efdc332d491a350',
    ),
    ('2', 'default'): (
        'e2e19aac17ab02079278ea2b44487f9fbaf085201b734f23df4709c98e602b65',
        'ee7d7f5b20d810517492ddd40aa40161b92be9038c3099c895715b1f50529736',
        '88077900fe4ebc8a138e2d1b5fb515292a458634826b8c4adca9c71811d8c650',
        '171705e28e30a5aeec398c7f84562119dffa4f6d145b3548f3133329d34ac978',
    ),
    ('2', 'nms'): (
        'e2e19aac17ab02079278ea2b44487f9fbaf085201b734f23df4709c98e602b65',
        '0a79451abb907fce31f50c342b80cd4a0ef13422d28c272dd61208f85568f71e',
        '3734624d39e1f8526fdae0f1f3ee4a32078c122ee1d36a33f65f7e3210fb79e6',
        '2028566753c754c4a78a42ab75d163e055e7e3b288498e6aa196604df3f3712c',
    ),
    ('2', 'exact'): (
        'e2e19aac17ab02079278ea2b44487f9fbaf085201b734f23df4709c98e602b65',
        'ee7d7f5b20d810517492ddd40aa40161b92be9038c3099c895715b1f50529736',
        '88077900fe4ebc8a138e2d1b5fb515292a458634826b8c4adca9c71811d8c650',
        '171705e28e30a5aeec398c7f84562119dffa4f6d145b3548f3133329d34ac978',
    ),
    ('crowded', 'nms'): (
        '1cb0953f633fa5464dab048c1839b8462a5ce5229773281b39ff9a1279b09c62',
        '62db042ad45fee7167493fda50b5d0ba03649f7c8af6a2b49c22135dea8434da',
        '53db7bceae3a55e2a8a22d8eb144d7cb271b4538b367d9eb25b9ca5c06cb37f0',
        '974c96affe7684404502182a1efc8eaa38911402d7703324b65688251c3df209',
    ),
    ('multiclass', 'default'): (
        '67335520e6348b305104dd5afd3e28202b118b5740754b1e99e34aaaf4ec1043',
        '5cecf88a7b65ad45e774d0be69510d2363606b5c0a7dc54947f95f5965e82cb8',
        'b01d960dac742c4135af6f49ffd255491164a241b3906c41809b42e9a1c03a33',
        '9fbfa95c127a5bb3619d7795e2a414ee4a2de688a519af9ba50987f641f9f87f',
    ),
}


RAW_NAMES = sorted({name for name, _ in CASES})

# eval --out JSON of each scenario's raw detections against its ground truth
GOLDEN_RAW_EVAL = {
    '0': '125994582b7239f53347af93037859c665d8d5fec41bb6065ae09952e1e13b0f',
    '1': '7c79c531282cc813bb34032a755e075f365c81e98c878664762431f95af0d064',
    '2': '4a113ce5f55e68a244a7f5d2403a19e8416e7dcdeb32381362fd7f07a5be3f47',
    'crowded': '9f08a9505113d0bb7cfe35d16d09fe402b8eaa14e6a1e623fd714d101ead69f9',
    'multiclass': 'ee3164c1e91076349d82ead911ba80086d7a8ac807c368d225c9116181630713',
}

# eval --per-video of two videos pooled: postprocess output of scenario 1 and
# the raw detections of "multiclass"; (printed tables, eval --out JSON)
GOLDEN_POOLED = (
    '5c83227f3b65576fe5e4b16d5064f5459052db845df26228ea1861912ef58959',
    '93acd4938a27015afb404fbd66cbc394fd42f82207c13c416fb90591ed036606',
)


def digest(*paths):
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def write_inputs(name, tmp_path):
    gt_path, det_path = tmp_path / f"{name}.gt.txt", tmp_path / f"{name}.dets.txt"
    gt, dets = generate(scenario(name))
    write_ground_truth(gt, gt_path)
    write_detections(dets, det_path)
    return gt_path, det_path


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(map(str, argv))) == 0
    return out.getvalue()


def run_case(name, flags, tmp_path):
    gt_path, det_path = write_inputs(name, tmp_path)
    out, report, pr = tmp_path / "out.txt", tmp_path / "report.json", tmp_path / "pr.csv"
    run_cli("postprocess", "--detections", det_path, "--out", out, *FLAGS[flags])
    run_cli("eval", "--detections", out, "--ground-truth", gt_path,
            "--out", report, "--pr-out", pr)
    return digest(gt_path, det_path), digest(out), digest(report), digest(pr)


def run_raw_eval(name, tmp_path):
    gt_path, det_path = write_inputs(name, tmp_path)
    report = tmp_path / "report.json"
    run_cli("eval", "--detections", det_path, "--ground-truth", gt_path, "--out", report)
    return digest(report)


def run_pooled(tmp_path):
    gt1, det1 = write_inputs("1", tmp_path)
    gt2, det2 = write_inputs("multiclass", tmp_path)
    out1, report = tmp_path / "out1.txt", tmp_path / "report.json"
    run_cli("postprocess", "--detections", det1, "--out", out1)
    tables = run_cli("eval", "--detections", out1, "--ground-truth", gt1,
                     "--detections", det2, "--ground-truth", gt2, "--per-video", "--out", report)
    return hashlib.sha256(tables.encode("utf-8")).hexdigest(), digest(report)


@pytest.mark.parametrize("name,flags", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_pipeline_bytes_match_golden(name, flags, tmp_path):
    got = run_case(name, flags, tmp_path)
    want = GOLDEN[name, flags]
    assert got[0] == want[0], "the simulated input changed"
    assert got[1:] == want[1:]


@pytest.mark.parametrize("name", RAW_NAMES)
def test_raw_input_eval_matches_golden(name, tmp_path):
    assert run_raw_eval(name, tmp_path) == GOLDEN_RAW_EVAL[name]


def test_pooled_per_video_eval_matches_golden(tmp_path):
    assert run_pooled(tmp_path) == GOLDEN_POOLED


if __name__ == "__main__":
    import tempfile

    for name, flags in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = run_case(name, flags, Path(tmp))
        sys.stdout.write(f"    ({name!r}, {flags!r}): (\n")
        sys.stdout.writelines(f"        {h!r},\n" for h in hashes)
        sys.stdout.write("    ),\n")
    sys.stdout.write("\nGOLDEN_RAW_EVAL\n")
    for name in RAW_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f"    {name!r}: {run_raw_eval(name, Path(tmp))!r},\n")
    sys.stdout.write("\nGOLDEN_POOLED\n")
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.writelines(f"    {h!r},\n" for h in run_pooled(Path(tmp)))
