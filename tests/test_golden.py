"""Golden hashes of the simulate -> postprocess -> eval chain.

Each case hashes four artifacts with sha256: the simulated input (ground
truth, then detections), the ``postprocess`` output, the ``eval --out`` JSON
and the ``eval --pr-out`` CSV. A case is a scenario and a set of
``postprocess`` flags; a scenario name may add an input variant after a
colon: ``reversed`` writes the detection lines in reverse order, so frames
come out of order, and ``again`` postprocesses the ``#tubelets`` output of
a first call with the default flags once more, with the case's flags. The
input hash is asserted first, so a simulator change is reported as one and
not as a pipeline change. Two more tables pin ``eval`` on its own: the
``eval --out`` JSON of each scenario's raw input, with its descriptors, and
one pooled two-video ``eval --per-video`` call (printed tables, then JSON).
A last table pins the printed output of ``inspect``. A change
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

from tubelink import (
    BBox, Detection, Tubelet, TubeletEntry, generate, standard_scenario, write_detections,
    write_ground_truth,
)
from tubelink.cli import main

FLAGS = {
    "default": [], "nms": ["--nms-iou", "0.5"], "exact": ["--assignment", "exact"],
    "no-repp": ["--no-repp"], "no-link": ["--no-tubelet-link"],
    "off": ["--no-repp", "--no-tubelet-link"],
    "window1": ["--smooth-window", "1"], "window7": ["--smooth-window", "7"],
    "min-len1": ["--min-len", "1"], "g-max0": ["--g-max", "0"],
    "alpha0": ["--alpha", "0"], "alpha1": ["--alpha", "1"],
    "endpoint": ["--interp-score", "endpoint"],
}


def scenario(name):
    name = name.split(":")[0]
    if name == "crowded":  # pairwise scoring dominates; NMS on
        return dataclasses.replace(standard_scenario(0), video_id=name, num_tracks=30,
                                   fp_rate=5.0)
    if name == "multiclass":  # class gating and descriptors
        return dataclasses.replace(standard_scenario(0), video_id=name, classes=30,
                                   num_tracks=12, fp_rate=1.0, appearance_dim=16)
    return standard_scenario(int(name))


CASES = [(str(seed), flags) for seed in range(3) for flags in ("default", "nms", "exact")]
CASES += [("crowded", "nms"), ("multiclass", "default")]
# each setting off its default, and inputs the table above does not cover
CASES += [("0", flags) for flags in ("no-repp", "no-link", "window1", "window7", "min-len1",
                                     "g-max0", "alpha0", "alpha1", "endpoint")]
CASES += [("multiclass", "off"), ("multiclass", "no-repp"), ("0:reversed", "default"),
          ("crowded:reversed", "nms"), ("0:again", "default"), ("multiclass:again", "default"),
          ("0:again", "off")]  # every stage off on a #tubelets input: the ids are dropped

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
    ('0', 'no-repp'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'c59610d25d5855314c760df81bb40e9c150ac090508f55985e03e34a596591b1',
        'a8804f9aad050edee01cfabe535e90456cd6026238cad22b30e37d6454cd1325',
        '84f2bbbb5c597ee20a22a438674993f435584f503352b5f7a1e7b426416230fa',
    ),
    ('0', 'no-link'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '6b9eda90c6723fbfcc10fc47614d12069d221b9fba3abf540982858d30fed9b8',
        'b60c636e1a6b6954a2530aac54e59e206985ba9efa0a239489f4f96ab9d896f3',
        '8bad81e57ebe39a5f3473128274b89221008813123875d9da827e1a94ceccd1c',
    ),
    ('0', 'window1'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '31af9559c7956dc4448114bdc67e9e4a88bbe93c0363f07be36b11508a1039c3',
        '3aa1fba44d6dc181fb3cfe6241a149985457928656b1383026c3a061776aa383',
        'b20b8bc5808fe4f0461f2d57356a23563e91e95e8b5d385683011f10f28b45e6',
    ),
    ('0', 'window7'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '8d40986c328da41cd31c9e6d2cedc5603203021a7a5c78a0f702fb3ee776a0e7',
        '5bb4b3bdb61b3b3044b17b7cfb30e16c0a064e6e96d3ff86ac7dc0b4ffe18eb0',
        '33f46c12de090388717d15c57b6ed8eb1e4a6b4be0668fa747876487f941cb52',
    ),
    ('0', 'min-len1'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'ec8f84bfd4053d85090de8d79ceb94411db9550615b0ddf1ba31ef487ecb4cf5',
        '363728574223389cdf79127cec1a756d1611af97e0e21eaefab4e51fddc9ef8a',
        '9298f457f3b3a7e42acf6bd815d39945e9783833ed842e24a8ea1a15ed0ac960',
    ),
    ('0', 'g-max0'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '4dc19e6e4069823df261745c42ab19b27f7f1659ae9be5856e9090e4df785635',
        'b60c636e1a6b6954a2530aac54e59e206985ba9efa0a239489f4f96ab9d896f3',
        '8bad81e57ebe39a5f3473128274b89221008813123875d9da827e1a94ceccd1c',
    ),
    ('0', 'alpha0'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '99019e42d5efd28b9f8c944201a71c3ae7aa8d0c034629409780fe96e1b2ecd1',
        '2582d22a08bf1d23da89b5dff4fb8a9ee701d5168123f9d2b3f63776d3886fd7',
        'c74ba1a6a03ef86b5d14fbbd29f9036fd47444426972cb8bf43994063ed959ea',
    ),
    ('0', 'alpha1'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '70d15aab225776cc84ec6bf79ad1e68828638c8c9d9a67bda6d0d61ea36b753e',
        '2af37bcb124b1e22ed8ffa76625fe73c156e782b8adda4f842337ccdef520fcc',
        '3354ebc57b7dfa838a270dc8413035dff86647894fb652d714719514954a97fe',
    ),
    ('0', 'endpoint'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'a2b8f50a9e5d507f83c34ecdc00a9bb494052b90ffacfcaa56f6b3be593bc8bf',
        'd180220362838fd83272704e1588c4dfb8398387a4c865ebd7bc0a0aa0537e4f',
        '83f9f70e0d490f574277098b40d8e5f7bf78a7872760eee63c44990c5108d3cb',
    ),
    ('multiclass', 'off'): (
        '67335520e6348b305104dd5afd3e28202b118b5740754b1e99e34aaaf4ec1043',
        '0bea8a1c93a88ad216d10194bec115fb329c366bc0d88c88efae438e034e8ae6',
        'ee3164c1e91076349d82ead911ba80086d7a8ac807c368d225c9116181630713',
        'aa5e0bcb9ec475a529bc7268d2f04aef42d5b8e12f9d31481325db626fc9fa53',
    ),
    ('multiclass', 'no-repp'): (
        '67335520e6348b305104dd5afd3e28202b118b5740754b1e99e34aaaf4ec1043',
        'ae284d43ad730d013e9d5cbbc0b34b627b2d9261e779348ca05eb907fd76bc5d',
        'e8bf57dfb9b2b84370ae5c4a6b939d3cde9e1507c366f8d1c54dffb6dac85f4f',
        '4297c211d5f002ca486d3bdef0606bdb53bcc752550ed632a61b0972c8bd5fa4',
    ),
    ('0:reversed', 'default'): (
        '8329c810a837037dc92ceca2365c21cfdc1a2b4892636590f249beb85b304be3',
        'c2db07179719fafa6bd64bee41db36287981ffd087eaa7e7a4f2e8202303cc8e',
        '187efc53197b1428fbea10f7184860012e70e1649bd73a89c572227398819551',
        '7d45886cf91b1c0206dbd1a785f004c33b04102785a452ea8e01adde3c834585',
    ),
    ('crowded:reversed', 'nms'): (
        'ef3351e0bba92a5fac6237f47534f28ebadaa38845b019c3076f2476a3994a8e',
        '62db042ad45fee7167493fda50b5d0ba03649f7c8af6a2b49c22135dea8434da',
        '53db7bceae3a55e2a8a22d8eb144d7cb271b4538b367d9eb25b9ca5c06cb37f0',
        '974c96affe7684404502182a1efc8eaa38911402d7703324b65688251c3df209',
    ),
    ('0:again', 'default'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        'fa9e91b49c909361653a68909c9e86391f4ed0e88c085a8d11f213e003e76816',
        '76beea8b6689365b8ab21e0b6c6223d14b9041ab786061c307f4e0532e4858b8',
        '3c6dcb3aa5958ccc4b2d177224d7c659d6e997578dd6ff6fa8ce2a004f9f26ba',
    ),
    ('multiclass:again', 'default'): (
        '67335520e6348b305104dd5afd3e28202b118b5740754b1e99e34aaaf4ec1043',
        '5b1dc2decab60d63ab13420768e18c9f4fd138f3bef75c0c7a49ce9cceaa4905',
        '3611843780c40908c4dc5eb33beb3b8d43bb3d24a9e5dd0970ac66f93e0aa2c5',
        'c813bc38a3af5387a656ca6f69cbb83a8888604fd08e25dc157deb6c21c179a0',
    ),
    ('0:again', 'off'): (
        '59c18de59fa89018ba9336ec68484909518cbedc6272d6a95c99725343afd1ec',
        '41b4db7841fdcde43b6ccb2d263d345d649a5e82a500664b17e35676cdeb1f64',
        '187efc53197b1428fbea10f7184860012e70e1649bd73a89c572227398819551',
        '7d45886cf91b1c0206dbd1a785f004c33b04102785a452ea8e01adde3c834585',
    ),
}


RAW_NAMES = sorted({name for name, _ in CASES if ":" not in name})

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

# inspect's printed output: a scenario's raw input or postprocess output with
# the named flags, or a file of the given text
INSPECTED = {
    "multiclass-raw": None,  # descriptors on some lines only
    "multiclass-default": None,
    "crowded-nms": None,
    "header-only-tubelets": "#video h 1280 720 4\n#tubelets\n",
    "no-frames": "#video empty 1280 720 0\n",
}
GOLDEN_INSPECT = {
    'multiclass-raw': 'e7168bcb5af83f1f95100d383514c9598cbd139724c987093994818f9f800131',
    'multiclass-default': '1ad642f60ca0e2206ea30c0989432048f4051175a45b4ea4a9444c2d87f540d6',
    'crowded-nms': 'b0179bb34ab5ece5a587eeb5760b11c6fb6aca4973ea27e8504aa9b01c6ed639',
    'header-only-tubelets': 'a48c1e7d316c221c5bd34b8be520362e3d8648f7c22e1190c55c0702fe3284f9',
    'no-frames': '3c48d04e066ece34f30b2576625747553595d81a131d21677eb7167215d1feb4',
}


def digest(*paths):
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def write_inputs(name, tmp_path):
    stem = name.replace(":", "-")
    gt_path, det_path = tmp_path / f"{stem}.gt.txt", tmp_path / f"{stem}.dets.txt"
    gt, dets = generate(scenario(name))
    write_ground_truth(gt, gt_path)
    write_detections(dets, det_path)
    if name.endswith(":reversed"):
        header, *lines = det_path.read_text(encoding="utf-8").splitlines()
        det_path.write_text("\n".join([header, *reversed(lines)]) + "\n", encoding="utf-8")
    return gt_path, det_path


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(map(str, argv))) == 0
    return out.getvalue()


def run_postprocess(name, flags, det_path, out):
    if name.endswith(":again"):
        run_cli("postprocess", "--detections", det_path, "--out", out)
        det_path = out
    run_cli("postprocess", "--detections", det_path, "--out", out, *FLAGS[flags])


def run_case(name, flags, tmp_path):
    gt_path, det_path = write_inputs(name, tmp_path)
    out, report, pr = tmp_path / "out.txt", tmp_path / "report.json", tmp_path / "pr.csv"
    run_postprocess(name, flags, det_path, out)
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


def run_inspect(name, tmp_path):
    path = tmp_path / "inspected.txt"
    if INSPECTED[name] is not None:
        path.write_text(INSPECTED[name], encoding="utf-8")
    else:
        scenario_name, flags = name.split("-")
        _, det_path = write_inputs(scenario_name, tmp_path)
        if flags == "raw":
            path = det_path
        else:
            run_cli("postprocess", "--detections", det_path, "--out", path, *FLAGS[flags])
    return hashlib.sha256(run_cli("inspect", "--detections", path).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,flags", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_pipeline_bytes_match_golden(name, flags, tmp_path):
    got = run_case(name, flags, tmp_path)
    want = GOLDEN[name, flags]
    assert got[0] == want[0], "the simulated input changed"
    assert got[1:] == want[1:]


def test_all_stages_off_passes_the_input_through(tmp_path):
    _, det_path = write_inputs("multiclass", tmp_path)
    out = tmp_path / "out.txt"
    run_cli("postprocess", "--detections", det_path, "--out", out, *FLAGS["off"])
    assert any(len(line.split()) > 7 for line in det_path.read_text().splitlines())  # descriptors
    assert out.read_bytes() == det_path.read_bytes()


GUARDED = [("0", "default"), ("0", "nms"), ("0", "no-link"), ("multiclass", "default"),
           ("multiclass", "off"), ("multiclass:again", "default")]


@pytest.mark.parametrize("name,flags", GUARDED, ids=[f"{n}-{f}" for n, f in GUARDED])
def test_postprocess_builds_no_per_box_object(name, flags, tmp_path, monkeypatch):
    # postprocess runs on arrays from read to write: with the per-box value
    # types unable to be built, it still writes the golden bytes
    _, det_path = write_inputs(name, tmp_path)

    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    for cls in (BBox, Detection, TubeletEntry, Tubelet):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a BBox was built"):
        BBox(0.0, 0.0, 1.0, 1.0)
    out = tmp_path / "out.txt"
    run_postprocess(name, flags, det_path, out)
    assert digest(out) == GOLDEN[name, flags][1]


@pytest.mark.parametrize("name", RAW_NAMES)
def test_raw_input_eval_matches_golden(name, tmp_path):
    assert run_raw_eval(name, tmp_path) == GOLDEN_RAW_EVAL[name]


def test_pooled_per_video_eval_matches_golden(tmp_path):
    assert run_pooled(tmp_path) == GOLDEN_POOLED


@pytest.mark.parametrize("name", INSPECTED)
def test_inspect_prints_the_golden_text(name, tmp_path):
    assert run_inspect(name, tmp_path) == GOLDEN_INSPECT[name]


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
    sys.stdout.write("\nGOLDEN_INSPECT\n")
    for name in INSPECTED:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f"    {name!r}: {run_inspect(name, Path(tmp))!r},\n")
