"""Fit similarity weights from data instead of using the built-in ones.

Training pairs are mined from a simulation where identity is known: a
positive pair is the same track seen in consecutive frames, a negative pair
is two different tracks. Fitting is deterministic full-batch logistic
regression, so the exact same pairs give the exact same model file.
"""

import tempfile
from pathlib import Path

import numpy as np

from tubelink import (
    ScenarioConfig,
    default_model,
    fit_model,
    generate,
    link_features,
    link_score,
    load_model,
    save_model,
)

cfg = ScenarioConfig(
    seed=21, frame_count=150, num_tracks=6,
    jitter_sigma=2.0, tp_score_mean=0.8, tp_score_sigma=0.1,
)
gt, dets = generate(cfg)
shape = cfg.frame_shape

# with jitter but no drops/false positives, detection k in a frame is track k
pairs = []
for f in range(cfg.frame_count - 1):
    now, nxt = dets.frames[f], dets.frames[f + 1]
    for i, d1 in enumerate(now):
        for j, d2 in enumerate(nxt):
            pairs.append((link_features(d1, d2, shape), 1 if i == j else 0))

positives = sum(lab for _, lab in pairs)
print(f"mined {len(pairs)} pairs ({positives} positive, {len(pairs) - positives} negative)")

model = fit_model(pairs)
print(f"fitted weights: {np.round(model.weights, 3)}")
print(f"fitted bias:    {model.bias:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "fitted-model.txt"
    save_model(model, path)
    assert load_model(path) == model
print("model file round-trips exactly")

# sanity: both models separate true links from cross-track links
for name, m in [("default", default_model()), ("fitted", model)]:
    pos = [link_score(m, f) for f, lab in pairs if lab == 1]
    neg = [link_score(m, f) for f, lab in pairs if lab == 0]
    correct = np.mean([s > 0.5 for s in pos]) * 0.5 + np.mean([s <= 0.5 for s in neg]) * 0.5
    print(f"{name:8s}: balanced accuracy at 0.5 threshold = {correct:.4f}")
