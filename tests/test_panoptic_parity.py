"""Bitwise parity of the panoptic path with a frozen record.

``fixtures/panoptic_parity.json`` holds what setdet computed while the
mask head still ran one image at a time on ``[d,N]`` / ``[d,HW]`` inputs
and ``train_mask_head`` forwarded the frozen detector for every image in
every epoch (commit 1257611):

- a SHA-256 digest of the float64 bytes of each image's mask logits and
  heatmaps, for a tiny model and head on 4 seeded images;
- the ``evaluate_panoptic`` report at two confidence thresholds;
- every parameter of the head after a seeded 3-epoch ``train_mask_head``.

The two reports were re-recorded, alone, once ``panoptic_from_sample``
stopped painting the stuff bands of ``include_stuff_boxes`` data as things:
their ground truth now holds one stuff segment per band, so ``PQ_th`` no
longer scores stuff and ``PQ_st`` is defined at both thresholds.

The logits, heatmaps and reports must come out bit for bit the same.  The
trained parameters must agree to 1e-12 relative: the loss now sums the
same terms over a stacked batch, which rounds differently.  The one
exception is ``mask_head.k_proj.bias``, compared to 1e-12 absolute: the
softmax over keys ignores the constant ``q . b_k``, so its gradient is
zero in exact arithmetic and the parameter holds only rounding noise.

As in ``test_parity.py``, the observation runs in a child process with
one OpenBLAS thread, the setting the fixture was recorded with (on an
x86-64 host).  ``OPENBLAS_NUM_THREADS=1 python tests/test_panoptic_parity.py
--record SECTION...`` rewrites the named sections (``head``, ``reports``,
``trained``) from the current code and leaves the others as they are in
the file; do that only when the arithmetic of that part of the panoptic
path changes on purpose.  The current code does not reproduce the
``trained`` section bit for bit, so recording it replaces that reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import VAL_NAMESPACE, SyntheticConfig, build_dataset
from setdet.detector import Detector, ModelConfig
from setdet.segmentation import MaskHead
from setdet.training import MaskTrainConfig, TrainConfig, evaluate_panoptic, train_mask_head

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "panoptic_parity.json")
SEED = 12
# stuff bands are classes 2 and 3, so the merge and PQ see stuff segments
MODEL = ModelConfig(d=16, num_heads=4, enc_layers=1, dec_layers=2, num_queries=6,
                    num_classes=4, ffn_width=32, backbone_channels=(4, 8, 16),
                    image_side=32, dropout=0.0)
DATA = SyntheticConfig(image_side=32, num_classes=2, min_objects=1, max_objects=3,
                       size_range=(6, 12), include_stuff_boxes=True)
NUM_THINGS = 2


def digest(array):
    return [list(array.shape), hashlib.sha256(np.ascontiguousarray(array, "<f8").tobytes())
            .hexdigest()]


def model():
    return Detector(MODEL, np.random.default_rng(SEED))


def head_outputs():
    net = model()
    head = MaskHead(MODEL.d, MODEL.num_heads, np.random.default_rng(SEED + 1))
    images = np.stack([s.image for s in build_dataset(DATA, 4, VAL_NAMESPACE, SEED)])
    with T.no_grad():
        _, memory, embs = net.forward_with_internals(images)
        out = head(embs, memory, MODEL.feature_side, MODEL.feature_side)
    return {"logits": [digest(a) for a in out.logits.data],
            "heatmaps": [digest(a) for a in out.heatmaps.data]}


def reports():
    net = model()
    head = MaskHead(MODEL.d, MODEL.num_heads, np.random.default_rng(SEED + 2))
    samples = build_dataset(DATA, 24, VAL_NAMESPACE, SEED)
    return {str(conf): evaluate_panoptic(net, head, samples, NUM_THINGS, conf_thresh=conf)
            for conf in (0.0, 0.3)}


def trained_head():
    cfg = TrainConfig(model=MODEL, data=DATA, train_size=24, seed=SEED)
    head = train_mask_head(model(), cfg, MaskTrainConfig(epochs=3, batch_size=8, lr=1e-3))
    return {p.name: p.tensor.data.reshape(-1).tolist() for p in head.parameters()}


SECTIONS = {"head": head_outputs, "reports": reports, "trained": trained_head}


def observe():
    return {name: section() for name, section in SECTIONS.items()}


@pytest.fixture(scope="module")
def observed():
    src = os.path.join(os.path.dirname(HERE), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", ["logits", "heatmaps"])
def test_head_outputs_bitwise(observed, recorded, key):
    assert len(recorded["head"][key]) == 4
    for i, (got, want) in enumerate(zip(observed["head"][key], recorded["head"][key])):
        assert got == want, f"image {i}"


def test_panoptic_reports_bitwise(observed, recorded):
    # json keeps every float exactly, and NaN as NaN
    assert json.dumps(observed["reports"]) == json.dumps(recorded["reports"])
    assert recorded["reports"]["0.0"]["PQ"] > 0


def test_trained_head_parameters(observed, recorded):
    assert observed["trained"].keys() == recorded["trained"].keys()
    for name, want in recorded["trained"].items():
        got, want = np.array(observed["trained"][name]), np.array(want)
        if name == "mask_head.k_proj.bias":
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Print what the panoptic path computes as JSON, or rewrite "
                    "the named sections of the fixture.")
    parser.add_argument("--record", nargs="+", choices=list(SECTIONS), metavar="SECTION",
                        help=f"sections to rewrite, from {', '.join(SECTIONS)}")
    record = parser.parse_args().record
    if record is None:
        json.dump(observe(), sys.stdout)
    else:
        with open(FIXTURE) as fh:
            fixture = json.load(fh)
        fixture.update({name: SECTIONS[name]() for name in record})
        with open(FIXTURE, "w") as fh:
            json.dump(fixture, fh, indent=1)
            fh.write("\n")
