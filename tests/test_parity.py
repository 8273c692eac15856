"""Bitwise parity of single-image inference with a frozen record.

``fixtures/single_image_parity.json`` holds what setdet computed for a
few seeded images while it still ran single images through their own
unbatched ``[3,H,W]`` / ``[d,N]`` path (commit 2d8af2d): every detection
of ``predict`` in full, and a SHA-256 digest of the float64 bytes of the
encoder memory and the final decoder embeddings.  Today one image is a
batch of one, and each number must come out bit for bit the same.

Threaded BLAS products may sum in another order, so the images run in a
child process with one OpenBLAS thread, the setting the fixture was
recorded with (on an x86-64 host; a CPU that selects other BLAS kernels
may round differently).  ``OPENBLAS_NUM_THREADS=1 python
tests/test_parity.py --record`` rewrites the fixture from the current
code; do that only when the model's arithmetic changes on purpose.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from setdet.data import VAL_NAMESPACE, SyntheticConfig, build_dataset, grid_instances_scene
from setdet.detector import Detector, ModelConfig

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "single_image_parity.json")
SEED = 11
POOL = 4


def images():
    """4 val images at 64 px, then 4 ``grid_instances_scene`` images at 120 px."""
    cfg = SyntheticConfig()
    out = [s.image for s in build_dataset(cfg, POOL, VAL_NAMESPACE, SEED)]
    for i in range(POOL):
        rng = np.random.default_rng([SEED, 5, i])
        cls, count = int(rng.integers(cfg.num_classes)), int(rng.integers(5, 101))
        out.append(grid_instances_scene(cls, count, rng, side=120,
                                        num_classes=cfg.num_classes).image)
    return out


def model(query_encoding="attn"):
    return Detector(ModelConfig(query_encoding=query_encoding), np.random.default_rng(SEED))


def digest(array):
    return [list(array.shape), hashlib.sha256(np.ascontiguousarray(array, "<f8").tobytes())
            .hexdigest()]


def detections(image, net):
    return [[d.class_id, d.confidence, d.box.tolist()] for d in net.predict(image)]


def internals(image, net):
    _, memory, embs = net.forward_with_internals(image[None])
    return {"memory": digest(memory.data[0]), "embeddings": digest(embs.data[0])}


def observe():
    pool = images()
    net = model()
    return {
        "detections": [detections(image, net) for image in pool],
        "internals": {mode: [internals(pool[i], model(mode)) for i in (0, POOL)]
                      for mode in ("attn", "input")},
    }


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


def test_predict_detections_bitwise(observed, recorded):
    assert len(recorded["detections"]) == 2 * POOL
    for i, (got, want) in enumerate(zip(observed["detections"], recorded["detections"])):
        assert got == want, f"image {i}"


@pytest.mark.parametrize("mode", ["attn", "input"])
def test_memory_and_embeddings_bitwise(observed, recorded, mode):
    assert observed["internals"][mode] == recorded["internals"][mode]


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with open(FIXTURE, "w") as fh:
            json.dump(observe(), fh, indent=1)
            fh.write("\n")
    else:
        json.dump(observe(), sys.stdout)
