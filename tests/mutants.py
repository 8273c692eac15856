"""Mutation check: each listed mutant of ``src`` must fail its named tests.

    python3 tests/mutants.py [mutant name ...]

Each entry of ``MUTANTS`` is a file under ``src/setdet``, an exact source
snippet that must occur in it once, its replacement, and the test ids that
must fail once the snippet is replaced.  The script copies ``src``,
``tests`` and ``pyproject.toml`` to a temporary directory and runs every
named test there once unmutated, which must pass.  Then, for each mutant,
it patches the copy, runs only that mutant's tests, and restores the file.
It reports each mutant as killed or survived and exits 1 when one survives,
or when a snippet is no longer found exactly once, so the list must follow
a refactor of the code it names.  With names given, only those mutants
run.  pytest does not collect this file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/setdet, snippet, replacement, test ids that must fail)
MUTANTS = (
    ("matcher takes IoU > threshold, not >=", "evaluation.py",
     "hit = (took[i] < 0) & (top >= thresholds)",
     "hit = (took[i] < 0) & (top > thresholds)",
     ["tests/test_evaluation.py::TestGreedyMatch::test_against_per_threshold_loop"]),
    ("ranking by confidence is not stable on ties", "evaluation.py",
     'rank = np.argsort(-scores, kind="stable")',
     'rank = np.argsort(-scores, kind="quicksort")',
     ["tests/test_evaluation.py::TestFrozenReports"]),
    ("outcomes are read back without the confidence rank", "evaluation.py",
     "outcomes = outcomes.transpose(1, 0, 2)[:, det_real][:, rank]",
     "outcomes = outcomes.transpose(1, 0, 2)[:, det_real]",
     ["tests/test_evaluation.py::TestFrozenReports"]),
    ("the im2col index map swaps uy and ux", "tensor.py",
     "         + np.arange(kh)[None, None, None, :, None] - padding)\n"
     "    x = (np.arange(Wo)[None, :, None, None, None] * stride\n"
     "         + np.arange(kw)[None, None, None, None, :] - padding)\n",
     "         + np.arange(kw)[None, None, None, None, :] - padding)\n"
     "    x = (np.arange(Wo)[None, :, None, None, None] * stride\n"
     "         + np.arange(kh)[None, None, None, :, None] - padding)\n",
     ["tests/test_tensor.py::TestConv2d::test_forward_bitwise_matches_window"]),
    ("conv2d's padding taps are not zeroed", "tensor.py",
     "            cols[lo:hi].reshape(hi - lo, -1)[:, pads] = 0.0\n",
     "",
     ["tests/test_tensor.py::TestConv2d::test_forward_bitwise_matches_window"]),
    ("one image's conv2d x-gradient adds out of index order", "tensor.py",
     "gx[i] = np.bincount(taps, weights=gcols[i * rows:(i + 1) * rows].ravel(),",
     "gx[i] = np.bincount(taps[::-1] if i == B - 1 else taps, "
     "weights=gcols[i * rows:(i + 1) * rows].ravel()[::-1] if i == B - 1 "
     "else gcols[i * rows:(i + 1) * rows].ravel(),",
     ["tests/test_tensor.py::TestConv2d::test_x_gradient_bitwise_matches_scatter"]),
    ("the cached im2col index map is left writable", "tensor.py",
     "    index.flags.writeable = pads.flags.writeable = False\n",
     "    pads.flags.writeable = False\n",
     ["tests/test_tensor.py::TestConv2d::test_index_map_is_read_only_and_shared"]),
    ("chunked forward returns chunks as they complete", "training.py",
     "return list(pool.map(run, starts))",
     "return [f.result() for f in __import__('concurrent.futures').futures"
     ".as_completed([pool.submit(run, lo) for lo in starts])]",
     ["tests/test_training.py::TestPredictBatch"]),
    ("padded IoU pairs are not masked to -1", "evaluation.py",
     "ious = np.where(det_real[:, :, None] & gt_real[:, None, :], "
     "iou_matrix(dets, gts), -1.0)",
     "ious = iou_matrix(dets, gts)",
     ["tests/test_evaluation.py::TestBatchedClassAp::test_ragged_edge_cases_equal_per_image"]),
    ("mask rows lack the b*N offset of their image", "training.py",
     "rows = np.concatenate([b * n_slots + slot_of_target[i]",
     "rows = np.concatenate([slot_of_target[i]",
     ["tests/test_panoptic_parity.py::test_trained_head_parameters"]),
    ("train() does not zero the gradients", "training.py",
     "            model.zero_grad()\n"
     "            out = model.forward(images, train=True, rng=rng_step)\n",
     "            out = model.forward(images, train=True, rng=rng_step)\n",
     ["tests/test_training.py::TestTrainLoop::test_metrics_equal_the_recorded_run"]),
    ("attention softmax without the max subtraction", "tensor.py",
     "            p -= p.max(axis=-1, keepdims=True)\n",
     "",
     ["tests/test_tensor.py::TestAttention"]),
    ("linear adds the bias after the ReLU", "tensor.py",
     "        out += b.data\n"
     "        mask = None\n"
     "        if relu:\n"
     "            mask = out > 0\n"
     "            out *= mask\n",
     "        mask = None\n"
     "        if relu:\n"
     "            mask = out > 0\n"
     "            out *= mask\n"
     "        out += b.data\n",
     ["tests/test_tensor.py::TestLinear"]),
    ("a split linear adds the bias after the ReLU", "tensor.py",
     "            o += b.data\n"
     "            if mask is not None:\n"
     "                np.greater(o, 0, out=mask[lo:hi])\n"
     "                o *= mask[lo:hi]\n",
     "            if mask is not None:\n"
     "                np.greater(o, 0, out=mask[lo:hi])\n"
     "                o *= mask[lo:hi]\n"
     "            o += b.data\n",
     ["tests/test_tensor.py::TestLinear"]),
    ("dropout backward drops the 1/(1-p) scale", "tensor.py",
     "        scaled = kept / (1.0 - p)\n        scaled *= g\n",
     "        scaled = kept * 1.0\n        scaled *= g\n",
     ["tests/test_tensor.py::TestDropout"]),
    ("backward keeps a walked node's parents", "tensor.py",
     "                node._parents = node._versions = ()\n",
     "                node._versions = ()\n",
     ["tests/test_tape.py::TestFreeingWalk::test_default_step_keeps_only_leaf_and_root_gradients",
      "tests/test_tape.py::TestFreeingWalk::test_default_step_peaks_at_its_tape_and_frees_it"]),
    ("backward marks no walked node as spent", "tensor.py",
     "                node._backward = _spent\n",
     "                node._backward = None\n",
     ["tests/test_tape.py::TestRefusedWalks::test_second_walk",
      "tests/test_tape.py::TestRefusedWalks::test_new_loss_on_spent_node"]),
    ("AdamW.step does not bump the version it writes", "training.py",
     "                p.tensor._version += 1",
     "                pass",
     ["tests/test_tape.py::TestInPlaceWrites::test_adamw_step_before_backward"]),
    ("objects are drawn under earlier ones", "data.py",
     "        labels[rows, cols][mask] = len(palette)\n",
     "        labels[rows, cols][mask & (labels[rows, cols] < num_bands)] = len(palette)\n",
     ["tests/test_data.py::TestDenseReference::test_generate_scene"]),
    ("a stuff box's mask label is off by one", "data.py",
     "mask_labels.append(band)",
     "mask_labels.append(band + 1)",
     ["tests/test_data.py::TestDenseReference::test_generate_scene"]),
    ("the image is read by fancy indexing, not np.take", "data.py",
     "return np.take(self.palette, self.labels, axis=1)",
     "return self.palette[:, self.labels]",
     ["tests/test_data.py::TestLabelStorage::test_image_is_a_fresh_contiguous_read"]),
    ("a label equal to the palette size is accepted", "data.py",
     "if labels.size and labels.max() >= size:",
     "if labels.size and labels.max() > size:",
     ["tests/test_data.py::TestMalformedStorage::test_rejected_naming_the_field"]),
    ("check_real admits inf at an open infinite bound", "layers.py",
     "value < high if high_open",
     "value <= high if high_open",
     ["tests/test_training.py::TestTrainConfig::test_float_fields_checked[clip_norm-inf]"]),
    ("the class count leaves out the boxed stuff bands", "data.py",
     "return self.num_classes + self.include_stuff_boxes * self.stuff_classes",
     "return self.num_classes",
     ["tests/test_training.py::TestTrainConfig::test_targets_must_fit_the_model[stuff-boxes]"]),
    ("train() reports a loss error as divergence", "training.py",
     "            loss, comps = total_loss(out, targets, cfg.loss, aux=cfg.aux_loss)\n",
     "            try:\n"
     "                loss, comps = total_loss(out, targets, cfg.loss, aux=cfg.aux_loss)\n"
     "            except ValueError as exc:\n"
     "                raise TrainingDivergedError(f\"non-finite model output: {exc}\") from exc\n",
     ["tests/test_training.py::TestTrainLoop::test_loss_errors_are_not_divergence"]),
    ("the Hungarian scan sends ties to the higher slot", "matching.py",
     "if minv[j] < delta:",
     "if minv[j] <= delta:",
     ["tests/test_matching.py::TestBatchRank::test_tie_heavy_integer_matrices"]),
    ("padded cost rows reach the solve", "matching.py",
     "hungarian_assign(cost[b, :len(t)])",
     "hungarian_assign(cost[b])",
     ["tests/test_matching.py::TestBatchRank::test_assignments_equal"]),
    ("the cost accepts the no-object index as a target class", "matching.py",
     "(classes >= k_plus_1 - 1)",
     "(classes > k_plus_1 - 1)",
     ["tests/test_matching.py::TestTargetClassRange::test_cost_matrix_rejects[2]"]),
    ("TrainConfig does not compare the model's and the data's image side", "training.py",
     "if self.model.image_side != self.data.image_side:",
     "if False:",
     ["tests/test_training.py::TestTrainConfig::test_model_and_data_sides_must_agree"]),
    ("the loss normalizer counts the objects of every layer", "matching.py",
     "denom = float(max(1, sum(len(t) for t in target_sets)))",
     "denom = float(max(1, sum(len(t) for t in target_sets))) * layers",
     ["tests/test_matching.py::TestStackedLoss::test_normalized_per_layer_not_per_stack"]),
    ("assignments are paired with target sets image-major", "matching.py",
     "        b = i % batch\n",
     "        b = i // layers\n",
     ["tests/test_matching.py::TestStackedLoss::test_equals_per_layer_loop"]),
    ("the loss does not count target sets and assignments", "matching.py",
     "if len(target_sets) != batch or len(assignments) != layers * batch:",
     "if False:",
     ["tests/test_matching.py::TestStackedLoss::test_counts_checked"]),
    ("take's gradient keeps the source's memory order", "tensor.py",
     "acc = np.zeros(a.shape)",
     "acc = np.zeros_like(a.data)",
     ["tests/test_tape.py::TestStackedLayers::test_default_step_gradients_equal_per_layer_loop"]),
    ("a window one pixel short on the high side", "data.py",
     "math.floor(centre + half) + 2, side)",
     "math.floor(centre + half) + 1, side)",
     ["tests/test_data.py::TestWindowedRaster::test_window_keeps_a_pixel_of_margin"]),
    ("the overlap counted on the previous object's window", "data.py",
     "        y0, y1 = max(rows.start, prev_rows.start), min(rows.stop, prev_rows.stop)\n"
     "        x0, x1 = max(cols.start, prev_cols.start), min(cols.stop, prev_cols.stop)\n",
     "        y0, y1 = prev_rows.start, prev_rows.stop\n"
     "        x0, x1 = prev_cols.start, prev_cols.stop\n",
     ["tests/test_data.py::TestWindowedRaster::test_visibility_equals_the_full_frame_count",
      "tests/test_data.py::TestDenseReference::test_generate_scene"]),
    ("the window offset dropped from _extent_box", "data.py",
     "    y0, y1 = rows[0] + top, rows[-1] + top\n"
     "    x0, x1 = cols[0] + left, cols[-1] + left\n",
     "    y0, y1 = rows[0], rows[-1]\n"
     "    x0, x1 = cols[0], cols[-1]\n",
     ["tests/test_data.py::TestWindowedRaster::test_equals_the_full_frame_raster",
      "tests/test_data.py::TestDenseReference::test_generate_scene"]),
    ("the helper's half starts one slice late", "tensor.py",
     "upper = _helper().submit(fn, mid, n)",
     "upper = _helper().submit(fn, mid + 1, n)",
     ["tests/test_tensor.py::TestSpareCore::test_halves_cover_every_slice_once"]),
    ("the spare-core token is not released on an exception", "tensor.py",
     "            upper.result()\n"
     "    finally:\n"
     "        _SPARE_CORE.release()\n",
     "            upper.result()\n"
     "    except BaseException:\n"
     "        raise\n"
     "    _SPARE_CORE.release()\n",
     ["tests/test_tensor.py::TestSpareCore::test_error_reaches_the_caller_and_frees_the_token"]),
    ("the join ends at the poll's deadline, before a slow helper's half", "tensor.py",
     "                wait((upper,))\n",
     "",
     ["tests/test_tensor.py::TestSpareCore::test_caller_error_waits_for_a_slow_helper"]),
    ("_map_chunks does not hold the spare-core token", "training.py",
     "with T._SPARE_CORE, ThreadPoolExecutor(workers) as pool:",
     "with ThreadPoolExecutor(workers) as pool:",
     ["tests/test_spare_core.py::test_multi_chunk_predict_batch_hands_nothing_to_the_helper"]),
)


def passes(workdir: Path, tests: list) -> bool:
    """Run ``tests`` in ``workdir``; True when they all pass."""
    # -B: no bytecode cache, which a same-size rewrite could leave stale
    cmd = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=workdir, capture_output=True).returncode == 0


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in chosen}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        every = sorted({t for m in chosen for t in m[4]})
        if not passes(work, every):
            print("FAIL the named tests do not all pass on the unmutated source")
            return 1
        for name, file, snippet, replacement, tests in chosen:
            path = work / "src" / "setdet" / file
            source = path.read_text()
            if source.count(snippet) != 1:
                print(f"MISSING {name}: the snippet occurs {source.count(snippet)} "
                      f"times in {file}")
                failed = True
                continue
            t0 = perf_counter()
            path.write_text(source.replace(snippet, replacement))
            try:
                killed = not passes(work, tests)
            finally:
                path.write_text(source)
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} "
                  f"({perf_counter() - t0:.1f} s)")
            failed |= not killed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
