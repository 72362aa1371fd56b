"""Acceptance gate: ten end-to-end guarantees, one printed line each.

Run with plain ``pytest``; the per-criterion PASS/FAIL lines are written
straight to the original stdout so they appear even when pytest captures
test output.
"""

import filecmp
import json
import os
import sys
import time

import numpy as np

import conftest
from fvlrp.cli import main as cli_main
from fvlrp.config import PipelineConfig
from fvlrp.evaluation import compare_orderings, context_report
from fvlrp.lrp_fv import explain
from fvlrp.pipeline import train_all
from fvlrp.synth import artefact_pair_spec, generate_corpus, inject_artefact, two_class_spec
from fvlrp.verification import (check_em, check_epsilon_violation,
                                check_hellinger, check_incremental_fv,
                                check_nn_rules, check_r3_conservation,
                                check_streaming_oracle)


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.acceptance_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)


def settle(num: int, name: str, ok: bool, detail: str) -> None:
    announce(num, name, ok, detail)
    assert ok, f"criterion {num} {name}: {detail}"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def test_criterion_01_conservation_suite():
    result, elapsed = timed(check_r3_conservation, cases=200)
    ok = result.passed and elapsed < 30.0
    settle(1, "conservation", ok, f"{result.detail}; {elapsed:.1f}s")


def test_criterion_02_hellinger_identity():
    result, elapsed = timed(check_hellinger, pairs=1000)
    ok = result.passed and elapsed < 5.0
    settle(2, "hellinger", ok, f"{result.detail}; {elapsed:.1f}s")


def test_criterion_03_epsilon_violation_measured():
    result = check_epsilon_violation()
    settle(3, "epsilon-violation", result.passed, result.detail)


def test_criterion_04_oracle_equivalence():
    streaming = check_streaming_oracle(cases=100)
    incremental = check_incremental_fv(cases=100, steps=20)
    ok = streaming.passed and incremental.passed
    settle(4, "oracle-equivalence", ok,
           f"{streaming.detail}; {incremental.detail}")


def test_criterion_05_nn_rule_conservation():
    result = check_nn_rules(nets=50)
    settle(5, "nn-rules", result.passed, result.detail)


def test_criterion_06_em_correctness():
    result = check_em(runs=50)
    settle(6, "em", result.passed, result.detail)


def test_criterion_07_replacement_ordering_beats_random():
    start = time.perf_counter()
    spec = two_class_spec(0.0, seed=0, train_per_class=100, test_per_class=20)
    train_imgs, test_imgs = generate_corpus(spec)
    config = PipelineConfig(seed=0)
    bundle = train_all(train_imgs, spec.class_names, config, with_nn=False)

    reps = config.morf_repetitions
    lrp_areas, rand_rep = [], np.zeros(reps)
    for cls in spec.class_names:
        mine = [im for im in test_imgs if cls in im.labels]
        rep = compare_orderings(mine, cls, bundle.gmm, bundle.pca, bundle.svm,
                                variants=("epsilon",), epsilon=100.0,
                                batch=config.morf_batch,
                                steps=config.morf_steps,
                                repetitions=reps, seed=0)
        lrp_areas.append(rep.stats["lrp-epsilon"].area)
        rand_rep += np.asarray(rep.per_repetition_area["random"])
    rand_rep /= len(spec.class_names)
    a_lrp = float(np.mean(lrp_areas))
    a_rand = float(np.mean(rand_rep))
    se_rand = float(np.std(rand_rep, ddof=1)) / np.sqrt(reps)
    margin = a_lrp - a_rand
    elapsed = time.perf_counter() - start
    ok = margin >= 3.0 * se_rand and elapsed < 600.0
    settle(7, "replacement-ordering", ok,
           f"A_lrp={a_lrp:.5f} A_rand={a_rand:.5f} "
           f"margin={margin:.5f} vs 3*SE={3 * se_rand:.5f}; {elapsed:.0f}s")


def _pooled_mu(values_by_class):
    mus = [r.mu for ratios in values_by_class.values() for r in ratios]
    return float(np.mean(mus)) if mus else None


def test_criterion_08_context_ratio_direction():
    per_seed = []
    details = []
    for seed in range(5):
        config = PipelineConfig(train_per_class=60, test_per_class=15,
                                seed=seed)
        mu = {}
        for rho in (1.0, 0.0):
            spec = two_class_spec(rho, seed=seed, train_per_class=60,
                                  test_per_class=15)
            train_imgs, test_imgs = generate_corpus(spec)
            bundle = train_all(train_imgs, spec.class_names, config,
                               with_nn=True)
            report = context_report(test_imgs, bundle.gmm, bundle.pca,
                                    bundle.svm, bundle.net)
            mu[rho] = (_pooled_mu(report.fv_values),
                       _pooled_mu(report.nn_values))
        fv1, nn1 = mu[1.0]
        fv0, _ = mu[0.0]
        holds = (fv1 is not None and fv0 is not None and nn1 is not None
                 and fv1 >= 1.5 * fv0 and nn1 < fv1)
        per_seed.append(holds)
        factor = (fv1 / fv0) if fv1 and fv0 else float("nan")
        details.append(f"s{seed}:{'ok' if holds else 'NO'} "
                       f"x{factor:.1f} nn={nn1:.2f} fv={fv1:.2f}")
    ok = sum(per_seed) >= 4
    settle(8, "context-ratio", ok,
           f"{sum(per_seed)}/5 seeds; " + " ".join(details))


def test_criterion_09_artefact_dominates_heatmap():
    spec = artefact_pair_spec(seed=0, train_per_class=60, test_per_class=20)
    train_imgs, test_imgs = generate_corpus(spec)
    train_imgs = [inject_artefact(im, "tagged") for im in train_imgs]
    test_imgs = [inject_artefact(im, "tagged") for im in test_imgs]
    config = PipelineConfig(train_per_class=60, test_per_class=20, seed=0)
    bundle = train_all(train_imgs, spec.class_names, config, with_nn=False)

    tag_masses, corner_masses = [], []
    positives = 0
    tagged = [im for im in test_imgs if "tagged" in im.labels]
    for im in tagged:
        expl = explain(im.image, bundle.gmm, bundle.pca, bundle.svm, "tagged")
        if not expl.prediction_positive:
            continue
        positives += 1
        heat = np.maximum(expl.heatmap.values, 0.0)
        w, h = im.image.width, im.image.height
        placed = next(f for f in im.flags if f.startswith("tag-at-"))
        tx, ty = map(int, placed.split("-")[2:])
        corners = {(x, y) for x in (0, w - 8) for y in (0, h - 8)}
        tag_masses.append(heat[ty:ty + 8, tx:tx + 8].sum())
        corner_masses.append([heat[y:y + 8, x:x + 8].sum()
                              for x, y in sorted(corners - {(tx, ty)})])
    tag_mean = float(np.mean(tag_masses))
    other_means = np.mean(np.asarray(corner_masses), axis=0)
    ok = positives > 0 and bool(np.all(tag_mean > 10.0 * other_means))
    settle(9, "artefact-detection", ok,
           f"{positives}/{len(tagged)} true positives; tag mass {tag_mean:.2e} "
           f"vs corners {[f'{m:.2e}' for m in other_means]}")


def test_criterion_10_byte_identical_runs(tmp_path):
    # the run the golden digest pins, so the two gates cannot drift apart
    regen = conftest.golden_regen()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(regen.TINY))

    def run_pipeline(out_dir, threads):
        base = ["--config", str(config_path), "--out", str(out_dir),
                "--threads", str(threads)]
        for stage in regen.STAGES:
            assert cli_main([stage, *base]) == 0, stage
        image_id, cls = regen.first_test_image(str(out_dir))
        assert cli_main(["explain", *base, "--image", image_id,
                         "--class", cls]) == 0
        assert cli_main(["morf-eval", *base]) == 0
        assert cli_main(["context-report", *base]) == 0

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(run_a, threads=1)
    run_pipeline(run_b, threads=4)

    files_a, files_b = [], []
    for root_dir, files in ((run_a, files_a), (run_b, files_b)):
        for base, _, names in os.walk(root_dir):
            files.extend(os.path.relpath(os.path.join(base, n), root_dir)
                         for n in names)
    same_set = sorted(files_a) == sorted(files_b)
    match, mismatch, errors = filecmp.cmpfiles(run_a, run_b, files_a,
                                               shallow=False)
    ok = same_set and not mismatch and not errors
    settle(10, "determinism", ok,
           f"{len(match)} files byte-identical across --threads 1 vs 4"
           + ("" if ok else f"; mismatch={mismatch} errors={errors}"))
