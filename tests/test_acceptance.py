"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The training runs are small enough for a few minutes of CPU total.
"""
import itertools
import math
import time

import numpy as np
import pytest

from helpers import finite_diff_check
from momentset import checkpoint as ckpt
from momentset import cli, datagen, evaluate, matching
from momentset.config import RunConfig
from momentset.datagen import ConceptVocabulary, Narration
from momentset.model import ModelConfig, MomentSetModel, init_params
from momentset.temporal import TemporalTable


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num} [{name}]: {status} ({detail})", flush=True)
    assert ok, f"acceptance {num} [{name}] failed: {detail}"


# ---------------------------------------------------------------------------
# shared training runs
# ---------------------------------------------------------------------------

def overfit_config():
    return RunConfig(seed=7, videos=1, duration=120.0, fps=6,
                     chunk_seconds=30.0, vocab_size=12, moments_per_video=4,
                     noise_level=0.1, lr=1e-3, epochs=1500, batch_size=4,
                     freeze_intervals=True, loss_bias_init=0.0)


def recognition_config():
    return RunConfig(seed=11, videos=32, duration=60.0, fps=6,
                     chunk_seconds=30.0, vocab_size=8, moments_per_video=4,
                     noise_level=0.1, lr=1e-3, epochs=200, batch_size=8)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    cfg = overfit_config()
    data = tmp_path_factory.mktemp("overfit_data")
    out = tmp_path_factory.mktemp("overfit_out")
    cli.cmd_generate(cfg, data, force=True)
    cli.cmd_train(cfg, data, out)
    return cfg, data, out


@pytest.fixture(scope="module")
def recognition_run(tmp_path_factory):
    cfg = recognition_config()
    data = tmp_path_factory.mktemp("recog_data")
    out = tmp_path_factory.mktemp("recog_out")
    cli.cmd_generate(cfg, data, force=True)
    _, _, videos = cli.load_dataset(data)
    vids = sorted(videos)
    train_ids, heldout_ids = vids[:24], vids[24:]
    cli.cmd_train(cfg, data, out, video_ids=train_ids)
    return cfg, data, out, heldout_ids


def restored_model(cfg, ckpt_path):
    model, _ = ckpt.restore(ckpt.load_checkpoint(ckpt_path), cfg)
    return model


# ---------------------------------------------------------------------------
# 1. Hungarian assignment equals the exhaustive-permutation optimum
# ---------------------------------------------------------------------------

def test_acceptance_1_hungarian_oracle():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        cost = rng.standard_normal((n, m))
        assign = matching.hungarian(cost)
        got = float(cost[assign, np.arange(m)].sum())
        best = min(sum(cost[perm[j], j] for j in range(m))
                   for perm in itertools.permutations(range(n), m))
        worst = max(worst, abs(got - best))
        checked += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, "hungarian oracle", ok,
           f"{checked} matrices, max optimum gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Analytic gradients match finite differences for every parameter group
# ---------------------------------------------------------------------------

def test_acceptance_2_gradient_integrity():
    start = time.monotonic()
    vocab = ConceptVocabulary.generate(6, 64, np.random.default_rng(0))
    chunk = datagen.generate_video(vocab, 3, 10.0, 6, 0.1, rng_seed=1)
    config = ModelConfig()
    model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))
    rng = np.random.default_rng(3)
    samples = matching.sample_chunk_intervals(chunk, rng)
    _, _, assignments = matching.batch_loss(model, vocab, [chunk], [samples])

    groups = {
        "conv": ["conv.w", "conv.b"],
        "attention": ["enc.0.attn.wq.w", "enc.1.attn.wv.w", "dec.0.self.wo.w",
                      "dec.1.cross.wk.w"],
        "ffn": ["enc.0.ffn.fc1.w", "dec.1.ffn.fc2.w", "enc.1.ffn.fc2.b"],
        "heads": ["head.visual.fc1.w", "head.visual.fc2.w",
                  "head.temporal.fc2.w"],
        "temporal_table": ["temporal.table"],
        "queries": ["queries"],
        "temperature": ["loss.log_t"],
        "bias": ["loss.b"],
    }

    def build():
        return matching.batch_loss(model, vocab, [chunk], [samples], assignments)[0]

    failures = []
    for group, names in groups.items():
        params = [model.params[n] for n in names]
        probes = max(5, math.ceil(5 / len(params)))
        try:
            finite_diff_check(build, params, rng, probes_per_param=probes)
        except AssertionError as e:
            failures.append(f"{group}: {e}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    report(2, "gradient integrity", ok,
           f"{len(groups)} parameter groups, {elapsed:.1f}s"
           + ("" if not failures else "; " + "; ".join(failures)))


# ---------------------------------------------------------------------------
# 3. Interval sampling respects support bounds and uniform moments
# ---------------------------------------------------------------------------

def test_acceptance_3_interval_sampling():
    rng = np.random.default_rng(4)
    narrs = [Narration(0, 2.0, 1.5, 2.5), Narration(1, 5.0, 4.0, 6.0),
             Narration(2, 9.0, 8.5, 9.5)]
    draws = [datagen.sample_interval(narrs, 1, 12.0, rng)
             for _ in range(10000)]
    starts = np.array([d.start for d in draws])
    ends = np.array([d.end for d in draws])
    in_bounds = bool(np.all((starts >= 2.0) & (starts <= 5.0)
                            & (ends >= 5.0) & (ends <= 9.0)))
    checks = [
        ("start mean", starts.mean(), 3.5),
        ("start var", starts.var(), 9.0 / 12.0),
        ("end mean", ends.mean(), 7.0),
        ("end var", ends.var(), 16.0 / 12.0),
    ]
    devs = {name: abs(got - want) / want for name, got, want in checks}
    ok = in_bounds and all(d <= 0.02 for d in devs.values())
    detail = ", ".join(f"{k} dev {v:.3%}" for k, v in devs.items())
    report(3, "interval sampling", ok,
           f"bounds {'exact' if in_bounds else 'VIOLATED'}, {detail}")


# ---------------------------------------------------------------------------
# 4. Overfit convergence on one synthetic video
# ---------------------------------------------------------------------------

def test_acceptance_4_overfit_convergence(overfit_run):
    cfg, data, out = overfit_run
    rows = (out / cli.TRAIN_LOG_NAME).read_text().strip().splitlines()[1:]
    first_loss = float(rows[0].split(",")[1])
    final_loss = float(rows[-1].split(",")[1])

    model = restored_model(cfg, out / cli.CHECKPOINT_NAME)
    _, vocab, videos = cli.load_dataset(data)
    chunks = [c for cs in videos.values() for c in cs]
    rng_fix = np.random.default_rng([cfg.seed, 4])
    fixed = {c.video_id: matching.sample_chunk_intervals(c, rng_fix)
             for c in chunks if c.narrations}
    matched = [[], [], []]
    unmatched = [[], [], []]
    for chunk in chunks:
        if not chunk.narrations:
            continue
        pred = model.forward(chunk.features)
        gt = matching.chunk_ground_truth(
            model, vocab, chunk, fixed[chunk.video_id])
        sims = matching.similarity_matrices(pred, gt)
        assignment = matching.hungarian(matching.build_cost(sims))
        cols = np.arange(len(assignment))
        for ch, s in enumerate(sims):
            mask = np.zeros(s.data.shape, dtype=bool)
            mask[assignment, cols] = True
            matched[ch].extend(s.data[mask])
            unmatched[ch].extend(s.data[~mask])
    m_means = [float(np.mean(v)) for v in matched]
    u_means = [float(np.mean(v)) for v in unmatched]
    ratio = final_loss / first_loss
    ok = (all(m > 0.9 for m in m_means) and all(u < -0.5 for u in u_means)
          and ratio < 0.25)
    report(4, "overfit convergence", ok,
           f"matched {[f'{m:.3f}' for m in m_means]}, "
           f"unmatched {[f'{u:.3f}' for u in u_means]}, "
           f"loss ratio {ratio:.2e}")


# ---------------------------------------------------------------------------
# 5. Zero-shot NLQ round trip on the overfit video
# ---------------------------------------------------------------------------

def test_acceptance_5_nlq_round_trip(overfit_run, tmp_path):
    cfg, data, out = overfit_run
    rep = cli.cmd_eval(cfg, data, tmp_path, "nlq",
                       checkpoint_path=out / cli.CHECKPOINT_NAME)
    r1 = rep["recall"]["1"]["0.3"]
    r5 = rep["recall"]["5"]["0.3"]
    ok = r1 >= 0.5 and r5 >= 0.8
    report(5, "nlq round trip", ok,
           f"R@1={r1:.2f} R@5={r5:.2f} at IoU 0.3 "
           f"(full grid {rep['recall']})")


# ---------------------------------------------------------------------------
# 6. Zero-shot recognition beats the random-ranking baseline on held-out data
# ---------------------------------------------------------------------------

def _heldout_map(cfg, model, data, heldout_ids):
    manifest, vocab, videos = cli.load_dataset(data)
    videos = {v: videos[v] for v in heldout_ids}
    rep = cli.eval_recognition(cfg, model, vocab, manifest, videos)
    labels = np.zeros((len(heldout_ids), vocab.size), dtype=bool)
    for r, vid in enumerate(sorted(videos)):
        labels[r, manifest["videos"][vid]["labels"]] = True
    return rep["map"], labels


def test_acceptance_6_recognition_sanity(recognition_run):
    cfg, data, out, heldout_ids = recognition_run
    trained = restored_model(cfg, out / cli.CHECKPOINT_NAME)
    trained_map, labels = _heldout_map(cfg, trained, data, heldout_ids)
    untrained = cli.build_model(cfg)
    untrained_map, _ = _heldout_map(cfg, untrained, data, heldout_ids)

    rng = np.random.default_rng(0)
    null = [evaluate.video_map(rng.standard_normal(labels.shape), labels)
            for _ in range(500)]
    base_mean, base_std = float(np.mean(null)), float(np.std(null))
    z = abs(untrained_map - base_mean) / base_std
    ok = trained_map >= 0.7 and z <= 4.0
    report(6, "recognition sanity", ok,
           f"held-out mAP {trained_map:.3f} (trained) vs {untrained_map:.3f} "
           f"(untrained), random baseline {base_mean:.3f}+-{base_std:.3f}, "
           f"untrained z={z:.2f}")


# ---------------------------------------------------------------------------
# 7. Temporal-embedding round trip
# ---------------------------------------------------------------------------

def test_acceptance_7_temporal_round_trip():
    rows, d, duration = 64, 64, 120.0
    table = TemporalTable.init_sinusoidal(rows, d)
    grid = [i / (rows - 1) * duration for i in range(rows)]
    exact = all(
        table.decode_timestamp(table.embed_timestamps([t], duration).data,
                               duration) == t
        for t in grid)
    ident = np.array_equal(table.interpolate(rows).data, table.table.data)
    ok = exact and ident
    report(7, "temporal round trip", ok,
           f"{rows} grid timestamps decoded exactly: {exact}, "
           f"interpolation identity at T0: {ident}")


# ---------------------------------------------------------------------------
# 8. Metric implementations match brute-force references
# ---------------------------------------------------------------------------

def _reference_map(scores, labels):
    aps = []
    for k in range(scores.shape[1]):
        if not labels[:, k].any():
            continue
        order = np.argsort(-scores[:, k], kind="stable")
        hits, precs = 0, []
        for rank, i in enumerate(order, 1):
            if labels[i, k]:
                hits += 1
                precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
    return sum(aps) / len(aps)


def _reference_recall(gts, preds, k, thr):
    hits = 0
    for gt, ps in zip(gts, preds):
        for p in ps[:k]:
            inter = max(0.0, min(p[1], gt[1]) - max(p[0], gt[0]))
            union = max(p[1], gt[1]) - min(p[0], gt[0])
            if union > 0 and inter / union >= thr:
                hits += 1
                break
    return hits / len(gts)


def test_acceptance_8_metric_oracles():
    rng = np.random.default_rng(5)
    map_bad = recall_bad = 0
    for _ in range(50):
        v, k = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        scores = rng.standard_normal((v, k))
        labels = rng.integers(0, 2, (v, k)).astype(bool)
        labels[int(rng.integers(0, v))] = True
        if evaluate.video_map(scores, labels) != _reference_map(scores, labels):
            map_bad += 1
    for _ in range(50):
        nq = int(rng.integers(1, 9))
        gts = [tuple(sorted(rng.uniform(0, 10, 2))) for _ in range(nq)]
        preds = [[tuple(sorted(rng.uniform(0, 10, 2)))
                  for _ in range(int(rng.integers(1, 7)))] for _ in range(nq)]
        kk = int(rng.integers(1, 7))
        thr = float(rng.uniform(0.05, 0.9))
        if evaluate.nlq_recall(gts, preds, kk, thr) != \
                _reference_recall(gts, preds, kk, thr):
            recall_bad += 1
    ok = map_bad == 0 and recall_bad == 0
    report(8, "metric oracles", ok,
           f"video_map mismatches {map_bad}/50, "
           f"nlq_recall mismatches {recall_bad}/50")


# ---------------------------------------------------------------------------
# 9. Persistence round trips and deterministic resume
# ---------------------------------------------------------------------------

def test_acceptance_9_persistence(tmp_path):
    cfg = RunConfig(seed=5, videos=3, duration=12.0, fps=2, chunk_seconds=6.0,
                    vocab_size=4, moments_per_video=2, noise_level=0.1,
                    feature_dim=8, model_dim=8, conv_kernel=2, enc_layers=1,
                    dec_layers=1, heads=2, head_dim=4, queries=4,
                    temporal_rows=8, ffn_hidden=16, lr=1e-3, epochs=2,
                    batch_size=2)
    vocab = ConceptVocabulary.generate(4, 8, np.random.default_rng(0))
    rec = datagen.generate_video(vocab, 2, 12.0, 2, 0.1, rng_seed=1,
                                 video_id="v")
    p1, p2 = tmp_path / "a.maln", tmp_path / "b.maln"
    datagen.store(rec, p1)
    datagen.store(datagen.load(p1, "v", 12.0, 2), p2)
    features_ok = p1.read_bytes() == p2.read_bytes()

    model = cli.build_model(cfg)
    opt = cli.build_optimizer(cfg, model)
    c1, c2 = tmp_path / "a.malc", tmp_path / "b.malc"
    ckpt.save_checkpoint(c1, cfg, model, opt, epochs_done=0)
    model2, opt2 = ckpt.restore(ckpt.load_checkpoint(c1), cfg)
    ckpt.save_checkpoint(c2, cfg, model2, opt2, epochs_done=0)
    checkpoint_ok = c1.read_bytes() == c2.read_bytes()

    data = tmp_path / "data"
    cli.cmd_generate(cfg, data)
    full_cfg = RunConfig(**{**cfg.to_dict(), "epochs": 4})
    full, part = tmp_path / "full", tmp_path / "part"
    cli.cmd_train(full_cfg, data, full)
    cli.cmd_train(cfg, data, part)
    cli.cmd_train(full_cfg, data, part, resume_from=part / cli.CHECKPOINT_NAME)
    resume_ok = (
        (full / cli.TRAIN_LOG_NAME).read_bytes()
        == (part / cli.TRAIN_LOG_NAME).read_bytes()
        and (full / cli.CHECKPOINT_NAME).read_bytes()
        == (part / cli.CHECKPOINT_NAME).read_bytes())

    ok = features_ok and checkpoint_ok and resume_ok
    report(9, "persistence", ok,
           f"feature store bit-exact: {features_ok}, checkpoint bit-exact: "
           f"{checkpoint_ok}, resume replay identical: {resume_ok}")
