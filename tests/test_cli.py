import hashlib
import json
import math
import resource
import shutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from momentset import checkpoint as ckpt
from momentset import cli, datagen
from momentset import tensor as tt
from momentset.config import RunConfig
from momentset.errors import (
    CheckpointError,
    ConfigError,
    FeatureStoreError,
    MomentSetError,
    ShapeError,
    TruncatedFileError,
)
from momentset.model import ModelConfig


def tiny_run_config(**kw):
    base = dict(seed=3, videos=3, duration=12.0, fps=2, chunk_seconds=6.0,
                vocab_size=4, moments_per_video=2, noise_level=0.1,
                feature_dim=8, model_dim=8, conv_kernel=2, enc_layers=1,
                dec_layers=1, heads=2, head_dim=4, queries=4,
                temporal_rows=8, ffn_hidden=16, lr=1e-3, epochs=2,
                batch_size=2)
    base.update(kw)
    return RunConfig(**base)


# keys that configs and checkpoint snapshots used to carry, at the values
# that are now constants: Adam's betas and epsilon, and the NLQ grid
REMOVED_KEYS = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8,
                "nlq_topk": [1, 5], "iou_thresholds": [0.3, 0.5]}


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def edit_snapshot(src: Path, dst: Path, edit):
    """Write checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    config snapshot."""
    blob = src.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    snapshot = json.loads(blob[12:12 + cfg_len])
    edit(snapshot)
    cfg_bytes = json.dumps(snapshot, sort_keys=True).encode()
    dst.write_bytes(struct.pack("<4sII", ckpt.MAGIC, ckpt.VERSION, len(cfg_bytes))
                    + cfg_bytes + blob[12 + cfg_len:])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = tiny_run_config()
    cli.cmd_generate(cfg, out)
    return cfg, out


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_run_config()
        assert RunConfig.from_dict(json.loads(cfg.to_json())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"not_a_field": 1})

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            tiny_run_config(model_dim=7, heads=1, head_dim=7).validate()
        with pytest.raises(ConfigError, match="heads"):
            tiny_run_config(heads=3).validate()
        for bad in ({"heads": -2, "head_dim": -4}, {"enc_layers": -1}, {"ffn_hidden": 0}):
            with pytest.raises(ConfigError, match=">= "):
                tiny_run_config(**bad).validate()

    def test_flat_schema_and_model_fields(self):
        assert sorted(RunConfig().to_dict()) == [
            "batch_size", "chunk_seconds", "conv_kernel",
            "dec_layers", "duration", "enc_layers", "epochs",
            "feature_dim", "ffn_hidden", "fps", "freeze_intervals", "head_dim",
            "heads", "loss_bias_init", "lr", "model_dim",
            "moments_per_video", "noise_level", "queries", "seed",
            "temporal_rows", "videos", "vocab_size", "workers"]
        assert RunConfig().model_config() == ModelConfig()

    def test_queries_need_only_fit_one_chunk(self):
        # 24 moments in a 600-s video, 2 in each 50-s chunk: 16 queries suffice
        RunConfig(duration=600, moments_per_video=24).validate()


class TestGenerate:
    def test_deterministic_byte_identical(self, dataset, tmp_path):
        cfg, out = dataset
        again = tmp_path / "again"
        cli.cmd_generate(cfg, again)
        assert tree_digest(out) == tree_digest(again)

    def test_chunk_count_arithmetic(self, dataset):
        cfg, out = dataset
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        total = sum(len(m["chunks"]) for m in manifest["videos"].values())
        assert total == cfg.videos * math.ceil(cfg.duration / cfg.chunk_seconds)

    def test_manifest_lists_every_chunk_file_once(self, dataset):
        _, out = dataset
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        listed = [c for m in manifest["videos"].values() for c in m["chunks"]]
        assert len(listed) == len(set(listed))
        on_disk = {f"chunks/{p.name}" for p in (out / "chunks").iterdir()}
        assert set(listed) == on_disk

    def test_refuses_non_empty_dir(self, dataset):
        cfg, out = dataset
        with pytest.raises(ConfigError, match="force"):
            cli.cmd_generate(cfg, out)

    def test_force_overwrites(self, dataset, tmp_path):
        cfg, _ = dataset
        target = tmp_path / "forced"
        target.mkdir()
        (target / "junk.txt").write_text("x")
        cli.cmd_generate(cfg, target, force=True)
        assert (target / cli.MANIFEST_NAME).exists()

    def test_workers_do_not_change_output(self, dataset, tmp_path):
        cfg, out = dataset
        cfg2 = tiny_run_config(workers=3)
        par = tmp_path / "par"
        cli.cmd_generate(cfg2, par)
        digest_a = {k: v for k, v in tree_digest(out).items() if k != cli.MANIFEST_NAME}
        digest_b = {k: v for k, v in tree_digest(par).items() if k != cli.MANIFEST_NAME}
        assert digest_a == digest_b


class TestLoadDataset:
    def test_unknown_video_id_is_a_config_error(self, dataset):
        _, data = dataset
        with pytest.raises(ConfigError, match="video9999"):
            cli.load_dataset(data, ["video0000", "video9999"])

    def test_reads_only_the_selected_videos(self, dataset, tmp_path):
        _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        for path in (bad / "chunks").glob("video0001_*"):
            path.unlink()
        _, _, videos = cli.load_dataset(bad, ["video0002", "video0000"])
        assert list(videos) == ["video0002", "video0000"]
        _, _, full = cli.load_dataset(data)
        for vid, chunks in videos.items():
            for a, b in zip(chunks, full[vid], strict=True):
                assert a.features.tobytes() == b.features.tobytes()
                assert a.narrations == b.narrations
        with pytest.raises(FeatureStoreError, match="video0001"):
            cli.load_dataset(bad)


class TestTrain:
    def test_log_rows_and_checkpoint(self, dataset, tmp_path):
        cfg, data = dataset
        out = tmp_path / "run"
        path = cli.cmd_train(cfg, data, out)
        assert path.exists()
        rows = (out / cli.TRAIN_LOG_NAME).read_text().strip().splitlines()
        _, _, videos = cli.load_dataset(data)
        chunks = sum(len(v) for v in videos.values())
        expect = cfg.epochs * math.ceil(chunks / cfg.batch_size)
        assert len(rows) == expect + 1  # header
        losses = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(np.isfinite(losses))

    def test_checkpoint_round_trip_bit_exact(self, dataset, tmp_path):
        cfg, data = dataset
        model = cli.build_model(cfg)
        opt = cli.build_optimizer(cfg, model)
        path = tmp_path / "a.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=0)
        data1 = ckpt.load_checkpoint(path)
        model2 = cli.build_model(cfg)
        for p in model2.params.values():
            p.data = p.data + 1.0  # perturb before restoring
        opt2 = cli.build_optimizer(cfg, model2)
        ckpt.restore(data1, cfg, model2, opt2)
        path2 = tmp_path / "b.malc"
        ckpt.save_checkpoint(path2, cfg, model2, opt2, epochs_done=0)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_writes_reference_bytes(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = cli.build_optimizer(cfg, model)
        rng = np.random.default_rng(0)
        for name, p in model.params.items():  # "queries" keeps zero moments
            p.grad = None if name == "queries" else rng.standard_normal(p.data.shape)
        opt.step()
        path = tmp_path / "s.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=2)
        tensors = {k: p.data for k, p in model.params.items()}
        for k, p in model.params.items():
            zeros = np.zeros(p.data.shape)
            tensors[f"opt.m.{k}"] = opt.m.get(k, zeros)
            tensors[f"opt.v.{k}"] = opt.v.get(k, zeros)
        assert "queries" not in opt.m
        cfg_bytes = cfg.to_json().encode()
        expect = [struct.pack("<4sII", b"MALC", 1, len(cfg_bytes)), cfg_bytes,
                  struct.pack("<QQI", 2, 1, len(tensors))]
        for name, arr in tensors.items():
            expect += [struct.pack("<I", len(name)), name.encode(),
                       struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
                       arr.astype("<f8").tobytes()]
        assert path.read_bytes() == b"".join(expect)

    def test_restore_rejects_config_mismatch(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = cli.build_optimizer(cfg, model)
        path = tmp_path / "c.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=0)
        other = tiny_run_config(lr=5e-4)
        with pytest.raises(CheckpointError, match=r"config does not match.*\(lr\)"):
            ckpt.restore(ckpt.load_checkpoint(path), other,
                         cli.build_model(other),
                         cli.build_optimizer(other, cli.build_model(other)))

    def test_restore_model_only_checks_model_fields(self, dataset, tmp_path):
        """The eval load takes the model from the checkpoint whatever the
        run's optimizer fields; a resume still rejects a differing model
        field."""
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "e.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        other = tiny_run_config(lr=2e-3, batch_size=3, freeze_intervals=True)
        loaded, target = ckpt.load_model(path, other)
        assert (loaded.lr, loaded.batch_size, loaded.freeze_intervals) == (2e-3, 3, True)
        assert sorted(target.params) == sorted(model.params)
        for k, p in model.params.items():
            np.testing.assert_array_equal(target.params[k].data, p.data)
        for change, field in (({"loss_bias_init": 0.0}, "loss_bias_init"),
                              ({"queries": 5}, "queries")):
            other = tiny_run_config(**change)
            with pytest.raises(CheckpointError, match=rf"config does not match.*\({field}\)"):
                ckpt.restore(ckpt.load_checkpoint(path), other,
                             cli.build_model(other),
                             cli.build_optimizer(other, cli.build_model(other)))

    def test_restore_ignores_runtime_fields(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "r.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        for change in ({"epochs": 9}, {"workers": 2}, {"seed": 11, "videos": 5}):
            other = tiny_run_config(**change)
            model2 = cli.build_model(other)
            ckpt.restore(ckpt.load_checkpoint(path), other, model2,
                         cli.build_optimizer(other, model2))

    def test_checkpoint_with_removed_config_keys_still_loads(self, dataset, tmp_path):
        """A checkpoint whose config snapshot still has REMOVED_KEYS resumes
        and evaluates exactly as one without them."""
        cfg, data = dataset
        for name in ("old", "new"):
            cli.cmd_train(cfg, data, tmp_path / name)
        path = tmp_path / "old" / cli.CHECKPOINT_NAME
        edit_snapshot(path, path, lambda snapshot: snapshot.update(REMOVED_KEYS))
        longer = tiny_run_config(epochs=3)
        for name in ("old", "new"):
            run = tmp_path / name
            cli.cmd_train(longer, data, run, resume_from=run / cli.CHECKPOINT_NAME)
            cli.cmd_eval(longer, data, run, "nlq", checkpoint_path=run / cli.CHECKPOINT_NAME)
        for f in (cli.TRAIN_LOG_NAME, "nlq_outcomes.csv", "report_nlq.json"):
            assert (tmp_path / "old" / f).read_bytes() == (tmp_path / "new" / f).read_bytes()

    def test_loaded_tensors_are_handed_over(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "h.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        data = ckpt.load_checkpoint(path)
        arrays = list(data.tensors.values())
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        model2 = cli.build_model(cfg)
        opt2 = cli.build_optimizer(cfg, model2)
        ckpt.restore(data, cfg, model2, opt2)
        for name, p in model2.params.items():
            assert p.data is data.tensors[name]
            assert opt2.m[name] is data.tensors[f"opt.m.{name}"]
            assert opt2.v[name] is data.tensors[f"opt.v.{name}"]

    def test_corrupt_tensor_shape_allocates_nothing(self, tmp_path):
        path = tmp_path / "shape.malc"
        for dims, error in (((2 ** 31, 2 ** 31), TruncatedFileError),
                            ((1,) * 65, CheckpointError)):
            path.write_bytes(
                struct.pack("<4sII", ckpt.MAGIC, ckpt.VERSION, 2) + b"{}"
                + struct.pack("<QQI", 0, 0, 1) + struct.pack("<I", 1) + b"x"
                + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + bytes(8))
            with pytest.raises(error, match="'x'"):
                ckpt.load_checkpoint(path)

    def test_restore_missing_moments_changes_nothing(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "m.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        for key in ("opt.m.queries", "opt.v.queries"):
            data = ckpt.load_checkpoint(path)
            del data.tensors[key]
            target = cli.build_model(cfg)
            for p in target.params.values():
                p.data = p.data + 1.0
            before = {k: p.data.copy() for k, p in target.params.items()}
            with pytest.raises(CheckpointError, match=key):
                ckpt.restore(data, cfg, target, cli.build_optimizer(cfg, target))
            for k, p in target.params.items():
                np.testing.assert_array_equal(p.data, before[k])

    def test_both_loaders_reject_an_extra_tensor(self, dataset, tmp_path):
        """A tensor outside the model fails the eval load and the resume
        alike, and the resume changes neither the model nor the optimizer."""
        cfg, _ = dataset
        model = cli.build_model(cfg)
        model.params["extra"] = tt.Tensor(np.zeros(3), requires_grad=True)
        path = tmp_path / "x.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        with pytest.raises(CheckpointError, match="'extra'"):
            ckpt.load_model(path, cfg)
        target = cli.build_model(cfg)
        opt = cli.build_optimizer(cfg, target)
        opt.m = {k: np.ones_like(p.data) for k, p in target.params.items()}
        opt.v = {k: np.ones_like(p.data) for k, p in target.params.items()}
        opt.step_count = 4
        before = {k: p.data.copy() for k, p in target.params.items()}
        m, v = opt.m, opt.v
        with pytest.raises(CheckpointError, match="'extra'"):
            ckpt.restore(ckpt.load_checkpoint(path), cfg, target, opt)
        for k, p in target.params.items():
            np.testing.assert_array_equal(p.data, before[k])
        assert (opt.m, opt.v, opt.step_count) == (m, v, 4)
        assert all((a == 1.0).all() for a in (*m.values(), *v.values()))

    def test_failed_save_keeps_previous_checkpoint(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = cli.build_optimizer(cfg, model)
        path = tmp_path / "k.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=1)
        good = path.read_bytes()

        class FailingArray:
            """Fails when its payload is written, after earlier tensors."""
            ndim, shape = 1, (1,)

            def __array__(self, *args, **kwargs):
                raise OSError("no space left on device")

        opt.v[next(reversed(model.params))] = FailingArray()
        with pytest.raises(OSError, match="no space"):
            ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=2)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["k.malc"]

    def test_truncated_checkpoint_sweep(self, tmp_path):
        cfg = tiny_run_config(feature_dim=2, model_dim=2, heads=1, head_dim=2,
                              queries=2, temporal_rows=2, ffn_hidden=2,
                              conv_kernel=1, enc_layers=0, dec_layers=0)
        model = cli.build_model(cfg)
        path = tmp_path / "full.malc"
        ckpt.save_checkpoint(path, cfg, model, cli.build_optimizer(cfg, model), 0)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.malc"
        for cut in range(len(blob)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(MomentSetError):
                ckpt.load_checkpoint(cut_path)
        assert set(ckpt.load_checkpoint(path).tensors) >= set(model.params)

    def test_unreadable_config_block(self, tmp_path):
        path = tmp_path / "bad.malc"
        for cfg_bytes, match in ((b"{", "unreadable"), (b"\xff", "unreadable"),
                                 (b"[]", "JSON object")):
            path.write_bytes(struct.pack("<4sII", ckpt.MAGIC, ckpt.VERSION, len(cfg_bytes))
                             + cfg_bytes + struct.pack("<QQI", 0, 0, 0))
            with pytest.raises(CheckpointError, match=match):
                ckpt.load_checkpoint(path)

    def test_chunk_with_more_narrations_than_queries(self, tmp_path):
        # one 12-s chunk holds both moments of each video
        cfg = tiny_run_config(videos=1, chunk_seconds=12.0, queries=1)
        cfg.validate()
        cli.cmd_generate(cfg, tmp_path / "data")
        with pytest.raises(ConfigError, match="queries"):
            cli.cmd_train(cfg, tmp_path / "data", tmp_path / "run")

    def test_resume_replays_uninterrupted_run(self, dataset, tmp_path):
        cfg, data = dataset
        full_cfg = tiny_run_config(epochs=4)
        full = tmp_path / "full"
        cli.cmd_train(full_cfg, data, full)

        half_cfg = tiny_run_config(epochs=2)
        part = tmp_path / "part"
        cli.cmd_train(half_cfg, data, part)
        # same config object except epochs; resume must pick up at epoch 2
        resumed_cfg = tiny_run_config(epochs=4)
        cli.cmd_train(resumed_cfg, data, part,
                      resume_from=part / cli.CHECKPOINT_NAME)

        full_rows = (full / cli.TRAIN_LOG_NAME).read_text().splitlines()
        part_rows = (part / cli.TRAIN_LOG_NAME).read_text().splitlines()
        assert part_rows == full_rows
        assert (full / cli.CHECKPOINT_NAME).read_bytes() == \
            (part / cli.CHECKPOINT_NAME).read_bytes()


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    cfg, data = dataset
    out = tmp_path_factory.mktemp("train")
    cli.cmd_train(cfg, data, out)
    return out / cli.CHECKPOINT_NAME


class TestEval:
    def test_recognition_report_shape(self, dataset, trained, tmp_path):
        cfg, data = dataset
        report = cli.cmd_eval(cfg, data, tmp_path, "recognition",
                              checkpoint_path=trained)
        assert report["task"] == "recognition"
        assert 0.0 <= report["map"] <= 1.0
        assert (tmp_path / "report_recognition.json").exists()

    def test_nlq_report_grid(self, dataset, trained, tmp_path):
        cfg, data = dataset
        report = cli.cmd_eval(cfg, data, tmp_path, "nlq",
                              checkpoint_path=trained)
        recall = report["recall"]
        assert set(recall) == {"1", "5"}
        for k in recall:
            assert set(recall[k]) == {"0.3", "0.5"}
            for v in recall[k].values():
                assert 0.0 <= v <= 1.0
        assert (tmp_path / "nlq_outcomes.csv").exists()

    def test_eval_deterministic(self, dataset, trained, tmp_path):
        cfg, data = dataset
        a = cli.cmd_eval(cfg, data, tmp_path / "a", "nlq", checkpoint_path=trained)
        b = cli.cmd_eval(cfg, data, tmp_path / "b", "nlq", checkpoint_path=trained)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_eval_leaves_autograd_on_and_tape_empty(self, dataset, trained, tmp_path):
        _, data = dataset
        cfg = tiny_run_config(workers=2)
        tt.clear_tape()  # nodes left by earlier tests are not eval's
        for task in ("recognition", "nlq"):
            cli.cmd_eval(cfg, data, tmp_path / task, task, checkpoint_path=trained)
            assert tt._GRAD_ENABLED is True
            assert tt.tape_size() == 0

    def test_eval_ignores_optimizer_fields(self, dataset, trained, tmp_path):
        cfg, data = dataset
        other = tiny_run_config(lr=2e-3, batch_size=3, freeze_intervals=True)
        for task in ("recognition", "nlq"):
            a = cli.cmd_eval(cfg, data, tmp_path / "a", task, checkpoint_path=trained)
            b = cli.cmd_eval(other, data, tmp_path / "b", task, checkpoint_path=trained)
            assert {**a, "config": None} == {**b, "config": None}
        assert (tmp_path / "a" / "nlq_outcomes.csv").read_bytes() == \
            (tmp_path / "b" / "nlq_outcomes.csv").read_bytes()

    def test_restored_model_draws_no_init(self, dataset, trained, tmp_path, monkeypatch):
        cfg, data = dataset
        a = {task: cli.cmd_eval(cfg, data, tmp_path / "a", task, checkpoint_path=trained)
             for task in ("recognition", "nlq")}

        def seeded_init(config):
            raise AssertionError("a model for a checkpoint drew its init")

        monkeypatch.setattr(cli, "build_model", seeded_init)
        other = tiny_run_config(seed=11)  # another build seed, same model fields
        for task in ("recognition", "nlq"):
            b = cli.cmd_eval(other, data, tmp_path / "b", task, checkpoint_path=trained)
            assert {**a[task], "config": None} == {**b, "config": None}
        assert (tmp_path / "a" / "nlq_outcomes.csv").read_bytes() == \
            (tmp_path / "b" / "nlq_outcomes.csv").read_bytes()
        shutil.copy(trained, tmp_path / cli.CHECKPOINT_NAME)
        cli.cmd_train(tiny_run_config(epochs=3), data, tmp_path,
                      resume_from=tmp_path / cli.CHECKPOINT_NAME)

    def test_model_fields_come_from_the_snapshot(self, dataset, trained, tmp_path):
        cfg, data = dataset
        other = tiny_run_config(feature_dim=16, model_dim=18, conv_kernel=3, enc_layers=2,
                                dec_layers=0, heads=3, head_dim=6, queries=5,
                                temporal_rows=9, ffn_hidden=7, loss_bias_init=0.0)
        assert all(getattr(other, k) != getattr(cfg, k) for k in ckpt.MODEL_FIELDS)
        for task in ("recognition", "nlq"):
            cli.cmd_eval(cfg, data, tmp_path / "a", task, checkpoint_path=trained)
            cli.cmd_eval(other, data, tmp_path / "b", task, checkpoint_path=trained)
        a, b = tree_digest(tmp_path / "a"), tree_digest(tmp_path / "b")
        assert sorted(a) == ["nlq_outcomes.csv", "report_nlq.json", "report_recognition.json"]
        assert a == b

    @pytest.mark.parametrize("edit", [
        lambda snapshot: snapshot.pop("heads"),
        lambda snapshot: snapshot.update(queries="4"),
        lambda snapshot: snapshot.update(heads=3),
        lambda snapshot: snapshot.update(enc_layers=100000),
        lambda snapshot: snapshot.update(temporal_rows=10 ** 8),
        lambda snapshot: snapshot.update(dec_layers=0),
        lambda snapshot: snapshot.update(heads=-2, head_dim=-4),
    ], ids=["missing_field", "mistyped_field", "heads_x_head_dim", "enc_layers_1e5",
            "temporal_rows_1e8", "fewer_layers_than_the_file", "negative_heads"])
    def test_bad_snapshot_is_a_checkpoint_error(self, dataset, trained, tmp_path,
                                                capsys, edit):
        cfg, data = dataset
        path = tmp_path / "bad.malc"
        edit_snapshot(trained, path, edit)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        with pytest.raises(CheckpointError):
            ckpt.load_model(path, cfg)
        seconds = time.perf_counter() - t0
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_kb
        # rejected before the model the snapshot claims is allocated
        assert seconds < 0.5 and grown_kb < 20_000, (seconds, grown_kb)
        rc = cli.main(["eval", "--data", str(data), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path), "--task", "nlq"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: io:"), err

    def test_dataset_of_another_feature_width(self, dataset, trained, tmp_path, capsys):
        cfg, _ = dataset
        wide = tmp_path / "wide"
        cli.cmd_generate(tiny_run_config(feature_dim=16), wide)
        rc = cli.main(["eval", "--data", str(wide), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(trained), "--task", "recognition"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: shape:") and "feature_dim" in err, err
        with pytest.raises(ShapeError, match="feature_dim"):
            cli.cmd_train(cfg, wide, tmp_path / "run")

    def test_unknown_task_rejected(self, dataset, trained, tmp_path):
        cfg, data = dataset
        with pytest.raises(ConfigError, match="task"):
            cli.cmd_eval(cfg, data, tmp_path, "segmentation", checkpoint_path=trained)


class TestMainEntry:
    def test_generate_and_error_paths(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_run_config().to_json())
        out = tmp_path / "ds"
        rc = cli.main(["generate", "--config", str(cfg_path),
                       "--out", str(out)])
        assert rc == 0
        assert (out / cli.MANIFEST_NAME).exists()
        capsys.readouterr()

        rc = cli.main(["generate", "--config", str(cfg_path),
                       "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: config:")

    def test_eval_workers_flag_on_trained_checkpoint(self, dataset, trained,
                                                     tmp_path, capsys):
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        rc = cli.main(["eval", "--config", str(cfg_path), "--workers", "2",
                       "--data", str(data), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(trained), "--task", "nlq"])
        assert rc == 0, capsys.readouterr().err

    def test_missing_dataset_dir(self, trained, tmp_path, capsys):
        rc = cli.main(["eval", "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "o"), "--checkpoint", str(trained),
                       "--task", "nlq"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not a dataset directory" in captured.err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = cli.main(["generate", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: config:" in captured.err

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_config_key_is_unknown(self, tmp_path, capsys, key):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({key: REMOVED_KEYS[key]}))
        rc = cli.main(["generate", "--config", str(old), "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: config: unknown config keys"), captured.err
        assert key in captured.err

    @pytest.mark.parametrize("entry", ['"fps": "6"', '"epochs": true', '"nlq_topk": "1"',
                                       '"lr": "0.001"'])
    def test_mistyped_config_value(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        bad.write_text("{%s}" % entry)
        rc = cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: config:"), captured.err
        assert entry.split(":")[0].strip('"') in captured.err


def _load_chunk(path: Path) -> datagen.VideoRecord:
    """A chunk of a tiny_run_config dataset, each chunk_seconds long."""
    cfg = tiny_run_config()
    return datagen.load(path, "c", cfg.chunk_seconds, cfg.fps)


def _first_narrated_chunk(data: Path) -> Path:
    for path in sorted((data / "chunks").iterdir()):
        if _load_chunk(path).narrations:
            return path
    raise AssertionError("no chunk with narrations")


def _narration_concept_99(data: Path):
    path = _first_narrated_chunk(data)
    blob = bytearray(path.read_bytes())
    _, _, T, C = struct.unpack_from("<4sIII", blob, 0)
    struct.pack_into("<I", blob, 16 + T * C * 4 + 4, 99)
    path.write_bytes(bytes(blob))


def _edit_manifest(edit):
    def corrupt(data: Path):
        manifest = json.loads((data / cli.MANIFEST_NAME).read_text())
        edit(next(iter(manifest["videos"].values())))
        (data / cli.MANIFEST_NAME).write_text(json.dumps(manifest))
    return corrupt


def _rewrite_manifest(edit):
    def corrupt(data: Path):
        path = data / cli.MANIFEST_NAME
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return corrupt


def _wider_features(data: Path):
    path = _first_narrated_chunk(data)
    rec = _load_chunk(path)
    rec.features = np.hstack([rec.features, rec.features[:, :1]])
    datagen.store(rec, path)


def _trailing_byte(data: Path):
    path = _first_narrated_chunk(data)
    path.write_bytes(path.read_bytes() + b"\0")


@pytest.mark.parametrize("corrupt", [
    _narration_concept_99,
    _edit_manifest(lambda v: v["narrations"][0].update(concept_id=99)),
    _edit_manifest(lambda v: v["labels"].append(99)),
    _wider_features,
    _trailing_byte,
    _rewrite_manifest(lambda m: {"videos": {}}),
    _rewrite_manifest(lambda m: {**m, "vocab": 3}),
    _rewrite_manifest(lambda m: {**m, "videos": []}),
    _rewrite_manifest(lambda m: [m]),
    _edit_manifest(lambda v: v.pop("chunks")),
    _edit_manifest(lambda v: v.update(duration="100")),
    _edit_manifest(lambda v: v.update(fps=True)),
    _edit_manifest(lambda v: v.update(chunks=[1])),
    _edit_manifest(lambda v: v.update(chunks=[])),
    _edit_manifest(lambda v: v["narrations"][0].pop("concept_id")),
    _edit_manifest(lambda v: v["narrations"][0].pop("b")),
    _edit_manifest(lambda v: v.update(labels=[True])),
    lambda data: (data / cli.MANIFEST_NAME).write_text("{not json"),
], ids=["maln_concept", "manifest_narration", "manifest_label",
        "feature_width", "trailing_bytes",
        "manifest_no_vocab", "manifest_vocab_not_str", "manifest_videos_not_object",
        "manifest_not_object", "manifest_no_chunks", "manifest_duration_str",
        "manifest_fps_bool", "manifest_chunk_not_str", "manifest_chunks_empty",
        "manifest_narration_no_concept",
        "manifest_narration_no_end", "manifest_label_bool", "manifest_not_json"])
def test_bad_dataset_file_is_a_clean_error(dataset, tmp_path, capsys, corrupt):
    cfg, data = dataset
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    corrupt(bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = cli.main(["train", "--config", str(cfg_path), "--data", str(bad),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(("error: io:", "error: format:")), err
    assert "manifest.json" in err or ".maln" in err


@pytest.mark.parametrize("task, key", [("nlq", "narrations"), ("recognition", "labels")])
def test_eval_with_nothing_to_score_is_a_clean_error(dataset, trained, tmp_path, capsys,
                                                      monkeypatch, task, key):
    """No narration to query or no label to rank is a config error, raised
    before the checkpoint is read."""
    _, data = dataset
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    _rewrite_manifest(lambda m: {**m, "videos": {
        vid: {**meta, key: []} for vid, meta in m["videos"].items()}})(bad)
    monkeypatch.setattr(ckpt, "load_model", lambda *a: pytest.fail("checkpoint read"))
    rc = cli.main(["eval", "--data", str(bad), "--out", str(tmp_path / "o"),
                   "--checkpoint", str(trained), "--task", task])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: config: nothing to evaluate"), err
    assert key in err


def _first_chunk_file(data: Path) -> Path:
    return sorted((data / "chunks").iterdir())[0]


@pytest.mark.parametrize("corrupt, named", [
    (lambda data: (data / cli.VOCAB_NAME).unlink(), cli.VOCAB_NAME),
    (lambda data: (data / cli.VOCAB_NAME).write_bytes(b"not a zip"), cli.VOCAB_NAME),
    (lambda data: _first_chunk_file(data).unlink(), ".maln"),
], ids=["vocab_missing", "vocab_garbage", "chunk_missing"])
def test_unreadable_dataset_file_is_a_clean_error(dataset, trained, tmp_path, capsys,
                                                  corrupt, named):
    cfg, data = dataset
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    corrupt(bad)
    rc = cli.main(["eval", "--data", str(bad), "--out", str(tmp_path / "o"),
                   "--checkpoint", str(trained), "--task", "nlq"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: io:"), err
    assert named in err


def _checkpoint_frame_offsets(blob: bytes) -> tuple[list[int], list[int]]:
    """Offsets of the bytes of a checkpoint's header (magic, version, config
    block, counters) and tensor table, and of each payload's last byte."""
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    off = 12 + cfg_len + 20
    (count,) = struct.unpack_from("<I", blob, off - 4)
    frame, payload_ends = list(range(off)), []
    for _ in range(count):
        start = off
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4 + name_len
        (ndim,) = struct.unpack_from("<I", blob, off)
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 4)
        off += 4 + 4 * ndim
        frame += range(start, off)
        off += 8 * math.prod(shape)
        payload_ends.append(off - 1)
    assert off == len(blob)
    return frame, payload_ends


class TestFuzz:
    """Every corrupted file ends in a MomentSetError or loads cleanly; any
    other exception fails the test."""

    def test_checkpoint_bit_flip_sweep(self, dataset, tmp_path, capsys):
        cfg = tiny_run_config(enc_layers=0, dec_layers=0)
        model = cli.build_model(cfg)
        good = tmp_path / "good.malc"
        ckpt.save_checkpoint(good, cfg, model, cli.build_optimizer(cfg, model), 1)
        blob = good.read_bytes()
        frame, payload_ends = _checkpoint_frame_offsets(blob)
        path = tmp_path / "flipped.malc"
        typed = typed_eval = 0
        for i in frame + payload_ends:
            for bit in (0, 7):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                path.write_bytes(flipped)
                target = cli.restore_target(cfg)
                try:
                    ckpt.restore(ckpt.load_checkpoint(path), cfg, target,
                                 cli.build_optimizer(cfg, target))
                except MomentSetError:
                    typed += 1
                try:  # the eval load
                    ckpt.load_model(path, cfg)
                except MomentSetError:
                    typed_eval += 1
        assert typed > len(frame)  # most flips of the frame are caught
        assert typed_eval > len(frame)

        path.write_bytes(b"MALD" + blob[4:])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        rc = cli.main(["eval", "--config", str(cfg_path), "--data", str(dataset[1]),
                       "--out", str(tmp_path / "o"), "--checkpoint", str(path),
                       "--task", "nlq"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: format:") and "flipped.malc" in err, err

    def test_chunk_corruption_sweep(self, tmp_path, capsys):
        """Every truncation of a chunk file, and every bit flip of its header
        and narration block, run through training."""
        cfg = tiny_run_config(videos=1, epochs=1)
        data = tmp_path / "data"
        cli.cmd_generate(cfg, data)
        path = _first_narrated_chunk(data)
        blob = path.read_bytes()
        _, _, T, C = struct.unpack_from("<4sIII", blob, 0)
        cases = [blob[:n] for n in range(len(blob))]
        for i in (*range(16), *range(16 + T * C * 4, len(blob))):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                cases.append(bytes(flipped))
        typed = 0
        for case in cases:
            path.write_bytes(case)
            try:
                cli.cmd_train(cfg, data, tmp_path / "run")
            except MomentSetError:
                typed += 1
        assert typed > len(blob)  # every truncation, and more

        t_offset = 16 + T * C * 4 + 4 + 4  # the first narration's t
        path.write_bytes(blob[:t_offset] + struct.pack("<d", math.nan)
                         + blob[t_offset + 8:])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: io:") and path.name in err, err
