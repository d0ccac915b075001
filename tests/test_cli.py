import csv
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import struct
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from momentset import checkpoint as ckpt
from momentset import cli, datagen, fileio, matching
from momentset import tensor as tt
from momentset.config import RunConfig
from momentset.errors import (ConfigError, DataFileError, FormatError, MomentSetError,
                              ShapeError, describe, listing)
from momentset.model import ModelConfig, MomentSetModel
from momentset.optim import Adam


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

    def test_describe_names_long_values_by_size(self):
        """Digits are counted exactly, also for an int that str() refuses."""
        assert [describe(v) for v in (10**400, 10**400 - 1, -(10**5000), 10**19)] == [
            "int of 401 digits", "int of 400 digits", "int of 5001 digits",
            "10000000000000000000"]
        assert [describe(v) for v in ("x" * 41, "x" * 40, 1.5, None)] == [
            "str of 41 characters", repr("x" * 40), "1.5", "None"]
        # a list or dict of a few plain values is shown by them
        assert [describe(v) for v in ([6], [1, 2], {}, {"a": None}, list(range(4)),
                                      [10**400], [[1]], ["x" * 40], {"k" * 40: 1})] == [
            "[6]", "[1, 2]", "{}", "{'a': None}", "list of 4 items", "list of 1 item",
            "list of 1 item", "list of 1 item", "dict of 1 item"]
        assert listing(["a", "b", "c", "d", "e"]) == "a, b, c and 2 more"
        assert listing(["a"]) == "a"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"not_a_field": 1})

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            tiny_run_config(model_dim=7, heads=1, head_dim=7)
        with pytest.raises(ConfigError, match="heads"):
            tiny_run_config(heads=3)
        for bad in ({"heads": -2, "head_dim": -4}, {"enc_layers": -1}, {"ffn_hidden": 0}):
            with pytest.raises(ConfigError, match=">= "):
                tiny_run_config(**bad)

    def test_config_is_checked_when_made_and_frozen(self):
        """A config cannot exist unchecked: it is validated when built,
        directly or by dataclasses.replace, and no field can be assigned."""
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig(seed=-1)
        with pytest.raises(ConfigError, match="heads"):
            ModelConfig(heads=3)
        with pytest.raises(ConfigError, match="lr must be positive"):
            dataclasses.replace(RunConfig(), lr=0.0)
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            ModelConfig().heads = 3

    def test_flat_schema_and_model_fields(self):
        assert sorted(RunConfig().to_dict()) == [
            "batch_size", "chunk_seconds", "conv_kernel",
            "dec_layers", "duration", "enc_layers", "epochs",
            "feature_dim", "ffn_hidden", "fps", "freeze_intervals", "head_dim",
            "heads", "loss_bias_init", "lr", "model_dim",
            "moments_per_video", "noise_level", "queries", "seed",
            "temporal_rows", "videos", "vocab_size", "workers"]
        assert {k: RunConfig().to_dict()[k] for k in ckpt.MODEL_FIELDS} == \
            dataclasses.asdict(ModelConfig())

    def test_queries_need_only_fit_one_chunk(self):
        # 24 moments in a 600-s video, 2 in each 50-s chunk: 16 queries suffice
        RunConfig(duration=600, moments_per_video=24)


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

    def test_force_removes_chunks_the_new_manifest_does_not_list(self, tmp_path):
        """6 default videos, then 2 forced into the same directory: the 8
        chunk files of the first dataset's last 4 videos go."""
        target = tmp_path / "forced"
        cli.cmd_generate(RunConfig(videos=6), target)
        assert len(list((target / "chunks").iterdir())) == 12
        cli.cmd_generate(RunConfig(videos=2), target, force=True)
        manifest = json.loads((target / cli.MANIFEST_NAME).read_text())
        listed = {c for m in manifest["videos"].values() for c in m["chunks"]}
        on_disk = {f"chunks/{p.name}" for p in (target / "chunks").iterdir()}
        assert len(listed) == 4 and on_disk == listed

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
        with pytest.raises(DataFileError, match="video0001"):
            cli.load_dataset(bad)

    def test_chunks_hold_the_generated_frames_and_narrations(self, tmp_path, monkeypatch):
        """Each stored chunk holds its video's frames at chunk_bounds, and
        load_dataset cuts each video's manifest narrations as
        chunk_narrations cuts the generated record's (130-s videos in 50-,
        50- and 30-s chunks)."""
        made = {}
        generate_video = datagen.generate_video

        def spy(*args, **kw):
            record = generate_video(*args, **kw)
            made[record.video_id] = record
            return record

        monkeypatch.setattr(datagen, "generate_video", spy)
        cfg = tiny_run_config(videos=4, duration=130.0, chunk_seconds=50.0,
                              moments_per_video=3)
        cli.cmd_generate(cfg, tmp_path)
        _, _, videos = cli.load_dataset(tmp_path)
        bounds = datagen.chunk_bounds(cfg.duration, cfg.fps, cfg.chunk_seconds)
        assert list(videos) == list(made)
        for vid, chunks in videos.items():
            assert [c.features.tobytes() for c in chunks] == [
                made[vid].features[lo:hi].tobytes() for lo, hi in zip(bounds, bounds[1:])]
        assert [[c.narrations for c in cs] for cs in videos.values()] == [
            datagen.chunk_narrations(r.narrations, cfg.duration, cfg.chunk_seconds, 3)
            for r in made.values()]
        assert sum(len(c.narrations) for cs in videos.values() for c in cs) == 12


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
        opt = Adam(model.params, lr=cfg.lr)
        path = tmp_path / "a.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=0)
        model2, opt2 = ckpt.restore(ckpt.load_checkpoint(path), cfg)
        path2 = tmp_path / "b.malc"
        ckpt.save_checkpoint(path2, cfg, model2, opt2, epochs_done=0)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_writes_reference_bytes(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = Adam(model.params, lr=cfg.lr)
        rng = np.random.default_rng(0)
        for name, p in model.params.items():  # "queries" keeps zero moments
            p.grad = None if name == "queries" else rng.standard_normal(p.data.shape)
        opt.step()
        path = tmp_path / "s.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=2)
        tensors = {k: p.data for k, p in model.params.items()}
        for k in model.params:
            tensors[f"opt.m.{k}"] = opt.m[k]
            tensors[f"opt.v.{k}"] = opt.v[k]
        assert not (opt.m["queries"].any() or opt.v["queries"].any())
        cfg_bytes = cfg.to_json().encode()
        expect = [struct.pack("<4sII", b"MALC", 2, len(cfg_bytes)), cfg_bytes,
                  struct.pack("<QQ", 2, 1)]
        expect += [arr.astype("<f8").tobytes() for arr in tensors.values()]
        assert path.read_bytes() == b"".join(expect)

    def test_restore_rejects_config_mismatch(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = Adam(model.params, lr=cfg.lr)
        path = tmp_path / "c.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=0)
        other = tiny_run_config(lr=5e-4)
        with pytest.raises(DataFileError, match=r"config does not match.*\(lr\)"):
            ckpt.restore(ckpt.load_checkpoint(path), other)

    def test_restore_model_only_checks_model_fields(self, dataset, tmp_path):
        """The eval load takes the model from the checkpoint whatever the
        run's optimizer fields; a resume still rejects a differing model
        field."""
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "e.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 0)
        other = tiny_run_config(lr=2e-3, batch_size=3, freeze_intervals=True)
        loaded, target = ckpt.load_model(path, other)
        assert (loaded.lr, loaded.batch_size, loaded.freeze_intervals) == (2e-3, 3, True)
        assert sorted(target.params) == sorted(model.params)
        for k, p in model.params.items():
            np.testing.assert_array_equal(target.params[k].data, p.data)
        for change, field in (({"loss_bias_init": 0.0}, "loss_bias_init"),
                              ({"queries": 5}, "queries")):
            other = tiny_run_config(**change)
            with pytest.raises(DataFileError, match=rf"config does not match.*\({field}\)"):
                ckpt.restore(ckpt.load_checkpoint(path), other)

    def test_restore_ignores_runtime_fields(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "r.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 0)
        for change in ({"epochs": 9}, {"workers": 2}, {"seed": 11, "videos": 5}):
            ckpt.restore(ckpt.load_checkpoint(path), tiny_run_config(**change))

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

    def test_restore_allocates_no_moments(self, tmp_path):
        """Adam is made with the checkpoint's moments, so restoring a
        default-width run allocates far less than one parameter set."""
        cfg = RunConfig()
        model = cli.build_model(cfg)
        path = tmp_path / "d.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 1)
        data = ckpt.load_checkpoint(path)
        tracemalloc.start()
        try:
            ckpt.restore(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(p.data.nbytes for p in model.params.values())

    @pytest.mark.parametrize("cut", [
        lambda log: b"", lambda log: log[:log.index(b"\n") + 1],
        lambda log: log[:-1]], ids=["empty", "header_only", "last_row_partial"])
    def test_resume_refuses_a_log_short_of_the_checkpoint(self, dataset, tmp_path,
                                                          capsys, cut):
        """A log whose complete rows stop before the checkpoint's step is
        one io error naming the log, and is left as it was."""
        cfg, data = dataset
        run = tmp_path / "run"
        cli.cmd_train(cfg, data, run)
        log = run / cli.TRAIN_LOG_NAME
        log.write_bytes(cut(log.read_bytes()))
        before = log.read_bytes()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_run_config(epochs=3).to_json())
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                       "--out", str(run), "--checkpoint", str(run / cli.CHECKPOINT_NAME)])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: io:") and str(log) in err, err
        assert log.read_bytes() == before

    def test_resume_redone_from_the_same_checkpoint(self, dataset, tmp_path):
        """A resume into a new --out, redone there from the same checkpoint,
        keeps only the header of the log that the first one wrote, whose
        rows all come after the checkpoint's step: it ends with the files
        of the first."""
        cfg, data = dataset
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_train(tiny_run_config(epochs=1), data, a)
        cli.cmd_train(cfg, data, b, resume_from=a / cli.CHECKPOINT_NAME)
        before = tree_digest(b)
        cli.cmd_train(cfg, data, b, resume_from=a / cli.CHECKPOINT_NAME)
        assert tree_digest(b) == before

    def test_resume_into_a_log_that_a_resume_began(self, dataset, tmp_path):
        """A run resumed into a new --out logs from the checkpoint's step on;
        resumed again there, its log is cut by step number, not row count."""
        cfg, data = dataset
        cli.cmd_train(tiny_run_config(epochs=1), data, tmp_path / "a")
        b = tmp_path / "b"
        cli.cmd_train(cfg, data, b, resume_from=tmp_path / "a" / cli.CHECKPOINT_NAME)
        cli.cmd_train(tiny_run_config(epochs=3), data, b, resume_from=b / cli.CHECKPOINT_NAME)
        with open(b / cli.TRAIN_LOG_NAME) as f:
            steps = [int(row["step"]) for row in csv.DictReader(f)]
        first = ckpt.load_checkpoint(tmp_path / "a" / cli.CHECKPOINT_NAME).step
        last = ckpt.load_checkpoint(b / cli.CHECKPOINT_NAME).step
        assert steps == list(range(first + 1, last + 1))

    def test_loaded_tensors_are_handed_over(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "h.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 0)
        data = ckpt.load_checkpoint(path)
        arrays = list(data.tensors.values())
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        model2, opt2 = ckpt.restore(data, cfg)
        assert opt2.step_count == data.step
        for name, p in model2.params.items():
            assert p.data is data.tensors[name]
            assert opt2.m[name] is data.tensors[f"opt.m.{name}"]
            assert opt2.v[name] is data.tensors[f"opt.v.{name}"]

    @pytest.mark.parametrize("edit, match", [
        (lambda blob: blob + b"\0", "1 bytes after"),
        (lambda blob: blob[:-1], "needs more than"),
    ], ids=["trailing_byte", "one_byte_short"])
    def test_both_loaders_reject_a_file_of_another_size(self, dataset, tmp_path,
                                                       edit, match):
        """A byte after the last moment, or a last moment one byte short,
        fails the eval load and the resume alike."""
        cfg, _ = dataset
        model = cli.build_model(cfg)
        path = tmp_path / "x.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 0)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataFileError, match=match):
            ckpt.load_model(path, cfg)
        with pytest.raises(DataFileError, match=match):
            ckpt.restore(ckpt.load_checkpoint(path), cfg)

    def test_failed_save_keeps_previous_checkpoint(self, dataset, tmp_path):
        cfg, _ = dataset
        model = cli.build_model(cfg)
        opt = Adam(model.params, lr=cfg.lr)
        path = tmp_path / "k.malc"
        ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=1)
        good = path.read_bytes()

        class FailingArray:
            """Fails when its payload is written, after earlier tensors."""
            ndim, shape = 1, (1,)

            def __array__(self, *args, **kwargs):
                raise OSError("no space left on device")

        opt.v[next(reversed(model.params))] = FailingArray()
        with pytest.raises(DataFileError, match="k.malc: cannot write.*no space") as e:
            ckpt.save_checkpoint(path, cfg, model, opt, epochs_done=2)
        assert isinstance(e.value.__cause__, OSError)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["k.malc"]

    def test_truncated_checkpoint_sweep(self, tmp_path):
        cfg = tiny_run_config(feature_dim=2, model_dim=2, heads=1, head_dim=2,
                              queries=2, temporal_rows=2, ffn_hidden=2,
                              conv_kernel=1, enc_layers=0, dec_layers=0)
        model = cli.build_model(cfg)
        path = tmp_path / "full.malc"
        ckpt.save_checkpoint(path, cfg, model, Adam(model.params, lr=cfg.lr), 0)
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
                             + cfg_bytes + struct.pack("<QQ", 0, 0))
            with pytest.raises(DataFileError, match=match):
                ckpt.load_checkpoint(path)

    def test_chunk_with_more_narrations_than_queries(self, tmp_path):
        # one 12-s chunk holds both moments of each video
        cfg = tiny_run_config(videos=1, chunk_seconds=12.0, queries=1)
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

    def test_resume_on_another_dataset_numbers_steps_from_the_checkpoint(self, tmp_path):
        """A 1-epoch run on 4 videos resumed to 2 epochs on 12 continues the
        log from the checkpoint's step, though the new dataset has more
        steps an epoch: the rows are steps 1, 2, ... with no gap, and the
        last is the checkpoint's step."""
        cfg = tiny_run_config(batch_size=8, epochs=2)
        small, large = tmp_path / "small", tmp_path / "large"
        cli.cmd_generate(dataclasses.replace(cfg, videos=4), small)
        cli.cmd_generate(dataclasses.replace(cfg, videos=12), large)
        run = tmp_path / "run"
        cli.cmd_train(dataclasses.replace(cfg, epochs=1), small, run)
        first = ckpt.load_checkpoint(run / cli.CHECKPOINT_NAME).step
        cli.cmd_train(cfg, large, run, resume_from=run / cli.CHECKPOINT_NAME)
        with open(run / cli.TRAIN_LOG_NAME) as f:
            steps = [int(row["step"]) for row in csv.DictReader(f)]
        last = ckpt.load_checkpoint(run / cli.CHECKPOINT_NAME).step
        assert last - first > first  # more steps an epoch on the large dataset
        assert steps == list(range(1, last + 1))

    @pytest.mark.parametrize("freeze", [False, True], ids=["fresh", "frozen"])
    def test_chunks_without_narrations_are_not_trained(self, tmp_path, freeze):
        """30-s videos in 6-s chunks with two narrations each, so most chunks
        have none: only the narrated ones are trained. A 1-epoch run resumed
        to 2 logs epochs * ceil(narrated / batch_size) rows and ends with the
        files of an uninterrupted run."""
        cfg = tiny_run_config(duration=30.0, freeze_intervals=freeze)
        data = tmp_path / "data"
        cli.cmd_generate(cfg, data)
        _, _, videos = cli.load_dataset(data)
        narrated = sum(bool(c.narrations) for cs in videos.values() for c in cs)
        assert 0 < narrated < sum(len(cs) for cs in videos.values())
        cli.cmd_train(cfg, data, tmp_path / "full")
        part = tmp_path / "part"
        cli.cmd_train(dataclasses.replace(cfg, epochs=1), data, part)
        cli.cmd_train(cfg, data, part, resume_from=part / cli.CHECKPOINT_NAME)
        rows = (part / cli.TRAIN_LOG_NAME).read_text().splitlines()[1:]
        assert len(rows) == cfg.epochs * math.ceil(narrated / cfg.batch_size)
        assert tree_digest(part) == tree_digest(tmp_path / "full")

    def test_resume_after_a_stop_mid_epoch_logs_each_step_once(self, dataset, tmp_path,
                                                              monkeypatch):
        """A run of 3 steps an epoch, saved after step 3 and stopped during
        step 5, resumes to the log and checkpoint of an uninterrupted run:
        the row of step 4 that the stopped run logged is not kept twice."""
        cfg, data = dataset
        full = tmp_path / "full"
        cli.cmd_train(cfg, data, full)

        class Stop(Exception):
            pass

        train_step = matching.train_step
        calls = []

        def stop_in_step_5(*args, **kw):
            calls.append(None)
            if len(calls) == 5:
                raise Stop
            return train_step(*args, **kw)

        part = tmp_path / "part"
        with monkeypatch.context() as m:
            m.setattr(matching, "train_step", stop_in_step_5)
            with pytest.raises(Stop):
                cli.cmd_train(cfg, data, part)
        log = part / cli.TRAIN_LOG_NAME
        assert [r.split(",")[0] for r in log.read_text().splitlines()[1:]] == \
            ["1", "2", "3", "4"]
        cli.cmd_train(cfg, data, part, resume_from=part / cli.CHECKPOINT_NAME)
        assert log.read_bytes() == (full / cli.TRAIN_LOG_NAME).read_bytes()
        assert (part / cli.CHECKPOINT_NAME).read_bytes() == \
            (full / cli.CHECKPOINT_NAME).read_bytes()
        assert not list(part.glob("*.tmp"))


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
        for task in ("recognition", "nlq"):
            cli.cmd_eval(cfg, data, tmp_path / task, task, checkpoint_path=trained)
            assert tt._TAPE.get() is None

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
        lambda snapshot: snapshot.update(loss_bias_init=10 ** 400),
    ], ids=["missing_field", "mistyped_field", "heads_x_head_dim", "enc_layers_1e5",
            "temporal_rows_1e8", "fewer_layers_than_the_file", "negative_heads",
            "loss_bias_init_1e400"])
    def test_bad_snapshot_is_a_checkpoint_error(self, dataset, trained, tmp_path,
                                                capsys, edit):
        cfg, data = dataset
        path = tmp_path / "bad.malc"
        edit_snapshot(trained, path, edit)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        with pytest.raises(DataFileError):
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
        assert not (tmp_path / "o").exists()

    def test_dataset_of_another_feature_width(self, dataset, trained, tmp_path, capsys):
        """A 16-wide dataset against an 8-wide config or checkpoint is
        refused, by train and by eval, before --out is made."""
        cfg, _ = dataset
        wide = tmp_path / "wide"
        cli.cmd_generate(tiny_run_config(feature_dim=16), wide)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        for argv in (["train", "--config", str(cfg_path)],
                     ["eval", "--checkpoint", str(trained), "--task", "recognition"]):
            rc = cli.main(argv + ["--data", str(wide), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: shape:") and "feature_dim" in err, err
            assert "16 wide" in err and "feature_dim is 8" in err, err
            assert not (tmp_path / "o").exists()

    def test_unknown_task_rejected(self, dataset, trained, tmp_path):
        cfg, data = dataset
        with pytest.raises(ConfigError, match="task"):
            cli.cmd_eval(cfg, data, tmp_path, "segmentation", checkpoint_path=trained)


@pytest.fixture(scope="module")
def short_last_chunk(dataset, tmp_path_factory):
    """13-s videos at 2 fps in 6-s chunks of 12, 12 and 2 frames, one moment
    a second, so every chunk has narrations; generated at conv_kernel 2.
    Also a conv-3 config, and its checkpoint trained on the 12-frame chunks
    of ``dataset``."""
    root = tmp_path_factory.mktemp("short")
    cli.cmd_generate(tiny_run_config(duration=13.0, moments_per_video=13, queries=8),
                     root / "data")
    cfg = tiny_run_config(conv_kernel=3, queries=8, epochs=1)
    cli.cmd_train(cfg, dataset[1], root / "train")
    (root / "cfg.json").write_text(cfg.to_json())
    return root / "cfg.json", root / "data", root / "train" / cli.CHECKPOINT_NAME


class TestChunkMeetsModel:
    """Train and eval check the chunks they forward against the model
    (ModelConfig.check_input) before --out is made; the run's generate
    fields play no part."""

    @pytest.mark.parametrize("argv", [
        ["train"], ["eval", "--task", "recognition"], ["eval", "--task", "nlq"]],
        ids=["train", "recognition", "nlq"])
    def test_chunk_shorter_than_the_kernel(self, short_last_chunk, tmp_path, capsys,
                                           argv):
        cfg_path, data, checkpoint = short_last_chunk
        if argv[0] == "eval":
            argv += ["--checkpoint", str(checkpoint)]
        rc = cli.main(argv + ["--config", str(cfg_path), "--data", str(data),
                              "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: shape: chunk video0000_c2 has 2 frames, fewer "
                              "than conv_kernel (3)"), err
        assert not (tmp_path / "o").exists()

    def test_short_chunk_without_narrations_still_trains(self, tmp_path):
        """12.5-s videos at 2 fps in 6-s chunks of 12, 12 and 1 frames. The
        second of two moments has its t before 12 s, so the 1-frame chunk
        has no narration, is not trained, and a conv-2 run trains."""
        cfg = tiny_run_config(duration=12.5, conv_kernel=1)
        cli.cmd_generate(cfg, tmp_path / "data")
        _, _, videos = cli.load_dataset(tmp_path / "data")
        assert all(len(cs[-1].features) == 1 and not cs[-1].narrations
                   for cs in videos.values())
        path = cli.cmd_train(dataclasses.replace(cfg, conv_kernel=2, epochs=1),
                             tmp_path / "data", tmp_path / "run")
        assert path.exists()

    def test_eval_of_a_long_kernel_needs_no_config(self, tmp_path, capsys):
        """A conv-350 checkpoint trained on 400-frame chunks evaluates with
        no --config, although the default config's 300-frame chunks would
        not hold its kernel: eval checks the dataset's chunks."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(tiny_run_config(videos=2, duration=200.0, chunk_seconds=200.0,
                                            conv_kernel=350, epochs=1).to_json())
        data, run = str(tmp_path / "data"), tmp_path / "run"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", data]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--data", data,
                         "--out", str(run)]) == 0
        for task in ("recognition", "nlq"):
            rc = cli.main(["eval", "--data", data, "--out", str(run), "--task", task,
                           "--checkpoint", str(run / cli.CHECKPOINT_NAME)])
            assert rc == 0, capsys.readouterr().err
            assert (run / f"report_{task}.json").exists()


@pytest.fixture(scope="module")
def mixed_trained(tmp_path_factory):
    """Four 130-s videos in 50-, 50- and 30-s chunks, and a checkpoint."""
    root = tmp_path_factory.mktemp("mixed")
    cfg = tiny_run_config(videos=4, duration=130.0, chunk_seconds=50.0,
                          moments_per_video=3, epochs=1)
    cli.cmd_generate(cfg, root / "data")
    cli.cmd_train(cfg, root / "data", root / "train")
    return cfg, root / "data", root / "train" / cli.CHECKPOINT_NAME


def _record_forwards(monkeypatch) -> list[list[np.ndarray]]:
    """Wrap MomentSetModel.forward_chunks; each call appends its chunk list."""
    calls = []
    forward_chunks = MomentSetModel.forward_chunks

    def spy(self, features_list, te=True):
        calls.append(list(features_list))
        return forward_chunks(self, features_list, te)

    monkeypatch.setattr(MomentSetModel, "forward_chunks", spy)
    return calls


def _calls_as_videos(calls, videos) -> list[list[str]]:
    """Each call's chunk list as the ids of the whole videos it stacks, in
    order; fails if a call holds part of a video. A chunk's frames are read
    at each access, so they are matched by their bytes."""
    owner = {c.features.tobytes(): (vid, k) for vid, cs in videos.items()
             for k, c in enumerate(cs)}
    out = []
    for features_list in calls:
        chunks = [owner[f.tobytes()] for f in features_list]
        vids = list(dict.fromkeys(vid for vid, _ in chunks))
        assert chunks == [(vid, k) for vid in vids for k in range(len(videos[vid]))]
        out.append(vids)
    return out


EVALS = pytest.mark.parametrize("eval_task", [cli.eval_recognition, cli.eval_nlq],
                                ids=["recognition", "nlq"])


class TestEvalBatching:
    def test_outputs_do_not_depend_on_batch_size(self, mixed_trained, tmp_path):
        cfg, data, checkpoint = mixed_trained
        _, _, videos = cli.load_dataset(data)
        for chunks in videos.values():
            assert [len(c.features) for c in chunks] == [100, 100, 60]
        outputs = set()
        for batch_size in (1, 3, 8, 64):
            out = tmp_path / str(batch_size)
            for task in ("recognition", "nlq"):
                cli.cmd_eval(dataclasses.replace(cfg, batch_size=batch_size),
                             data, out, task, checkpoint_path=checkpoint)
            reports = [{k: v for k, v in json.loads(
                (out / f"report_{task}.json").read_text()).items() if k != "config"}
                for task in ("recognition", "nlq")]
            outputs.add((json.dumps(reports, sort_keys=True),
                         (out / "nlq_outcomes.csv").read_bytes()))
        assert len(outputs) == 1

    @EVALS
    def test_short_videos_share_forwards(self, tmp_path, monkeypatch, eval_task):
        """Nine 2-chunk videos at batch 8 run as ceil(9 / 4) = 3 forwards of
        whole videos, in sorted id order."""
        cfg = tiny_run_config(videos=9, batch_size=8)
        cli.cmd_generate(cfg, tmp_path)
        manifest, vocab, videos = cli.load_dataset(tmp_path)
        model = cli.build_model(cfg)
        calls = _record_forwards(monkeypatch)
        eval_task(cfg, model, vocab, manifest, videos)
        groups = _calls_as_videos(calls, videos)
        assert len(groups) == math.ceil(len(videos) / 4)
        assert [len(g) for g in groups] == [4, 4, 1]
        assert [vid for g in groups for vid in g] == sorted(videos)

    @EVALS
    def test_video_longer_than_a_batch_runs_alone(self, mixed_trained, monkeypatch,
                                                  eval_task):
        cfg, data, _ = mixed_trained
        cfg = dataclasses.replace(cfg, batch_size=2)
        manifest, vocab, videos = cli.load_dataset(data)
        model = cli.build_model(cfg)
        calls = _record_forwards(monkeypatch)
        eval_task(cfg, model, vocab, manifest, videos)
        assert _calls_as_videos(calls, videos) == [[vid] for vid in sorted(videos)]
        assert [len(c) for c in calls] == [3] * len(videos)

    def test_recognition_does_not_compute_the_temporal_head(self, mixed_trained):
        """With a temporal head of the wrong shape, recognition (whose stacks
        mix 100- and 60-frame chunks) reports exactly what it did before,
        while NLQ, which decodes the TE, fails on that head."""
        cfg, data, checkpoint = mixed_trained
        manifest, vocab, videos = cli.load_dataset(data)
        cfg, model = ckpt.load_model(checkpoint, cfg)
        expect = cli.eval_recognition(cfg, model, vocab, manifest, videos)
        model.params["head.temporal.fc1.w"] = tt.Tensor(np.zeros((1, 1)))
        got = cli.eval_recognition(cfg, model, vocab, manifest, videos)
        assert json.dumps(got, sort_keys=True) == json.dumps(expect, sort_keys=True)
        with pytest.raises(ShapeError, match="linear"):
            cli.eval_nlq(cfg, model, vocab, manifest, videos)


def wide_run_config(**kw):
    """60-s videos of 360 frames, 128 wide, in two chunks, on a small model:
    one video's frames (184 KB) outweigh what a video adds to the manifest
    and the records."""
    return tiny_run_config(**{**dict(duration=60.0, fps=6, chunk_seconds=30.0,
                                     feature_dim=128, conv_kernel=6, enc_layers=0,
                                     dec_layers=0, epochs=1), **kw})


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDataPath:
    """A chunk's frames are read when a train step or an eval forward uses
    them, and generate writes each video as it makes it."""

    def test_memory_does_not_grow_with_the_dataset(self, tmp_path):
        """The peaks of generate, train and eval on 16 videos are within one
        video's frames of those on 4."""
        peaks = {}
        for n in (4, 16):
            cfg = wide_run_config(videos=n)
            data, run = tmp_path / f"data{n}", tmp_path / f"run{n}"
            peaks[n] = [
                traced_peak(lambda: cli.cmd_generate(cfg, data)),
                traced_peak(lambda: cli.cmd_train(cfg, data, run)),
                *(traced_peak(lambda: cli.cmd_eval(cfg, data, run, task,
                                                   run / cli.CHECKPOINT_NAME))
                  for task in ("recognition", "nlq"))]
        cfg = wide_run_config()
        video = round(cfg.duration * cfg.fps) * cfg.feature_dim * 4
        for small, large, what in zip(peaks[4], peaks[16],
                                      ("generate", "train", "recognition", "nlq")):
            assert large - small < video, (what, small, large)

    def test_each_payload_is_read_once_a_use(self, tmp_path, monkeypatch):
        """load_dataset reads no frame; training reads each narrated chunk
        once an epoch and no other, and an eval call each chunk once."""
        cfg = tiny_run_config(duration=30.0, epochs=3)
        data = tmp_path / "data"
        cli.cmd_generate(cfg, data)
        reads = []
        load = datagen.load

        def counted(path):
            reads.append(Path(path).name)
            return load(path)

        monkeypatch.setattr(datagen, "load", counted)
        _, _, videos = cli.load_dataset(data)
        assert reads == []
        narrated = {c.path.name for cs in videos.values() for c in cs if c.narrations}
        assert 0 < len(narrated) < sum(len(cs) for cs in videos.values())
        cli.cmd_train(cfg, data, tmp_path / "run")
        assert Counter(reads) == {name: cfg.epochs for name in narrated}
        every = sorted(c.path.name for cs in videos.values() for c in cs)
        for task in ("recognition", "nlq"):
            reads.clear()
            cli.cmd_eval(cfg, data, tmp_path / "run", task,
                         tmp_path / "run" / cli.CHECKPOINT_NAME)
            assert sorted(reads) == every

    def test_chunk_rewritten_after_loading_is_an_io_error(self, dataset, tmp_path):
        """A chunk file replaced after load_dataset by a whole chunk of
        another shape is refused when its frames are read."""
        _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        _, _, videos = cli.load_dataset(bad)
        chunk = videos["video0000"][0]
        datagen.store(chunk.features[:-1], chunk.path)
        with pytest.raises(DataFileError, match="when the dataset was loaded"):
            chunk.features

    @pytest.mark.parametrize("command", ["train", "recognition", "nlq"])
    def test_chunk_cut_after_loading_is_a_format_error(self, dataset, trained, tmp_path,
                                                       monkeypatch, capsys, command):
        """A chunk file truncated after load_dataset checked its size fails
        when its frames are read: FormatError through cmd_train and
        cmd_eval, one format line through main."""
        cfg, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        load_dataset = cli.load_dataset

        def then_cut(*args):
            loaded = load_dataset(*args)
            path = _first_chunk_file(bad)
            path.write_bytes(path.read_bytes()[:-4])
            return loaded

        monkeypatch.setattr(cli, "load_dataset", then_cut)

        def run(out):
            if command == "train":
                return cli.cmd_train(cfg, bad, out)
            return cli.cmd_eval(cfg, bad, out, command, trained)

        with pytest.raises(FormatError, match="truncated"):
            run(tmp_path / "o1")
        shutil.copy(_first_chunk_file(data), _first_chunk_file(bad))  # whole again
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        argv = ([command, "--data", str(bad)] if command == "train" else
                ["eval", "--data", str(bad), "--task", command, "--checkpoint", str(trained)])
        rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: format:"), err
        assert _first_chunk_file(bad).name in err


class TestMainEntry:
    def test_each_category_has_one_error_class(self):
        """The CLI prints a refusal as ``error: <category>:``; each of the
        nine category words is the category of exactly one class."""
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        categories = [c.category for c in subclasses(MomentSetError)]
        assert len(categories) == len(set(categories)), sorted(categories)
        assert set(categories) == {"shape", "numeric", "config", "datagen", "range",
                                   "matching", "contract", "format", "io"}

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
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unopenable_checkpoint(self, dataset, tmp_path, capsys, command, kind):
        """An eval or resumed train whose checkpoint path is missing or a
        directory ends in an io error, not an OSError traceback."""
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        path = tmp_path / "ckpt.malc"
        if kind == "directory":
            path.mkdir()
        argv = [command, "--config", str(cfg_path), "--data", str(data),
                "--out", str(tmp_path / "o"), "--checkpoint", str(path)]
        rc = cli.main(argv + (["--task", "nlq"] if command == "eval" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: io:") and "ckpt.malc" in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "eval"])
    def test_out_is_a_regular_file(self, dataset, trained, tmp_path, capsys, command):
        """An --out that names a file ends in a config error, not an OSError
        traceback, and the file is left as it was."""
        cfg, data = dataset
        out = tmp_path / "afile"
        out.write_text("keep")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        argv = [command, "--out", str(out), "--config", str(cfg_path)]
        if command != "generate":
            argv += ["--data", str(data)]
        if command == "eval":
            argv += ["--checkpoint", str(trained), "--task", "recognition"]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config: output directory") and "afile" in err, err
        assert out.read_text() == "keep"

    def test_version_1_checkpoint_is_a_format_error(self, dataset, trained, tmp_path,
                                                    capsys):
        """A checkpoint of the old format, with its per-tensor table, is
        refused by its version, before anything else of it is read."""
        cfg, data = dataset
        path = tmp_path / "v1.malc"
        blob = trained.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        for argv in (["eval", "--task", "nlq"], ["train"]):
            rc = cli.main([*argv, "--data", str(data), "--out", str(tmp_path / "o"),
                           "--checkpoint", str(path)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: format:") and "version 1, expected 2" in err, err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_seed_flag(self, dataset, tmp_path, capsys, command):
        _, data = dataset
        argv = [command, "--out", str(tmp_path / "o"), "--seed", "-1"]
        rc = cli.main(argv + (["--data", str(data)] if command == "train" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config: seed must be >= 0"), err
        assert not (tmp_path / "o").exists()

    def test_dataset_with_no_videos_is_nothing_to_train(self, dataset, tmp_path, capsys):
        """A manifest with no videos, and one whose videos have no
        narrations, leave no chunk to train."""
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        manifest = json.loads((data / cli.MANIFEST_NAME).read_text())
        no_narrations = {v: {**meta, "narrations": []} for v, meta in manifest["videos"].items()}
        for name, videos in (("no_videos", {}), ("no_narrations", no_narrations)):
            empty = tmp_path / name
            shutil.copytree(data, empty)
            _rewrite_manifest(lambda m: {**m, "videos": videos})(empty)
            rc = cli.main(["train", "--config", str(cfg_path), "--data", str(empty),
                           "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: config: nothing to train"), err
            assert not (tmp_path / "o").exists()

    def test_resume_of_a_finished_run_is_nothing_to_train(self, dataset, trained,
                                                          tmp_path, capsys):
        """Resuming a checkpoint that holds every epoch of the run writes
        nothing, into a new --out or into the run's own."""
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        run = tmp_path / "run"
        shutil.copytree(trained.parent, run)
        before = tree_digest(run)
        for out in (tmp_path / "new", run):
            rc = cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                           "--out", str(out), "--checkpoint", str(run / cli.CHECKPOINT_NAME)])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert captured.err.startswith("error: config: nothing to train") \
                and f"2 of the run's {cfg.epochs} epochs" in captured.err, captured.err
        assert not (tmp_path / "new").exists()
        assert tree_digest(run) == before

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

    @pytest.mark.parametrize("duration, fault, command", [
        *((d, "2^32 frames", c) for d in (1e308, 1e30) for c in ("generate", "eval")),
        (101.0, "conv_kernel (7)", "generate")])
    def test_duration_that_generate_cannot_cut(self, tmp_path, capsys, command,
                                               duration, fault):
        """A frame count that overflows, or does not fit the .maln header's
        u32, is a config error before any work. A 6-frame last chunk against
        a 7-frame conv kernel is a shape error naming the chunk, raised when
        generate cuts it and before anything is written."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"duration": duration}))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        if command == "eval":
            argv += ["--data", str(tmp_path / "d"), "--task", "nlq",
                     "--checkpoint", str(tmp_path / "c.malc")]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        expect = ("error: shape: chunk video0000_c2 has 6 frames" if duration == 101.0
                  else "error: config:")
        assert err.startswith(expect) and fault in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entries", [
        {"moments_per_video": 1000}, {"vocab_size": 40, "feature_dim": 2},
        {"chunk_seconds": 1e-6}], ids=["moments", "vocab", "more_chunks_than_frames"])
    def test_refused_generate_leaves_no_out(self, tmp_path, capsys, entries):
        """Moments that do not fit a video, a vocabulary that does not fit
        its width, or more chunks than frames: the videos and the vocabulary
        are made and cut before any directory is, so no --out is left."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entries))
        rc = cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: datagen:"), err
        # no --out, and nothing beside it
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_failed_write_leaves_no_out(self, tmp_path, monkeypatch):
        """A generate that fails while it writes its videos removes the --out
        that it made; the OSError is an io error naming the chunk."""
        store = datagen.store
        calls = []

        def fail_third(features, path):
            calls.append(path)
            if len(calls) == 3:
                with fileio.replace_file(path):
                    raise OSError(28, "No space left on device")
            store(features, path)

        monkeypatch.setattr(datagen, "store", fail_third)
        with pytest.raises(DataFileError, match="cannot write") as e:
            cli.cmd_generate(tiny_run_config(), tmp_path / "o")
        assert str(calls[2]) in str(e.value) and isinstance(e.value.__cause__, OSError)
        assert list(tmp_path.iterdir()) == []

    def test_generate_writes_only_inside_out(self, tmp_path, monkeypatch):
        """generate writes nothing beside --out: into an existing empty --out
        whose parent is read-only it succeeds, and while it writes its
        videos the parent holds --out alone."""
        parent = tmp_path / "ro"
        out = parent / "o"
        out.mkdir(parents=True)
        store, seen = datagen.store, []

        def store_and_look(features, path):
            seen.append(sorted(p.name for p in parent.iterdir()))
            store(features, path)

        monkeypatch.setattr(datagen, "store", store_and_look)
        parent.chmod(0o555)
        try:
            cli.cmd_generate(tiny_run_config(), out)
        finally:
            parent.chmod(0o755)
        assert seen and all(names == ["o"] for names in seen)
        assert (out / cli.MANIFEST_NAME).exists()

    @pytest.mark.parametrize("entries, corrupt, named", [
        ({"duration": 10**400}, None, "duration (int of 401 digits)"),
        ({"k" * 2000: 1}, None, "unknown config keys: str of 2000 characters"),
        ({k: "x" * 50 for k in ("fps", "videos", "epochs", "queries", "heads")}, None,
         "(str of 50 characters) and 2 more"),
        (None, lambda data: _edit_manifest(lambda v: v.update(labels=[10**400]))(data),
         "concept ids int of 401 digits outside"),
        (None, lambda data: _edit_manifest(
            lambda v: v.update(labels=list(range(100, 1100))))(data),
         "concept ids 100, 101, 102 and 997 more"),
        (None, lambda data: _rewrite_manifest(
            lambda m: {**m, "videos": {"v" * 3000: {}}})(data),
         "video str of 3000 characters has missing"),
    ], ids=["config_value", "config_key", "config_values", "manifest_label",
            "manifest_labels", "manifest_video_id"])
    def test_error_line_names_a_huge_value_by_size(self, dataset, tmp_path, capsys,
                                                   entries, corrupt, named):
        """A 401-digit int or a 2,000-character key in a config file, or a
        401-digit label or a 3,000-character video id in a manifest, is
        named by its type and size; many bad entries by the first three and
        a count. Each is one line of at most 300 characters."""
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        if corrupt is None:
            cfg_path.write_text(json.dumps(entries))
            argv = ["generate"]
        else:
            cfg_path.write_text(cfg.to_json())
            bad = tmp_path / "data"
            shutil.copytree(data, bad)
            corrupt(bad)
            argv = ["train", "--data", str(bad)]
        rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) <= 300, err
        assert named in err, err

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("key, value", [
        ("duration", math.nan), ("duration", math.inf), ("chunk_seconds", math.nan),
        ("noise_level", math.inf), ("lr", math.nan), ("lr", -math.inf), ("lr", 0.0),
        ("lr", -1e-3), ("videos", 0), ("vocab_size", 0), ("seed", -3),
        ("loss_bias_init", math.nan), ("loss_bias_init", math.inf),
    ])
    def test_config_value_that_spoils_a_run(self, dataset, tmp_path, capsys,
                                            command, key, value):
        """Values that crash generate, or train nothing or NaN weights, are
        refused before any work; JSON parsing admits NaN and Infinity."""
        cfg, data = dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg.to_dict(), key: value}))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        rc = cli.main(argv + (["--data", str(data)] if command == "train" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config:") and key in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        *('{"%s": 1%s}' % (key, "0" * 400) for key in (
            "duration", "lr", "chunk_seconds", "noise_level", "loss_bias_init", "fps")),
        '{"duration": 1%s}' % ("0" * 308),
        '{"lr": 1%s}' % ("0" * 4400),
    ], ids=["duration", "lr", "chunk_seconds", "noise_level", "loss_bias_init", "fps",
            "duration_times_fps", "more_digits_than_json_reads"])
    def test_config_number_a_float_cannot_hold(self, tmp_path, capsys, text):
        """An int too large for a float, an int duration whose product with
        fps is, and an int of more digits than json.load converts are each
        one config error line, before any work."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: config:"), err
        assert not (tmp_path / "o").exists()

    def test_weights_that_blow_up_are_a_numeric_error(self, tmp_path, capsys):
        """A learning rate that overflows the weights, with every gradient
        finite, ends in the forward's refusal of a non-finite row."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"videos": 4, "epochs": 3, "lr": 1e300}))
        argv = ["--config", str(cfg_path), "--out"]
        assert cli.main(["generate", *argv, str(tmp_path / "d")]) == 0
        capsys.readouterr()
        with np.errstate(all="ignore"):
            rc = cli.main(["train", *argv, str(tmp_path / "r"), "--data", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines()[-1].startswith("error: numeric:"), err


def _first_chunk_file(data: Path) -> Path:
    return sorted((data / "chunks").iterdir())[0]


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
    path = _first_chunk_file(data)
    feats = datagen.load(path)
    datagen.store(np.hstack([feats, feats[:, :1]]), path)


def _trailing_byte(data: Path):
    path = _first_chunk_file(data)
    path.write_bytes(path.read_bytes() + b"\0")


@pytest.mark.parametrize("corrupt", [
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
    _edit_manifest(lambda v: v.update(duration=10**400)),
    _edit_manifest(lambda v: v.update(fps=True)),
    _edit_manifest(lambda v: v.update(chunks=[1])),
    _edit_manifest(lambda v: v.update(chunks=[])),
    _edit_manifest(lambda v: v["narrations"][0].pop("concept_id")),
    _edit_manifest(lambda v: v["narrations"][0].pop("b")),
    _edit_manifest(lambda v: v["narrations"][0].pop("t")),
    _edit_manifest(lambda v: v.update(chunk_seconds=0)),
    _edit_manifest(lambda v: v.update(labels=[True])),
    _edit_manifest(lambda v: v["chunks"].append(v["chunks"][0])),
    _edit_manifest(lambda v: v["chunks"].pop()),
    _edit_manifest(lambda v: v.update(duration=0.0)),
    _edit_manifest(lambda v: v.update(duration=1e308, chunk_seconds=1e-10)),
    lambda data: (data / cli.MANIFEST_NAME).write_text("{not json"),
], ids=["manifest_narration", "manifest_label",
        "feature_width", "trailing_bytes",
        "manifest_no_vocab", "manifest_vocab_not_str", "manifest_videos_not_object",
        "manifest_not_object", "manifest_no_chunks", "manifest_duration_str",
        "manifest_duration_huge_int",
        "manifest_fps_bool", "manifest_chunk_not_str", "manifest_chunks_empty",
        "manifest_narration_no_concept", "manifest_narration_no_end",
        "manifest_narration_no_t", "manifest_chunk_seconds_zero",
        "manifest_label_bool", "manifest_extra_chunk", "manifest_missing_chunk",
        "manifest_duration_zero", "manifest_chunk_count_overflows", "manifest_not_json"])
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
    assert not (tmp_path / "run").exists()


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
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", [
    lambda v: v[0], lambda v: np.full_like(v, np.nan), lambda v: 24.0 * v,
], ids=["one_dim", "all_nan", "norm_24"])
def test_bad_vocabulary_is_a_clean_error(dataset, trained, tmp_path, capsys, command, bad):
    """vocab.npz must hold a non-empty 2-D array of finite unit rows."""
    cfg, data = dataset
    bad_data = tmp_path / "data"
    shutil.copytree(data, bad_data)
    vocab = datagen.ConceptVocabulary.load(data / cli.VOCAB_NAME)
    np.savez(bad_data / cli.VOCAB_NAME, vectors=bad(vocab.vectors))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    argv = [command, "--config", str(cfg_path), "--data", str(bad_data),
            "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(trained), "--task", "recognition"]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: io:") and cli.VOCAB_NAME in err, err
    assert not (tmp_path / "o").exists()


def _checkpoint_frame_offsets(blob: bytes) -> list[int]:
    """Offsets of the bytes of a checkpoint's frame: magic, version, config
    block and counters, everything before the first payload."""
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    return list(range(12 + cfg_len + 16))


class TestFuzz:
    """Every corrupted file ends in a MomentSetError or loads cleanly; any
    other exception fails the test."""

    def test_checkpoint_bit_flip_sweep(self, dataset, tmp_path, capsys):
        cfg = tiny_run_config(enc_layers=0, dec_layers=0)
        model = cli.build_model(cfg)
        good = tmp_path / "good.malc"
        ckpt.save_checkpoint(good, cfg, model, Adam(model.params, lr=cfg.lr), 1)
        blob = good.read_bytes()
        frame = _checkpoint_frame_offsets(blob)
        path = tmp_path / "flipped.malc"
        typed = typed_eval = 0
        for i in frame:
            for bit in (0, 7):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                path.write_bytes(flipped)
                try:
                    ckpt.restore(ckpt.load_checkpoint(path), cfg)
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
        """Every truncation of a chunk file, and every bit flip of its header,
        run through training."""
        cfg = tiny_run_config(videos=1, epochs=1)
        data = tmp_path / "data"
        cli.cmd_generate(cfg, data)
        path = _first_chunk_file(data)
        blob = path.read_bytes()
        cases = [blob[:n] for n in range(len(blob))]
        for i in range(16):
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

        # a version 1 chunk: the same header and frames, then its narration block
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:]
                         + struct.pack("<IIddd", 1, 0, 3.0, 2.0, 4.0))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: format:") and path.name in err, err
        assert "version 1, expected 2" in err
