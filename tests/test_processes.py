"""Checks that need a real process: a run ended by ``os._exit``, which
flushes and closes nothing, as a kill would, a second process writing the
file that this one is writing, and ``python -m momentset.cli`` runs checked
by their exit codes, stderr lines and files."""
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from momentset import checkpoint as ckpt
from momentset import cli, fileio
from momentset.config import RunConfig

SRC = Path(cli.__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def run_cli(*args, check=True, preexec_fn=None) -> subprocess.CompletedProcess:
    """``python -m momentset.cli`` with ``args``; with ``check``, a run
    that does not exit 0 fails the test with its stderr. ``preexec_fn``
    runs in the child before the CLI starts."""
    proc = subprocess.run([sys.executable, "-m", "momentset.cli", *map(str, args)],
                          env={**ENV, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=preexec_fn)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def cap_address_space():
    """Limit the child to 2 GB of address space, so a model too big to
    exist fails its allocation at once instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def write_config(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields))
    return path


def set_snapshot_field(src: Path, dst: Path, key: str, value):
    """Copy the checkpoint ``src`` to ``dst`` with one field of its config
    snapshot (the JSON after the magic, version and u32 length) set."""
    blob = src.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    snapshot = json.loads(blob[12:12 + n])
    snapshot[key] = value
    cfg = json.dumps(snapshot).encode()
    dst.write_bytes(blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n:])

# train with the config file argv[1] on the dataset argv[2] into argv[3],
# ending the process right after the save of epoch argv[4]
EXIT_AFTER_SAVE = """
import os, sys
from pathlib import Path
from momentset import checkpoint, cli
from momentset.config import RunConfig

save = checkpoint.save_checkpoint

def save_then_exit(path, config, model, optimizer, epochs_done):
    save(path, config, model, optimizer, epochs_done)
    if epochs_done == int(sys.argv[4]):
        os._exit(137)

checkpoint.save_checkpoint = save_then_exit
cli.cmd_train(RunConfig.from_file(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]))
"""


def test_exit_right_after_a_save_resumes_to_the_same_bytes(tmp_path):
    """A run ended right after its epoch-2 save, with nothing flushed or
    closed after it, resumes to the log and checkpoint of an uninterrupted
    run: the log on disk already held every step that the save did."""
    cfg = RunConfig(seed=3, videos=3, duration=12.0, fps=2, chunk_seconds=6.0,
                    vocab_size=4, moments_per_video=2, feature_dim=8, model_dim=8,
                    conv_kernel=2, enc_layers=0, dec_layers=0, heads=2, head_dim=4,
                    queries=4, temporal_rows=8, ffn_hidden=16, epochs=3, batch_size=2)
    data = tmp_path / "data"
    cli.cmd_generate(cfg, data)
    cli.cmd_train(cfg, data, tmp_path / "full")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    part = tmp_path / "part"
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_AFTER_SAVE, str(cfg_path), str(data), str(part), "2"],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 137, proc.stderr
    assert ckpt.load_checkpoint(part / cli.CHECKPOINT_NAME).epochs_done == 2
    cli.cmd_train(cfg, data, part, resume_from=part / cli.CHECKPOINT_NAME)
    for name in (cli.TRAIN_LOG_NAME, cli.CHECKPOINT_NAME):
        assert (part / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_two_processes_writing_one_file_each_rename_a_whole_file(tmp_path):
    """While this process holds ``replace_file(p)`` open, a child writes
    ``p`` through it to completion. Each writes its own temp file, so both
    writes succeed, ``p`` holds the bytes of the write that closed last,
    and no temp file is left."""
    p = tmp_path / "x.bin"
    child = ("from momentset import fileio\n"
             f"with fileio.replace_file({str(p)!r}) as f:\n"
             "    f.write(b'child')\n")
    with fileio.replace_file(p) as f:
        f.write(b"parent")
        subprocess.run([sys.executable, "-c", child], env=ENV, check=True, timeout=60)
        assert p.read_bytes() == b"child"
    assert p.read_bytes() == b"parent"
    assert list(tmp_path.iterdir()) == [p]


def test_train_resume_and_eval_on_chunks_without_narrations(tmp_path):
    """600-s videos in 50-s chunks with 4 narrations each, so most chunks
    have none: generate, train 1 epoch, resume to 2 and eval both tasks."""
    cfg1 = write_config(tmp_path / "epochs1.json", videos=8, duration=600.0,
                        moments_per_video=4, epochs=1)
    cfg2 = write_config(tmp_path / "epochs2.json", videos=8, duration=600.0,
                        moments_per_video=4, epochs=2)
    data, run = tmp_path / "data", tmp_path / "run"
    ckpt_path = run / cli.CHECKPOINT_NAME
    run_cli("generate", "--config", cfg1, "--out", data)
    run_cli("train", "--config", cfg1, "--data", data, "--out", run)
    run_cli("train", "--config", cfg2, "--data", data, "--out", run,
            "--checkpoint", ckpt_path)
    log = (run / cli.TRAIN_LOG_NAME).read_text().splitlines()
    assert len(log) == 9  # a header and 8 steps
    for task in ("recognition", "nlq"):
        run_cli("eval", "--config", cfg2, "--data", data, "--out", run,
                "--checkpoint", ckpt_path, "--task", task)


def test_eval_of_a_long_kernel_checkpoint_with_no_config(tmp_path):
    """A conv-350 model on 600-frame chunks, evaluated with no --config:
    the default config's 300-frame chunks are not the dataset's, so they
    must not decide whether the checkpoint loads."""
    cfg = write_config(tmp_path / "cfg.json", videos=4, chunk_seconds=100.0,
                       conv_kernel=350, epochs=1)
    data, run = tmp_path / "data", tmp_path / "run"
    run_cli("generate", "--config", cfg, "--out", data)
    run_cli("train", "--config", cfg, "--data", data, "--out", run)
    for task in ("recognition", "nlq"):
        run_cli("eval", "--data", data, "--out", run,
                "--checkpoint", run / cli.CHECKPOINT_NAME, "--task", task)


def test_non_finite_config_is_one_error_line_and_no_out(tmp_path):
    """A NaN loss_bias_init is refused when the config file is read, so
    generate prints one error line and makes no --out, nor anything
    beside it."""
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"videos": 2, "epochs": 1, "loss_bias_init": NaN}')
    proc = run_cli("generate", "--config", cfg, "--out", tmp_path / "nan", check=False)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.json"]


def test_resume_on_another_dataset_numbers_rows_from_the_checkpoint(tmp_path):
    """A 1-epoch run on 4 default videos (1 step) resumed to 2 epochs on
    12 (3 steps an epoch) numbers its log rows from the checkpoint's step."""
    small = write_config(tmp_path / "small.json", videos=4, epochs=1)
    large = write_config(tmp_path / "large.json", videos=12, epochs=2)
    run = tmp_path / "run"
    run_cli("generate", "--config", small, "--out", tmp_path / "small")
    run_cli("generate", "--config", large, "--out", tmp_path / "large")
    run_cli("train", "--config", small, "--data", tmp_path / "small", "--out", run)
    run_cli("train", "--config", large, "--data", tmp_path / "large", "--out", run,
            "--checkpoint", run / cli.CHECKPOINT_NAME)
    rows = (run / cli.TRAIN_LOG_NAME).read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]


def test_number_a_float_cannot_hold_is_one_short_error_line(tmp_path):
    """A 400-digit int in a config file is one error line of at most 300
    characters, and generate makes no --out."""
    cfg = tmp_path / "big.json"
    cfg.write_text(f'{{"duration": {10 ** 400}}}')
    proc = run_cli("generate", "--config", cfg, "--out", tmp_path / "big", check=False)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")
    assert len(proc.stderr.encode()) <= 300
    assert not (tmp_path / "big").exists()


def test_number_a_float_cannot_hold_in_a_snapshot_is_an_io_error(tmp_path):
    """A 400-digit int in a checkpoint's config snapshot is a bad snapshot."""
    cfg = write_config(tmp_path / "small.json", videos=2, epochs=1)
    data, run = tmp_path / "data", tmp_path / "run"
    run_cli("generate", "--config", cfg, "--out", data)
    run_cli("train", "--config", cfg, "--data", data, "--out", run)
    bad = tmp_path / "bad.malc"
    set_snapshot_field(run / cli.CHECKPOINT_NAME, bad, "loss_bias_init", 10 ** 400)
    proc = run_cli("eval", "--data", data, "--out", tmp_path / "eval",
                   "--checkpoint", bad, "--task", "nlq", check=False)
    assert proc.returncode == 2
    assert any(line.startswith("error: io:") and "bad config snapshot" in line
               for line in proc.stderr.splitlines()), proc.stderr


def test_weights_that_blow_up_end_in_a_numeric_error(tmp_path):
    """An lr that blows the weights up ends in the forward's refusal of a
    non-finite row."""
    cfg = write_config(tmp_path / "lr.json", videos=4, epochs=3, lr=1e300)
    run_cli("generate", "--config", cfg, "--out", tmp_path / "lr")
    proc = run_cli("train", "--config", cfg, "--data", tmp_path / "lr",
                   "--out", tmp_path / "lrrun", check=False)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("error: numeric:"), proc.stderr


TOO_BIG = {"queries": 2 ** 40, "ffn_hidden": 2 ** 40, "enc_layers": 10 ** 7}


@pytest.mark.parametrize("field", sorted(TOO_BIG))
def test_model_too_big_to_exist_is_one_config_error_line(tmp_path, field):
    """A config whose model has more parameters than the cap is one error
    line of at most 300 characters, and train makes no --out. Under the
    child's 2-GB cap, building such a model ended in a MemoryError
    traceback; without a cap, 10^7 layers allocated until stopped."""
    data = tmp_path / "data"
    cli.cmd_generate(RunConfig(videos=2, epochs=1), data)
    cfg = write_config(tmp_path / "big.json", videos=2, epochs=1, **{field: TOO_BIG[field]})
    proc = run_cli("train", "--config", cfg, "--data", data, "--out", tmp_path / "run",
                   check=False, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:"), proc.stderr
    assert "parameter count" in lines[0] and len(proc.stderr.encode()) <= 300
    assert not (tmp_path / "run").exists()


def test_snapshot_of_a_model_too_big_to_exist_is_a_bad_snapshot(tmp_path):
    """A checkpoint whose snapshot claims such a model is refused as a bad
    snapshot, not sized against the file."""
    cfg = RunConfig(videos=2, epochs=1)
    data, run = tmp_path / "data", tmp_path / "run"
    cli.cmd_generate(cfg, data)
    cli.cmd_train(cfg, data, run)
    for field, value in TOO_BIG.items():
        bad = tmp_path / f"{field}.malc"
        set_snapshot_field(run / cli.CHECKPOINT_NAME, bad, field, value)
        proc = run_cli("eval", "--data", data, "--out", tmp_path / "eval",
                       "--checkpoint", bad, "--task", "nlq", check=False,
                       preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io:"), proc.stderr
        assert "bad config snapshot" in lines[0] and "parameter count" in lines[0]
        assert not (tmp_path / "eval").exists()


TOO_BIG_TO_GENERATE = {
    "vocab_size": {"vocab_size": 2 ** 40, "videos": 2},
    "duration": {"duration": 5e8, "videos": 1, "moments_per_video": 1},
}


@pytest.mark.parametrize("field", sorted(TOO_BIG_TO_GENERATE))
def test_dataset_too_big_to_make_is_one_config_error_line(tmp_path, field):
    """A vocabulary or one video's frames of more than the cap's values is
    one error line, and generate makes no --out. Under the child's 2-GB
    cap, making either ended in a numpy MemoryError traceback."""
    cfg = write_config(tmp_path / "big.json", **TOO_BIG_TO_GENERATE[field])
    proc = run_cli("generate", "--config", cfg, "--out", tmp_path / "data",
                   check=False, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:"), proc.stderr
    assert str(cli.MAX_GENERATE_VALUES) in lines[0]
    assert not (tmp_path / "data").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 2-video dataset and a 1-epoch checkpoint of its config."""
    root = tmp_path_factory.mktemp("trained")
    cfg = RunConfig(videos=2, epochs=1)
    cli.cmd_generate(cfg, root / "data")
    cli.cmd_train(cfg, root / "data", root / "run")
    return root


# (command, the output whose name a directory takes)
UNWRITABLE = [
    ("train", cli.TRAIN_LOG_NAME),
    ("train", cli.CHECKPOINT_NAME),
    ("resume", cli.TRAIN_LOG_NAME),
    ("recognition", "report_recognition.json"),
    ("nlq", "nlq_outcomes.csv"),
    ("generate", cli.MANIFEST_NAME),
    ("generate", cli.VOCAB_NAME),
]


@pytest.mark.parametrize("command, name", UNWRITABLE)
def test_output_that_cannot_be_written_is_one_io_error_line(tmp_path, trained,
                                                             command, name):
    """An output whose name a directory takes ends in one ``error: io:``
    line naming it, where each ended in an IsADirectoryError traceback."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json", videos=2, epochs=2)
    data, checkpoint = trained / "data", trained / "run" / cli.CHECKPOINT_NAME
    if command == "generate":
        args = ["generate", "--config", cfg, "--out", out, "--force"]
    elif command in ("train", "resume"):
        args = ["train", "--config", cfg, "--data", data, "--out", out]
        args += ["--checkpoint", checkpoint] if command == "resume" else []
    else:
        args = ["eval", "--data", data, "--out", out, "--task", command,
                "--checkpoint", checkpoint]
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2, proc.stderr
    # eval may log a class with no positive video before it
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: io:"), proc.stderr
    assert name in errors[0] and "Traceback" not in proc.stderr
    assert (out / name).is_dir()
