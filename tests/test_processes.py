"""Checks that need a real process: a run ended by ``os._exit``, which
flushes and closes nothing, as a kill would."""
import os
import subprocess
import sys
from pathlib import Path

from momentset import checkpoint as ckpt
from momentset import cli
from momentset.config import RunConfig

SRC = Path(cli.__file__).resolve().parents[1]

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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_AFTER_SAVE, str(cfg_path), str(data), str(part), "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 137, proc.stderr
    assert ckpt.load_checkpoint(part / cli.CHECKPOINT_NAME).epochs_done == 2
    cli.cmd_train(cfg, data, part, resume_from=part / cli.CHECKPOINT_NAME)
    for name in (cli.TRAIN_LOG_NAME, cli.CHECKPOINT_NAME):
        assert (part / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
