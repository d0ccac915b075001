"""fileio is the one writer: a failed write keeps the previous file, and no
other module writes a file on its own."""
import ast
import contextlib
import dataclasses
from pathlib import Path

import pytest

from momentset import cli, fileio
from momentset.config import RunConfig
from momentset.errors import DataFileError

SRC = Path(fileio.__file__).parent


def _run(root: Path, config: RunConfig):
    """Generate into ``root/data``, train into ``root/out`` and eval both
    tasks there: every output file that the CLI writes."""
    data, out = root / "data", root / "out"
    cli.cmd_generate(config, data, force=True)
    cli.cmd_train(config, data, out)
    for task in ("recognition", "nlq"):
        cli.cmd_eval(config, data, out, task, out / cli.CHECKPOINT_NAME)


@pytest.mark.parametrize("name", [
    "data/manifest.json", "data/vocab.npz", "data/chunks/video0001_000.maln",
    "out/checkpoint.malc", "out/report_recognition.json", "out/nlq_outcomes.csv"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    """A second run, of another seed, whose write of ``name`` raises an
    OSError inside the writer's block: the error is a DataFileError naming
    the file, the file keeps the first run's bytes, and no temp file is
    left."""
    config = RunConfig(seed=3, videos=3, duration=12.0, fps=2, chunk_seconds=6.0,
                       vocab_size=4, moments_per_video=2, feature_dim=8, model_dim=8,
                       conv_kernel=2, enc_layers=0, dec_layers=0, heads=2, head_dim=4,
                       queries=4, temporal_rows=8, ffn_hidden=16, epochs=1, batch_size=2)
    _run(tmp_path, config)
    path = tmp_path / name
    previous = path.read_bytes()
    replace_file = fileio.replace_file

    @contextlib.contextmanager
    def failing(target, *args, **kwargs):
        with replace_file(target, *args, **kwargs) as f:
            yield f
            if Path(target) == path:
                raise OSError(28, "No space left on device")

    monkeypatch.setattr(fileio, "replace_file", failing)
    with pytest.raises(DataFileError, match="cannot write") as e:
        _run(tmp_path, dataclasses.replace(config, seed=4))
    assert str(path) in str(e.value) and isinstance(e.value.__cause__, OSError)
    assert path.read_bytes() == previous
    assert not list(tmp_path.rglob("*.tmp"))


def _writes(tree: ast.Module) -> list[str]:
    """Each call in ``tree`` that writes a file other than through a file
    that ``fileio.replace_file`` opened: an ``open`` with a mode that is
    not a read, ``write_text`` or ``write_bytes``, or ``np.save*`` on
    anything but such a file."""
    replaced = {item.optional_vars.id for node in ast.walk(tree)
                if isinstance(node, ast.With) for item in node.items
                if ast.unparse(item.context_expr).startswith("fileio.replace_file(")}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func == "open" or func.endswith(".open"):
            at = 1 if func == "open" else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
        elif func.startswith(("np.save", "numpy.save")):
            writes = not (node.args and ast.unparse(node.args[0]) in replaced)
        else:
            writes = func.endswith((".write_text", ".write_bytes"))
        if writes:
            found.append(ast.unparse(node))
    return found


def test_only_fileio_writes_files():
    """No module but fileio decides how a file is written. The one
    exception is the train log, which cli appends to row by row."""
    found = {path.name: _writes(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "fileio.py"}
    assert {k: v for k, v in found.items() if v} == {
        "cli.py": ["open(log_path, mode, newline='')"]}
