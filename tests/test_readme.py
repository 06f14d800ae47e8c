"""The README's examples run as written, so renaming or removing API that
the README shows fails the suite."""

import contextlib
import io
import json
import re
from pathlib import Path

from gpeps.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    section = README.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    success, measurements, fidelity = out.getvalue().split()
    assert success in ("True", "False") and int(measurements) >= 4  # one per vertex at least
    float(fidelity)


def test_simulate_example_config_runs(tmp_path, capsys):
    config = re.search(r"cat > sim\.json <<'EOF'\n(.*?)\nEOF\n", README, re.S).group(1)
    path = tmp_path / "sim.json"
    path.write_text(config, encoding="utf-8")
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path), "--trials", "20"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["report"]["pass"] is True
