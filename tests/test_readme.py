"""The README's typical command lines run as written, and README states
contracts only.

Every ``ergolab ...`` line of the "Typical runs" block goes through
``cli.main`` in a scratch directory that holds ``op.json``, the builtin
Jordan block J_2(1); each must end in a report (exit 0 or 1), not in a
configuration error or a traceback.  README names no private identifier,
and the config-key rules it points to are in each scenario's ``--help``.
"""

import re
import shlex
from pathlib import Path

import pytest

from ergolab import cli, linop

README = Path(__file__).resolve().parents[1] / "README.md"


def typical_runs():
    text = README.read_text()
    block = re.search(r"Typical runs:\n\n```bash\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ergolab ")]


def test_readme_has_typical_runs():
    assert len(typical_runs()) >= 5


@pytest.mark.parametrize("argv", typical_runs(), ids=" ".join)
def test_typical_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    linop.save_operator(cli.parse_operator("jordan:2:1"), tmp_path / "op.json")
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err


def test_readme_names_no_private_identifier():
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = [name for span in spans for name in re.findall(r"[A-Za-z_][\w.]*", span)]
    assert [name for name in names if name.startswith("_") or "._" in name] == []


@pytest.mark.parametrize("scenario", sorted(cli._KEYS))
def test_help_lists_every_config_key_with_its_rule(scenario, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([scenario, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, rule in cli._KEYS[scenario].items():
        if key in cli._FLAG_KEYS:
            flag = "--op" if key == "operator" else f"--{key}"
            assert re.search(re.escape(flag) + r" \S+ " + re.escape(str(rule)), text), key
        else:
            assert f"{key}: {rule}" in text, key
