"""What a process loads.  ``import commutant`` loads no submodule, and each
CLI subcommand loads only the layers it runs, so a ``gen-kmat`` process pays
nothing for the certifiers or the verify suites, and a usage error nothing
for numpy.  Each case runs in a fresh interpreter, since this one has loaded
every module by now."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commutant

SRC = str(Path(commutant.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))}

#: the certifiers and the suites
UNUSED = {"commutant.verify", "commutant.preserver", "commutant.cp"}

RUN_MAIN = """
import contextlib, io, json, sys
from commutant import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = (m for m in sys.modules if m.partition(".")[0] in ("commutant", "numpy"))
print(json.dumps([code, sorted(loaded)]))
"""


def _fresh(code: str, *argv: str):
    """Run ``code`` in a new interpreter and parse the JSON line it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env=ENV,
        timeout=60,
    )
    return json.loads(done.stdout)


def test_import_commutant_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, commutant\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('commutant'))))"
    )
    assert loaded == ["commutant"]


@pytest.mark.parametrize(
    "argv,exit_code,unused",
    [
        (["gen-kmat", "7", "5"], 0, UNUSED),
        (["gen-ktensor", "2", "3"], 0, UNUSED),
        (["unfold", "TENSOR"], 0, UNUSED),
        (["gen-kmat", "7", "x"], 2, UNUSED),
        (["gen-gct", "2", "3", "--perm", "2,3,1"], 0, UNUSED),
        (["apply", "PHI", "TENSOR"], 0, {"commutant.verify", "commutant.cp"}),
    ],
    ids=["gen-kmat", "gen-ktensor", "unfold", "usage-error", "gen-gct", "apply"],
)
def test_a_subcommand_loads_only_its_layers(tmp_path, argv, exit_code, unused):
    files = {"TENSOR": tmp_path / "t.json", "PHI": tmp_path / "phi.json"}
    files["TENSOR"].write_text('{"shape":[2,2],"values":[1,2,3,4]}', encoding="utf-8")
    files["PHI"].write_text(
        '{"m":2,"n":2,"tau":[2,1],"matrices":[[[1,0],[0,1]],[[2,1],[1,1]]]}', encoding="utf-8"
    )
    code, loaded = _fresh(RUN_MAIN, *(str(files.get(a, a)) for a in argv))
    assert code == exit_code
    assert "commutant.cli" in loaded and unused.isdisjoint(loaded), loaded


@pytest.mark.parametrize(
    "argv", [["gen-kmat", "7", "x"], ["verify", "--sizes", "0x2"]], ids=["gen-kmat", "verify"]
)
def test_a_usage_error_exits_before_numpy_loads(argv):
    code, loaded = _fresh(RUN_MAIN, *argv)
    assert code == 2
    assert loaded == ["commutant", "commutant.cli", "commutant.errors"]
