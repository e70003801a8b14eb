"""What a process loads.  ``import commutant`` loads no submodule, and each
CLI subcommand loads only the layers it runs, so a ``gen-kmat`` process pays
nothing for the certifiers or the verify suites, and a ``gen-*`` command, an
``unfold``, a usage error or an input that does not parse nothing for
numpy.  Each case runs in a fresh interpreter, since this one has loaded
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


def _fresh(code: str, *argv: str, env=None):
    """Run ``code`` in a new interpreter, with ``env`` added to its
    environment, and parse the JSON line it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**ENV, **(env or {})},
        timeout=60,
    )
    return json.loads(done.stdout)


def test_import_commutant_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, commutant\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('commutant'))))"
    )
    assert loaded == ["commutant"]


def test_import_serialize_loads_no_numpy():
    loaded = _fresh(
        "import json, sys, commutant.serialize\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "('commutant', 'numpy'))))"
    )
    assert loaded == ["commutant", "commutant.errors", "commutant.serialize"]


#: tensor files for ``unfold``: one it unfolds, and one for each of its
#: refusals after the parse stage, the conversion's and the unfolding's
UNFOLD_FILES = {
    "TENSOR": '{"shape":[2,2],"values":[1,2,3,4]}',
    "TEXT": "1 2\n3 4\n",
    "HUGE_INT": '{"shape":[2],"values":[1,1%s]}' % ("0" * 400),
    "BAD_SHAPE": '{"shape":[0,2],"values":[]}',
    "COUNT": '{"shape":[2,2],"values":[1,2,3]}',
    "NAN": '{"shape":[2,2],"values":[1,NaN,3,4]}',
    "ODD": '{"shape":[2,2,2],"values":[1,2,3,4,5,6,7,8]}',
    "NOT_SQUARE": "1 2 3\n4 5 6\n",
}


@pytest.mark.parametrize(
    "argv,exit_code,unused",
    [
        (["gen-kmat", "7", "5"], 0, UNUSED),
        (["gen-ktensor", "2", "3"], 0, UNUSED),
        (["unfold", "TENSOR"], 0, UNUSED),
        (["unfold", "TEXT", "--format", "json"], 0, UNUSED),
        (["unfold", "HUGE_INT"], 2, UNUSED),
        (["unfold", "BAD_SHAPE"], 2, UNUSED),
        (["unfold", "COUNT"], 2, UNUSED),
        (["unfold", "NAN"], 2, UNUSED),
        (["unfold", "ODD"], 3, UNUSED),
        (["unfold", "NOT_SQUARE"], 3, UNUSED),
        (["gen-kmat", "7", "x"], 2, UNUSED),
        (["gen-gct", "2", "3", "--perm", "2,3,1"], 0, UNUSED),
        (["apply", "PHI", "TENSOR"], 0, {"commutant.verify", "commutant.cp"}),
    ],
    ids=[
        "gen-kmat",
        "gen-ktensor",
        "unfold",
        "unfold-text",
        "unfold-huge-int",
        "unfold-bad-shape",
        "unfold-count",
        "unfold-nan",
        "unfold-odd-order",
        "unfold-not-square",
        "usage-error",
        "gen-gct",
        "apply",
    ],
)
def test_a_subcommand_loads_only_its_layers(tmp_path, argv, exit_code, unused):
    files = {"PHI": tmp_path / "phi.json"}
    files["PHI"].write_text(
        '{"m":2,"n":2,"tau":[2,1],"matrices":[[[1,0],[0,1]],[[2,1],[1,1]]]}', encoding="utf-8"
    )
    for name, text in UNFOLD_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text, encoding="utf-8")
    code, loaded = _fresh(RUN_MAIN, *(str(files.get(a, a)) for a in argv))
    assert code == exit_code
    assert "commutant.cli" in loaded and unused.isdisjoint(loaded), loaded
    # the gen-* commands write from closed forms and unfold re-indexes its
    # input's values, whether it writes or refuses; only apply builds
    builds = argv[0] == "apply"
    assert ("numpy" in loaded) == builds and ("commutant.tensor" in loaded) == builds, loaded


@pytest.mark.parametrize(
    "argv", [["gen-kmat", "7", "x"], ["verify", "--sizes", "0x2"]], ids=["gen-kmat", "verify"]
)
def test_a_usage_error_exits_before_numpy_loads(argv):
    code, loaded = _fresh(RUN_MAIN, *argv)
    assert code == 2
    assert loaded == ["commutant", "commutant.cli", "commutant.errors"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-kmat", "5000", "5000"],
        ["gen-kmat", "100000", "100000", "--format", "json"],
        ["gen-ktensor", "65", "65"],
        ["gen-gct", "65", "3"],
    ],
    ids=["gen-kmat", "gen-kmat-json", "gen-ktensor", "gen-gct"],
)
def test_a_gen_refusal_exits_before_numpy_loads(argv):
    code, loaded = _fresh(RUN_MAIN, *argv)
    assert code == 3
    assert "numpy" not in loaded and "commutant.tensor" not in loaded, loaded


PHI = '{"m":2,"n":2,"tau":[2,1],"matrices":[[[1,0],[0,1]],[[2,1],[1,1]]]}'
PARSE_ERROR_FILES = {
    "PHI": PHI,
    "NAN_PHI": PHI.replace("[2,1],[1,1]", "[NaN,1],[1,1]"),
    "STRING_M_PHI": PHI.replace('"m":2', '"m":"x"'),
    "TENSOR": '{"shape":[2,2],"values":[1,2,3,4]}',
    "INF_TEXT": "1 2\ninf 4\n",
    "TRUNCATED": '{"shape": [3, 3], "v',
}


@pytest.mark.parametrize(
    "argv,env",
    [
        (["apply", "NAN_PHI", "TENSOR"], None),
        (["apply", "PHI", "INF_TEXT"], None),
        (["apply", "STRING_M_PHI", "TENSOR"], None),
        (["apply", "PHI", "TRUNCATED"], None),
        (["gen-gct", "2", "3", "--perm", "1,1,2"], None),
        (["apply", "MISSING", "TENSOR"], None),
        (["verify"], {"COMMUTANT_SEED": "x"}),
    ],
    ids=["nan-preserver", "inf-text", "string-m", "truncated", "bad-perm", "missing", "bad-seed"],
)
def test_a_parse_error_exits_before_numpy_loads(tmp_path, argv, env):
    files = {"MISSING": tmp_path / "missing.json"}
    for name, text in PARSE_ERROR_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text, encoding="utf-8")
    code, loaded = _fresh(RUN_MAIN, *(str(files.get(a, a)) for a in argv), env=env)
    assert code == 2
    assert "numpy" not in loaded and "commutant.tensor" not in loaded, loaded
