"""``unfold`` writes the balance unfolding from its input's values alone.

A tensor's first-mode-fastest values are its balance unfolding's entries
column by column, so the CLI re-indexes the parsed values with the standard
library instead of building the tensor.  These tests hold it to the library
route it stands for, ``balance_unfold`` of the tensor built through numpy,
written by ``canonical_json`` or row by row with ``%.17g``: the same exit
code, stdout and stderr on random documents, and pinned bytes for each
refusal in the route's order.  ``balance_unfold`` is the oracle of the index
rule, ``DenseTensor.from_flat`` that of the tensor reader's checks, and
``np.array`` of the rows that of the matrix text reader's.  Those readers
and the matrix text writer are shared by ``unfold``, ``apply``,
``tensor_from_json``, ``matrix_from_text`` and ``matrix_to_text``, so the
route here reads and writes without them.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import CommutantError, DenseTensor, DimensionError, balance_unfold
from commutant import errors as errors_mod
from commutant import serialize as ser
from commutant.cli import main

HUGE_INT = "1" + "0" * 400
#: the least int that rounds past float range; one less converts
FLOAT_EDGE = 2**1024 - 2**970

NUMBERS = st.one_of(
    st.integers(-4, 4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.1, 1e308, -1e308, 5e-324, 2**53 + 1, 2**63, -(2**63) - 1, 2**64]),
    st.sampled_from([FLOAT_EDGE - 1, -(FLOAT_EDGE - 1)]),
)
#: values the conversion refuses: NaN and Infinity tokens, ints past float range
BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, FLOAT_EDGE, 10**400, -(10**400)])


def _spoil(draw, cells: list, bad) -> list:
    """``cells``, sometimes with one of them replaced by a draw of ``bad``."""
    if cells and draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(bad)
    return cells


@st.composite
def tensor_documents(draw):
    """Tensor JSON of order 0 to 6 or around numpy's 64 modes: equal or
    unequal extents, some below 1, a value count that fits the shape or is
    one off, and sometimes a value the conversion refuses."""
    order = draw(st.integers(0, 6) | st.sampled_from([64, 65]))
    n = draw(st.integers(1, 3) if order <= 6 else st.just(1))
    if draw(st.booleans()):
        shape = [n] * order
    else:
        shape = draw(st.lists(st.integers(-1, 3), min_size=order, max_size=order))
    size = math.prod(shape) if all(d >= 1 for d in shape) else 0
    count = draw(st.sampled_from([size, size, size, size + 1, max(size - 1, 0)]))
    values = _spoil(draw, draw(st.lists(NUMBERS, min_size=count, max_size=count)), BAD_NUMBERS)
    return json.dumps({"shape": shape, "values": values})


@st.composite
def matrix_texts(draw):
    """Matrix text, square or not, sometimes with a nan or inf that its
    parse stage refuses."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.just(rows) | st.integers(1, 4))
    cells = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
        ["-0", "7", "1e-320"]
    )
    lines = [draw(st.lists(cells, min_size=cols, max_size=cols)) for _ in range(rows)]
    _spoil(draw, lines[-1], st.sampled_from(["nan", "inf", "-inf"]))
    return "".join(" ".join(line) + "\n" for line in lines)


def _built_tensor(text: str) -> DenseTensor:
    """Tensor JSON loaded as ``serialize`` loaded it through numpy: ``json``
    (a ``-0`` is -0.0, the format's rule), ``DenseTensor.from_flat`` and
    ``np.isfinite``.  The documents drawn here have a list of JSON integers
    as ``shape`` and JSON numbers as ``values``, which the parse stage lets
    through."""
    data = json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    try:
        t = DenseTensor.from_flat(data["shape"], data["values"])
    except CommutantError as exc:
        raise ser.ParseError(f"tensor: {exc}") from exc
    if not np.isfinite(t.array).all():
        raise ser.ParseError("tensor: values must be finite")
    return t


def _built_matrix(text: str) -> np.ndarray:
    """Matrix text loaded as ``serialize`` loaded it through numpy: ``float``
    of each token on the nonblank lines, ``np.array`` of the rows and
    ``np.isfinite``.  The texts drawn here have nonempty rows of one width
    of float tokens, which the reader's first checks let through."""
    rows = [[float(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    mat = np.array(rows)
    if not np.isfinite(mat).all():
        raise ser.ParseError("matrix text: values must be finite")
    return mat


def _library_route(text: str, fmt: str):
    """What ``unfold`` wrote when it built the tensor: exit code, stdout, stderr."""
    try:
        if text.lstrip().startswith("{"):
            loaded = _built_tensor(text)
        else:
            loaded = _built_matrix(text)
        unfolded = balance_unfold(loaded)
    except ser.ParseError as exc:
        return 2, "", f"error: {exc}\n"
    except CommutantError as exc:
        return 3, "", f"error: {exc}\n"
    if fmt == "json":
        doc = {"shape": list(unfolded.shape), "values": unfolded.ravel(order="F").tolist()}
        return 0, ser.canonical_json(doc) + "\n", ""
    rows = unfolded.tolist()
    return 0, "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in rows), ""


def _unfold(text: str, fmt: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["unfold", path, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@given(tensor_documents() | matrix_texts(), st.sampled_from(["text", "json"]))
@settings(max_examples=400, deadline=None)
@example('{"shape":[2,2],"values":[-0,1,2,3]}', "json")
@example('{"shape":[2,2],"values":[-0,1,2,%s]}' % HUGE_INT, "text")
@example('{"shape":[3,3,3,3],"values":[%s]}' % ",".join(map(str, range(81))), "text")
@example("1 2\n3 4\n", "json")
def test_unfold_writes_what_the_library_route_writes(text, fmt):
    assert _unfold(text, fmt) == _library_route(text, fmt)


def _doc(shape, values) -> str:
    return '{"shape":%s,"values":[%s]}' % (json.dumps(shape), ",".join(map(str, values)))


#: (input, exit code, message) for each refusal, in the library route's
#: order; an input that also fails later checks pins that order too
REFUSALS = [
    (
        _doc([0, 2, 2], [HUGE_INT, "NaN"]),
        2,
        "tensor: not a regular array of numbers for tensor values: "
        "int too large to convert to float",
    ),
    (_doc([0, 2], [1]), 2, "tensor: bad shape (0, 2)"),
    (_doc([], ["NaN"]), 2, "tensor: bad shape ()"),
    (_doc([1] * 64 + [2], [1]), 2, "tensor: tensor: order 65 is over numpy's 64 modes"),
    (_doc([2, 2], [1, "NaN", 3]), 2, "tensor: 3 values for shape (2, 2) (need 4)"),
    (_doc([2, 2, 2], [1, "Infinity"] + [0] * 6), 2, "tensor: values must be finite"),
    (_doc([2, 2, 3], list(range(12))), 3, "balance_unfold: order must be even, got 3"),
    (_doc([2, 3], list(range(6))), 3, "balance_unfold: all mode extents must agree, got (2, 3)"),
    ("1 2 3\n4 5 6\n", 3, "balance_unfold: all mode extents must agree, got (2, 3)"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text,exit_code,message", REFUSALS)
def test_each_refusal_keeps_its_exit_code_and_message(text, exit_code, message, fmt):
    assert _unfold(text, fmt) == (exit_code, "", f"error: {message}\n")
    assert _library_route(text, fmt) == (exit_code, "", f"error: {message}\n")


ODD = "balance_unfold: order must be even, got "
UNEQUAL = "balance_unfold: all mode extents must agree, got "


@pytest.mark.parametrize(
    "shape,want",
    [
        ((2, 2), 2),
        ((3, 3, 3, 3), 9),
        ((1,), ODD + "1"),
        ((1, 1), 1),
        ((2, 2, 2), ODD + "3"),
        ((2, 3), UNEQUAL + "(2, 3)"),
        ((3, 2, 2, 2), UNEQUAL + "(3, 2, 2, 2)"),
        ((2,) * 64, 2**32),
    ],
    ids=[f"shape{i}" for i in range(8)],
)
def test_the_side_rule_refuses_as_balance_unfold_does(shape, want):
    # the one shape rule, which unfold reads for the side n^m of the unfolding
    try:
        m, n = errors_mod._even_order_cubic(shape, "balance_unfold")
        got = n**m
    except DimensionError as exc:
        got = str(exc)
    assert got == want
