"""Byte-reproducible serialization.

Canonical JSON: keys in fixed schema order, no whitespace padding, floats
rendered with repr-faithful ``%.17g`` (so parsing returns the identical
float64), ints as ints.  Two equal objects always serialize to identical
bytes, which the CLI relies on for deterministic output.

Schemas
-------
* tensor:        ``{"shape": [...], "values": [...]}`` — values in canonical
  flat order (first mode fastest).
* commutation:   ``{"p": p, "q": q, "perm": [...]}`` — K_{p,q}'s 1-based row
  images, written from the perfect shuffle's closed form (:func:`_k_columns`).
* gct:           ``{"m": m, "n": n, "generators": [[[...]]]}`` — matrices as
  lists of rows; tau = id only.
* preserver:     ``{"m": m, "n": n, "tau": [...], "matrices": [[[...]]]}`` —
  any operator, its generators as ``matrices``.
* matrix text:   one row per line, entries space-separated.

Three formats are read, one reader each: tensor JSON, matrix text and the
preserver; K and GCT documents are only written.  The tensor JSON and
matrix text readers, :func:`_flat_tensor` and :func:`_flat_matrix_text`,
make every check of their format with the standard library alone and
return its shape and its values as floats, first mode fastest.  ``unfold``
re-indexes those values without numpy; ``apply``, :func:`tensor_from_json`
and :func:`matrix_from_text` reshape them with one helper,
:func:`_array`.  The preserver reader alone keeps two stages, because
numpy's conversion words some of its refusals: its parse stage uses only
the standard library and makes, in order, every check it can state itself
(JSON syntax, keys, header integers, JSON numbers, non-finite entries, tau
as a permutation), and returns the build stage, which refuses the rest and
builds.  Neither numpy nor ``tensor`` loads with this module.  Each text
format has one writer, which the CLI streams and the public writers join:
:func:`_tensor_json` for the tensor schema and :func:`_matrix_text` for
matrix text.

The paper's discrete objects are written from their closed forms with the
standard library alone: K_{p,q} as text or JSON, the commutation tensor
C_{m,n}, and the group-case GCT of a permutation.  They and the tensor
reader refuse with the shape and budget rules of :mod:`commutant.errors`,
which ``tensor`` builds under, so their refusals are the builders' word for
word.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .errors import ArgumentError, CommutantError, DomainError, _check_dense_budget, _check_flat

if TYPE_CHECKING:  # annotations only; each stage imports the layer it runs
    import numpy as np

    from .commutation_matrix import CommutationMatrix
    from .commutation_tensor import Gct
    from .permutation import Permutation
    from .tensor import DenseTensor, TensorLike

class ParseError(CommutantError):
    """Input text does not parse as the expected format."""


def format_float(v: float) -> str:
    """A float64 as ``%.17g``: exact, as 17 significant digits round-trip
    every float64, but not always the shortest such decimal (1.0 -> "1",
    0.1 -> "0.10000000000000001")."""
    return format(float(v), ".17g")


def canonical_json(obj: Any) -> str:
    """Serialize nested dict/list/scalar data with deterministic bytes.
    Dict keys keep their insertion order: schema builders fix it."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"cannot write the non-finite float {obj} as JSON")
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        # a numpy scalar exists only once numpy has loaded
        np = sys.modules.get("numpy")
        if np is not None and isinstance(obj, np.integer):
            _emit(int(obj), parts)
        elif np is not None and isinstance(obj, np.floating):
            _emit(float(obj), parts)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _loads(text: str) -> Any:
    try:
        # format_float writes -0.0 as "-0", which int() would load as +0
        return json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    except (ValueError, RecursionError) as exc:  # bad JSON, an int over 4300 digits, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc


def _ints(data: dict, keys: tuple[str, ...], what: str) -> tuple[int, ...]:
    """The fields ``keys``, each a JSON integer: not 2.0, "2" or true."""
    ints = tuple(data[k] for k in keys)
    if not all(map(_is_json_int, ints)):
        raise ParseError(f"{what}: fields {list(keys)} must be integers")
    return ints


def _is_json_int(v: Any) -> bool:
    """Whether a parsed JSON value is an integer; json loads true/false as
    bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_json_number(v: Any) -> bool:
    """Whether a parsed JSON value is a number: not a string, not a bool."""
    return _is_json_int(v) or isinstance(v, float)


def _refuse_non_finite(values: Iterable[float], what: str) -> None:
    """Refuse floats among which is a NaN or an infinity."""
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{what}: values must be finite")


def _require(data: Any, keys: list[str], what: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParseError(f"{what}: missing keys {missing}")
    return data


# ---------------------------------------------------------------- tensors


def tensor_to_json(t: TensorLike) -> str:
    """A DenseTensor or array, read in place, in the tensor schema."""
    from .tensor import _tensor_entries

    arr = _tensor_entries(t)
    return "".join(_tensor_json(arr.shape, _finite_values(arr)))


def _finite_values(arr: np.ndarray, fmt: str = "JSON") -> list[float]:
    """``arr``'s entries as floats in the first-mode-fastest order, refused
    at the first NaN or infinity as canonical_json refuses it, naming the
    format ``fmt``, so that a refused array is refused before any of it is
    written."""
    values = arr.ravel(order="F").tolist()
    bad = next(filterfalse(math.isfinite, values), None)
    if bad is not None:
        raise DomainError(f"cannot write the non-finite float {bad} as {fmt}")
    return values


#: values per part of a streamed tensor document
_PART = 2**16


def _tensor_json(shape: Sequence[int], values: list[float], end: str = "") -> Iterator[str]:
    """``canonical_json({"shape": shape, "values": values}) + end`` in parts
    of at most _PART values each, for finite floats ``values``."""
    yield f'{{"shape":[{",".join(map(str, shape))}],"values":['
    for start in range(0, len(values), _PART):
        yield ("," if start else "") + ",".join(map(format_float, values[start : start + _PART]))
    yield "]}" + end


def tensor_from_json(text: str) -> DenseTensor:
    from .tensor import DenseTensor

    return DenseTensor._adopt(_array(*_flat_tensor(text)))


def _array(shape: Sequence[int], values: list[float]) -> np.ndarray:
    """The numpy operand of a reader's shape and first-mode-fastest floats."""
    import numpy as np

    return np.array(values).reshape(shape, order="F")


def _flat_tensor(text: str) -> tuple[tuple[int, ...], list[float]]:
    """The tensor reader: a document's shape and its values as floats, in the
    first-mode-fastest order, with the standard library alone.  It refuses,
    in this order, bad JSON, a missing key, a ``shape`` of anything but JSON
    integers and ``values`` of anything but JSON numbers; then, in
    ``DenseTensor.from_flat``'s order and words, an int beyond float range,
    a bad shape, more than MAX_ORDER modes and a value count that does not
    fit the shape; then a NaN or an infinity."""
    data = _require(_loads(text), ["shape", "values"], "tensor")
    shape, values = data["shape"], data["values"]
    if not isinstance(shape, list) or not all(map(_is_json_int, shape)):
        raise ParseError("tensor: shape must be a list of integers")
    if not isinstance(values, list) or not all(map(_is_json_number, values)):
        raise ParseError("tensor: values must be a list of numbers")
    shape = tuple(shape)
    try:
        floats = _flat_values(shape, values)
    except CommutantError as exc:
        raise ParseError(f"tensor: {exc}") from exc
    _refuse_non_finite(floats, "tensor")
    return shape, floats


def _flat_values(shape: tuple[int, ...], values: list) -> list[float]:
    """``DenseTensor.from_flat(shape, values).values`` as floats, with its
    refusals; numpy's conversion rounds an int to float as ``float`` does."""
    try:
        floats = list(map(float, values))
    except OverflowError as exc:
        raise ArgumentError(f"not a regular array of numbers for tensor values: {exc}") from None
    _check_flat(shape, len(floats))
    return floats


# ---------------------------------------------------------------- matrices


def matrix_to_text(mat) -> str:
    """A matrix as matrix text.  A matrix the reader would refuse, one with
    no entries or one holding a NaN or an infinity, is refused with
    DomainError before any of it is written."""
    from .tensor import as_matrix

    m = as_matrix(mat)
    if not m.size:
        raise DomainError(f"cannot write the empty {m.shape} matrix as matrix text")
    return "".join(_matrix_text(len(m), _finite_values(m, "matrix text")))


def _matrix_text(rows: int, values: list[float]) -> Iterator[str]:
    """Matrix text in parts, one per row, of the matrix with ``rows`` rows
    whose entries column by column are the finite ``values``: row r is
    ``values[r::rows]``.  ``unfold`` writes its balance unfolding with it:
    the unfolding's row index is the canonical flat index of the first m
    modes and its column index that of the last m, so entry (r, c) sits at
    offset r + side·c of the tensor's first-mode-fastest values."""
    for r in range(rows):
        yield " ".join(map(format_float, values[r::rows])) + "\n"


def _unit_entries(length: int, ones: Iterable[int], sep: str) -> str:
    """``length`` entries joined by ``sep``: "1" at the increasing offsets
    ``ones``, of which there is at least one, and "0" elsewhere.  These are
    format_float's words for 1.0 and 0.0."""
    parts, start = [], 0
    for one in ones:
        parts.append(("0" + sep) * (one - start) + "1")
        start = one + 1
    return sep.join(parts) + (sep + "0") * (length - start)


def _k_columns(p: int, q: int, base: int = 0) -> list[range]:
    """K_{p,q}'s row images in row order, counted from ``base``, as p
    ranges of q rows each: row s = a·q + b (a < p, b < q) holds its 1 in
    column b·p + a, the perfect shuffle (Magnus & Neudecker 1979; Van Loan
    2000).  A test pins it to ``CommutationMatrix.idx``."""
    size = p * q
    return [range(a + base, size + base, p) for a in range(p)]


def _commutation_to_text(p: int, q: int) -> str:
    """``matrix_to_text(build_commutation(p, q).dense())`` from the closed
    form: row s is a 1 at its column among zeros.  Refused as ``dense()``
    refuses an over-budget K."""
    size = p * q
    _check_dense_budget((size, size), f"K_{{{p},{q}}}")
    columns = chain.from_iterable(_k_columns(p, q))
    return "".join(_unit_entries(size, (c,), " ") + "\n" for c in columns)


def matrix_from_text(text: str) -> np.ndarray:
    return _array(*_flat_matrix_text(text))


def _flat_matrix_text(text: str) -> tuple[tuple[int, int], list[float]]:
    """The matrix text reader: the shape and the entries column by column,
    the tensor schema's order, with the standard library alone.  It refuses
    a token that is not a float, no rows, ragged rows and then a NaN or an
    infinity; blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"matrix text line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError("matrix text: no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix text: ragged rows")
    _refuse_non_finite(chain.from_iterable(rows), "matrix text")
    return (len(rows), width), [v for col in zip(*rows) for v in col]


def _matrix_lists(mat: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in mat]


def _parse_matrix_lists(data: Any, what: str) -> bool:
    """The parse stage of a matrix given as a JSON list of rows.  Refuses
    anything but rows of JSON numbers (strings and booleans are refused,
    not converted).  Returns whether numpy's conversion will read the rows
    as a matrix, and if it will, refuses a non-finite entry, the check that
    follows the conversion.  It will not read an empty list (order 1),
    ragged rows or an int beyond float range; :func:`_matrix` refuses those
    in the build stage, in numpy's words."""
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(map(_is_json_number, row)) for row in data
    ):
        raise ParseError(f"{what}: expected a list of rows of numbers")
    if not data or any(len(row) != len(data[0]) for row in data):
        return False
    try:
        floats = list(map(float, chain.from_iterable(data)))
    except OverflowError:
        return False
    _refuse_non_finite(floats, what)
    return True


def _matrix(data: list) -> np.ndarray:
    """The build stage of a preserver matrix: ``data`` through the one array
    intake, whose refusals (ragged rows, an int beyond float range, not
    2-D) are a ParseError in numpy's words."""
    from .tensor import as_matrix

    try:
        return as_matrix(data)
    except CommutantError as exc:
        raise ParseError(f"preserver matrix: {exc}") from exc


# ------------------------------------------------- structured objects


def commutation_to_json(k: CommutationMatrix) -> str:
    return _commutation_json(k.p, k.q)


def _commutation_json(p: int, q: int) -> str:
    """The commutation schema from the closed form, with canonical_json's
    bytes; a ``perm`` over MAX_DENSE_ENTRIES images is refused before any of
    it is built.  Each range is joined on its own, which holds a fifth of
    the memory that one join of every image holds."""
    _check_dense_budget((p * q,), f"K_{{{p},{q}}} index")
    perm = ",".join([",".join(map(str, block)) for block in _k_columns(p, q, 1)])
    return f'{{"p":{p},"q":{q},"perm":[{perm}]}}'


def _ctensor_to_json(m: int, n: int) -> str:
    """``tensor_to_json(build_ctensor(m, n).backing)`` from the closed form,
    refused as ``build_ctensor`` refuses.  C_{m,n} has shape (n, m, m, n)
    and entry (i, j, k, l) is 1 exactly when j = k and i = l, so in the
    first-mode-fastest order its 1s sit at the increasing offsets
    i·(1 + n·m²) + j·(n + n·m), i < n, j < m."""
    size = m * n
    _check_dense_budget((size, size), "transpose tensor")
    ones = (i * (1 + n * m * m) + j * (n + n * m) for i in range(n) for j in range(m))
    return f'{{"shape":[{n},{m},{m},{n}],"values":[{_unit_entries(size * size, ones, ",")}]}}'


def gct_to_json(g: Gct) -> str:
    """The GCT schema has no tau: an operator with tau != id is refused
    with DomainError and written by :func:`preserver_to_json` instead."""
    if not g.tau.is_identity():
        raise DomainError(f"gct: the schema has no tau, and this tau is {list(g.tau.images)}")
    return canonical_json(
        {"m": g.m, "n": g.n, "generators": [_matrix_lists(gen) for gen in g.generators]}
    )


def _permutation_gct_json(pi: Permutation, m: int) -> Iterator[str]:
    """``gct_to_json(gct_from_permutation(pi, m))`` and a newline, in parts
    that hold its one generator P once and repeat it for each mode, so a
    writer holds one copy of P.  P e_j = e_pi(j), so row i of P holds its
    1 in column pi⁻¹(i).  The caller refuses m and P against the budget
    first."""
    n = pi.degree
    rows = ",".join(f"[{_unit_entries(n, (c,), ',')}]" for c in pi.inverse().zero_based())
    yield f'{{"m":{m},"n":{n},"generators":['
    for k in range(m):
        yield ",[" if k else "["
        yield rows
        yield "]"
    yield "]}\n"


def preserver_to_json(phi: Gct) -> str:
    return canonical_json(
        {
            "m": phi.m,
            "n": phi.n,
            "tau": list(phi.tau.images),
            "matrices": [_matrix_lists(m) for m in phi.generators],
        }
    )


def preserver_from_json(text: str) -> Gct:
    return _parse_preserver(text)()


def _parse_preserver(text: str) -> Callable[[], Gct]:
    from .permutation import Permutation

    data = _require(_loads(text), ["m", "n", "tau", "matrices"], "preserver")
    mats = data["matrices"]
    if not isinstance(mats, list):
        raise ParseError("preserver: matrices must be a list")
    for mat in mats:
        if not _parse_matrix_lists(mat, "preserver matrix"):
            return partial(_matrix, mat)  # its conversion refuses it
    images = data["tau"]
    if not isinstance(images, list) or not all(map(_is_json_int, images)):
        raise ParseError("preserver: tau must be a list of integers")
    try:
        tau = Permutation(images)
    except CommutantError as exc:
        raise ParseError(f"preserver: bad tau: {exc}") from exc
    m, n = _ints(data, ("m", "n"), "preserver")
    if len(mats) != m or (mats and len(mats[0]) != n):
        raise ParseError("preserver: m/n fields disagree with the matrices")
    return partial(_build_preserver, mats, tau)


def _build_preserver(mats: list, tau) -> Gct:
    from .preserver import rank_preserver

    return rank_preserver([_matrix(m) for m in mats], tau)
