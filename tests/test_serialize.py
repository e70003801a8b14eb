import json
import re

import numpy as np
import pytest

from commutant import (
    CommutantError,
    DenseTensor,
    Permutation,
    build_commutation,
    build_gct,
    build_mode_perm_tensor,
    cp_form,
    rank_preserver,
)
from commutant import serialize as ser


class TestCanonicalJson:
    def test_fixed_bytes(self):
        payload = {"shape": [2, 2], "values": [1.0, 0.5, -3.0, 2.0]}
        assert ser.canonical_json(payload) == '{"shape":[2,2],"values":[1,0.5,-3,2]}'

    def test_float_formatting(self):
        assert ser.format_float(1.0) == "1"
        assert ser.format_float(0.0) == "0"
        assert ser.format_float(-2.5) == "-2.5"
        assert ser.format_float(1e-05) == "1.0000000000000001e-05"

    def test_floats_roundtrip_exactly(self):
        rng = np.random.default_rng(200)
        for v in rng.standard_normal(200):
            assert float(ser.format_float(float(v))) == float(v)
        third = 1.0 / 3.0
        assert float(ser.format_float(third)) == third

    def test_scalar_kinds(self):
        out = ser.canonical_json(
            {"i": np.int64(3), "f": np.float64(0.5), "b": True, "s": "x", "n": None}
        )
        assert out == '{"i":3,"f":0.5,"b":true,"s":"x","n":null}'

    def test_same_object_same_bytes(self):
        t = DenseTensor(np.random.default_rng(1).standard_normal((2, 3)))
        assert ser.tensor_to_json(t) == ser.tensor_to_json(t)


class TestTensorJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(201)
        t = DenseTensor(rng.standard_normal((2, 3, 2)))
        back = ser.tensor_from_json(ser.tensor_to_json(t))
        assert back.shape == t.shape
        assert np.array_equal(back.array, t.array)

    def test_values_in_canonical_order(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert ser.tensor_to_json(t) == '{"shape":[2,2],"values":[1,3,2,4]}'

    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_an_array_writes_as_its_dense_tensor(self, layout):
        x = np.random.default_rng(202).standard_normal((3, 4, 2))
        x = {"c": x, "f": np.asfortranarray(x), "strided": x[::2, ::-1]}[layout]
        assert ser.tensor_to_json(x) == ser.tensor_to_json(DenseTensor(x))

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones((2, 0)), [["a"]]])
    def test_an_array_is_refused_as_its_dense_tensor(self, bad):
        with pytest.raises(CommutantError) as want:
            DenseTensor(bad)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            ser.tensor_to_json(bad)

    def test_parse_errors(self):
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json("not json")
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,2]}')
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,2],"values":[1,2,3]}')
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,"x"],"values":[1,2]}')
        for bad in ("NaN", "Infinity", "-Infinity", "1e999", '"nan"'):
            with pytest.raises(ser.ParseError):
                ser.tensor_from_json('{"shape":[2],"values":[1,%s]}' % bad)

    @pytest.mark.parametrize(
        "text",
        [
            '{"shape":[2],"values":["1.5","2"]}',
            '{"shape":[2],"values":[true,2]}',
            '{"shape":[2],"values":[null,2]}',
            '{"shape":[2],"values":[[1],2]}',
            '{"shape":[true,2],"values":[1,2]}',
            '{"shape":[2,false],"values":[1,2]}',
            pytest.param('{"shape":[1],"values":[1%s]}' % ("0" * 400), id="int-beyond-float"),
        ],
    )
    def test_values_and_extents_must_be_json_numbers(self, text):
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json(text)

    def test_json_ints_and_floats_load(self):
        t = ser.tensor_from_json('{"shape":[1,2],"values":[1,2.5]}')
        assert t.shape == (1, 2) and t.values.tolist() == [1.0, 2.5]


class TestMatrixText:
    def test_emit(self):
        mat = np.array([[1.0, 0.0], [0.5, -2.0]])
        assert ser.matrix_to_text(mat) == "1 0\n0.5 -2\n"

    def test_roundtrip(self):
        rng = np.random.default_rng(202)
        mat = rng.standard_normal((3, 4))
        back = ser.matrix_from_text(ser.matrix_to_text(mat))
        assert np.array_equal(back, mat)

    def test_blank_lines_ignored(self):
        back = ser.matrix_from_text("1 2\n\n3 4\n")
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_errors(self):
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("")
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("1 2\n3\n")
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("1 x\n")
        for bad in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ser.ParseError):
                ser.matrix_from_text(f"1 2\n{bad} 4\n")


class TestStructuredObjects:
    def test_commutation_roundtrip(self):
        k = build_commutation(3, 2)
        text = ser.commutation_to_json(k)
        assert text == '{"p":3,"q":2,"perm":[1,4,2,5,3,6]}'
        back = ser.commutation_from_json(text)
        assert (back.p, back.q) == (3, 2)
        assert np.array_equal(back.dense(), k.dense())

    @pytest.mark.parametrize(
        "text",
        [
            '{"p":5,"q":7,"perm":[2,1]}',  # a permutation, but not K_{5,7}'s
            '{"p":1,"q":2,"perm":[2,1]}',  # a swap, but K_{1,2} = I
            '{"p":3,"q":2,"perm":[1,2,3,4,5,6]}',
            '{"p":3,"q":2,"perm":"1,4,2,5,3,6"}',
            '{"p":0,"q":2,"perm":[]}',
            '{"p":"x","q":2,"perm":[1,2]}',
            '{"p":1000000000,"q":1000000000,"perm":[1]}',
            '{"p":2,"q":1,"perm":[true,2]}',  # equal to K_{2,1}'s [1,2] in Python
        ],
    )
    def test_commutation_perm_must_be_k(self, text):
        with pytest.raises(ser.ParseError):
            ser.commutation_from_json(text)

    def test_commutation_accepts_identity_cases(self):
        back = ser.commutation_from_json('{"p":1,"q":2,"perm":[1,2]}')
        assert np.array_equal(back.dense(), np.eye(2))

    def test_gct_roundtrip(self):
        g = build_gct([np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)])
        back = ser.gct_from_json(ser.gct_to_json(g))
        assert (back.m, back.n) == (2, 2)
        for a, b in zip(back.generators, g.generators):
            assert np.array_equal(a, b)

    def test_gct_schema_refuses_a_mode_permutation(self):
        # the GCT schema has no tau, so an operator with tau != id is not
        # written there with its tau dropped; the preserver schema holds it
        op = build_mode_perm_tensor(Permutation([2, 3, 1]), 2)
        with pytest.raises(CommutantError, match="tau"):
            ser.gct_to_json(op)
        back = ser.preserver_from_json(ser.preserver_to_json(op))
        assert back.tau == op.tau == Permutation([3, 1, 2])
        assert all(np.array_equal(g, np.eye(2)) for g in back.generators)
        same = rank_preserver(op.generators, Permutation.identity(3))
        assert ser.gct_to_json(same) == ser.gct_to_json(build_gct([np.eye(2)] * 3))

    def test_gct_inconsistent_header(self):
        g = build_gct([np.eye(2)])
        text = ser.gct_to_json(g).replace('"n":2', '"n":3')
        with pytest.raises(ser.ParseError):
            ser.gct_from_json(text)

    @pytest.mark.parametrize("bad", ["x", None, [2], float("inf")])
    def test_non_integer_header_fields(self, bad):
        rng = np.random.default_rng(205)
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        cases = [
            (ser.gct_from_json, ser.gct_to_json(build_gct([np.eye(2)])), ("m", "n")),
            (
                ser.cp_from_json,
                ser.cp_to_json(cp_form([rng.standard_normal((2, 2))] * 2)),
                ("m", "n", "rank"),
            ),
            (ser.preserver_from_json, ser.preserver_to_json(phi), ("m", "n")),
        ]
        for parse, text, keys in cases:
            for key in keys:
                data = json.loads(text)
                data[key] = bad
                with pytest.raises(ser.ParseError):
                    parse(json.dumps(data))

    def test_non_integral_header_fields(self):
        # a header field is a JSON integer: 2.5, "2" and an integral 2.0 are refused
        rng = np.random.default_rng(206)
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        cases = [
            (ser.commutation_from_json, ser.commutation_to_json(build_commutation(3, 2))),
            (ser.gct_from_json, ser.gct_to_json(build_gct([np.eye(2)] * 2))),
            (ser.cp_from_json, ser.cp_to_json(cp_form([rng.standard_normal((2, 2))] * 2))),
            (ser.preserver_from_json, ser.preserver_to_json(phi)),
        ]
        for parse, text in cases:
            for key, value in json.loads(text).items():
                if not isinstance(value, int):
                    continue
                for bad in (value + 0.5, str(value), float(value)):
                    data = json.loads(text)
                    data[key] = bad
                    with pytest.raises(ser.ParseError, match="must be integers"):
                        parse(json.dumps(data))
                parse(text)

    @pytest.mark.parametrize(
        "parse,text",
        [
            (ser.commutation_from_json, '{"p":true,"q":2,"perm":[1,2]}'),
            (ser.commutation_from_json, '{"p":2,"q":true,"perm":[1,2]}'),
            (ser.gct_from_json, '{"m":true,"n":2,"generators":[[[1,0],[0,1]]]}'),
            (ser.gct_from_json, '{"m":1,"n":true,"generators":[[[3]]]}'),
            (ser.cp_from_json, '{"m":true,"n":2,"rank":1,"factors":[[[1],[2]]]}'),
            (ser.cp_from_json, '{"m":1,"n":2,"rank":true,"factors":[[[1],[2]]]}'),
            (ser.preserver_from_json, '{"m":true,"n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}'),
            (ser.preserver_from_json, '{"m":1,"n":true,"tau":[1],"matrices":[[[3]]]}'),
        ],
    )
    def test_boolean_header_fields(self, parse, text):
        # json loads true as a bool, which equals 1, and 1.0 as a float; 1 loads,
        # true and 1.0 do not
        parse(text.replace("true", "1"))
        for one in ("true", "1.0"):
            with pytest.raises(ser.ParseError, match="must be integers"):
                parse(text.replace("true", one))

    def test_non_finite_matrix_entries(self):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        texts = [
            (ser.gct_from_json, ser.gct_to_json(build_gct([np.eye(2)]))),
            (ser.cp_from_json, ser.cp_to_json(cp_form([np.eye(2)] * 2))),
            (ser.preserver_from_json, ser.preserver_to_json(phi)),
        ]
        for parse, text in texts:
            for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
                with pytest.raises(ser.ParseError):
                    parse(text.replace("[[1,0]", f"[[{bad},0]", 1))

    @pytest.mark.parametrize(
        "bad",
        [
            '"1.5"',
            "true",
            "false",
            "null",
            "[1]",
            pytest.param("1" + "0" * 400, id="int-beyond-float"),
        ],
    )
    def test_matrix_entries_must_be_json_numbers(self, bad):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        texts = [
            (ser.gct_from_json, ser.gct_to_json(build_gct([np.eye(2)]))),
            (ser.cp_from_json, ser.cp_to_json(cp_form([np.eye(2)] * 2))),
            (ser.preserver_from_json, ser.preserver_to_json(phi)),
        ]
        for parse, text in texts:
            with pytest.raises(ser.ParseError):
                parse(text.replace("[[1,0]", f"[[{bad},0]", 1))

    def test_gct_strings_and_booleans_do_not_load(self):
        with pytest.raises(ser.ParseError):
            ser.gct_from_json('{"m":1,"n":2,"generators":[[["1.5",true],[false,"2"]]]}')
        g = ser.gct_from_json('{"m":1,"n":2,"generators":[[[1.5,1],[0,2]]]}')
        assert np.array_equal(g.generators[0], [[1.5, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize(
        "bad", ["3", '["1", "0"]', "[[1, 0], 2]", "[[[1]]]", "[[1, 2], [3]]"]
    )
    def test_matrix_shape_errors(self, bad):
        with pytest.raises(ser.ParseError):
            ser.gct_from_json('{"m":1,"n":2,"generators":[%s]}' % bad)

    def test_cp_roundtrip(self):
        rng = np.random.default_rng(203)
        cp = cp_form([rng.standard_normal((3, 2)) for _ in range(2)])
        back = ser.cp_from_json(ser.cp_to_json(cp))
        assert back.m == cp.m and back.rank == cp.rank
        for a, b in zip(back.factors, cp.factors):
            assert np.array_equal(a, b)

    def test_preserver_roundtrip(self):
        rng = np.random.default_rng(204)
        mats = [rng.standard_normal((2, 2)) + 2 * np.eye(2) for _ in range(3)]
        phi = rank_preserver(mats, Permutation([3, 1, 2]))
        back = ser.preserver_from_json(ser.preserver_to_json(phi))
        assert back.tau.images == (3, 1, 2)
        for a, b in zip(back.generators, phi.generators):
            assert np.array_equal(a, b)

    def test_preserver_rejects_boolean_tau(self):
        text = '{"m":2,"n":2,"tau":[true,2],"matrices":[[[1,0],[0,1]],[[1,0],[0,1]]]}'
        with pytest.raises(ser.ParseError):
            ser.preserver_from_json(text)

    @pytest.mark.parametrize("tau", ["[2.0,1.0]", "[2,1.0]", '"21"', "2", "null"])
    def test_preserver_tau_follows_the_json_integer_rule(self, tau):
        # a float image, even an integral one, is refused as 2.0 in m or n is
        text = '{"m":2,"n":2,"tau":%s,"matrices":[[[1,0],[0,1]],[[1,0],[0,1]]]}'
        assert ser.preserver_from_json(text % "[2,1]").tau == Permutation([2, 1])
        with pytest.raises(ser.ParseError, match="preserver: tau must be a list of integers"):
            ser.preserver_from_json(text % tau)

    def test_preserver_rejects_singular(self):
        from commutant import SingularMatrixError

        text = (
            '{"m":1,"n":2,"tau":[1],"matrices":[[[1,2],[2,4]]]}'
        )
        with pytest.raises(SingularMatrixError):
            ser.preserver_from_json(text)
