import json
import math

import numpy as np
import pytest

from spherekern import __version__
from spherekern.serialize import csv_table, json_document


def _expected(payload, config):
    doc = {"meta": {"timestamp": "T", "version": __version__},
           "config": config, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestJsonDocument:
    def test_numpy_values_encode_as_python_values(self):
        payload = {
            "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
            "flag": np.bool_(True), "matrix": np.array([[1.5, -2.0], [np.nan, np.inf]]),
            "ints": np.arange(3), "pair": (np.float64(1 / 3), 2),
            "special": [np.float64(np.nan), -np.inf, np.float64(np.inf)],
        }
        plain = {
            "f64": 0.1, "f32": float(np.float32(0.1)), "i64": -7, "flag": True,
            "matrix": [[1.5, -2.0], [math.nan, math.inf]], "ints": [0, 1, 2],
            "pair": [1 / 3, 2], "special": [math.nan, -math.inf, math.inf],
        }
        config = {"seed": np.int64(3), "lam": np.float64(0.5), "independent": np.bool_(False)}
        plain_config = {"seed": 3, "lam": 0.5, "independent": False}
        assert (json_document(payload, config=config, timestamp="T")
                == _expected(plain, plain_config))

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
        parsed = json.loads(json_document(x, timestamp="T"))["payload"]
        assert np.array_equal(np.array(parsed), x)

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            json_document({"x": object()})


class TestCsvTable:
    def test_scalar_column_repeats_on_every_row(self):
        text = csv_table({"n": [1, 2, 3], "lam": 0.5, "parity": "even"})
        assert text == "n,lam,parity\r\n1,0.5,even\r\n2,0.5,even\r\n3,0.5,even\r\n"

    def test_scalars_only_make_one_row(self):
        assert csv_table({"a": 1, "b": "x"}) == "a,b\r\n1,x\r\n"

    def test_ints_print_without_a_decimal_point(self):
        text = csv_table({"i": [7, np.int64(-3)], "j": np.arange(2, dtype=np.int32),
                          "k": np.int64(5)})
        assert text == "i,j,k\r\n7,0,5\r\n-3,1,5\r\n"

    def test_floats_print_to_17_digits(self):
        text = csv_table({"x": np.array([0.1, 1.0, -np.inf]), "y": [1 / 3, 2.0, np.nan]})
        assert text.split("\r\n")[1:4] == [
            "0.10000000000000001,0.33333333333333331", "1,2", "-inf,nan",
        ]

    def test_strings_pass_through(self):
        text = csv_table({"parity": ["even", "odd"], "note": "a,b"})
        assert text == 'parity,note\r\neven,"a,b"\r\nodd,"a,b"\r\n'

    def test_empty_column_gives_header_only(self):
        assert csv_table({"n": np.arange(0), "lam": 0.5}) == "n,lam\r\n"

    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            csv_table({"a": [1, 2], "b": [1, 2, 3]})
