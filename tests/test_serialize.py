import json
import math

import numpy as np
import pytest

from spherekern import __version__
from spherekern.serialize import json_document


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
