"""Property test of the CLI's configuration echo.

Derandomized, so every run draws the same examples.  A random valid
configuration of any subcommand runs once from flags and once through
``--config`` with the configuration its JSON report echoed; the two
reports, timestamp masked, are the same bytes.  Both runs go in-process
through ``cli.main``.  Sizes stay small (max_degree <= 30, n <= 16,
grid <= 64, workers <= 2; error-rate always sets reps <= 2 and
max_exp <= 4, which ``--full-scale`` then leaves alone, with at most 200
evaluation points, 16 anchors and one worker), so the whole test takes a
few seconds.
"""

import json
import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spherekern import cli  # noqa: E402

_COMMON = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**32 - 1),
    "workers": st.integers(1, 2),
    "full_scale": st.just(True),
})


@st.composite
def _configs(draw):
    """``(subcommand, flags)`` of one valid configuration: only the
    parameters drawn are set, the others take their defaults."""
    command = draw(st.sampled_from(sorted(cli._SCHEMAS)))
    family, s = draw(st.sampled_from(("nt", "rf"))), draw(st.integers(1, 3))
    cfg = {"family": family, "s": s, **draw(_COMMON)}
    if command == "error-rate":
        cfg.update(d=draw(st.integers(3, 5)), reps=draw(st.integers(1, 2)),
                   max_exp=draw(st.integers(3, 4)), eval_sample=draw(st.integers(1, 200)),
                   n0=draw(st.integers(1, 16)), workers=1)
        cfg.update(draw(st.fixed_dictionaries({}, optional={
            "lam2": st.floats(1e-3, 1.0), "noise_scale": st.floats(0.0, 1.0),
            "ridge": st.floats(1e-3, 1.0), "independent": st.just(True)})))
    elif command == "mig-growth":
        cfg["d"] = draw(st.integers(3, 5))
        cfg["max_exp"] = draw(st.integers(3, 6))
        cfg["grid_size"] = draw(st.integers(2 ** cfg["max_exp"], 64))
        cfg["lam"] = draw(st.floats(1e-3, 1e3))
    elif command == "matern-compare":
        cfg["d"] = draw(st.integers(3, 5))
        cfg["nu"] = draw(st.floats(0.5, 4.0))
        cfg["lengthscale"] = draw(st.floats(0.2, 5.0))
        cfg["max_degree"] = draw(st.integers(2, 30))
        # degree_min always set (its default, at least 9, may pass max_degree)
        # and a window of two degrees at least, so that each parity has one
        lo = draw(st.integers(0, cfg["max_degree"] - 1))
        cfg.update(parity=draw(st.sampled_from(("all", "even", "odd"))), degree_min=lo,
                   **draw(st.fixed_dictionaries({}, optional={
                       "degree_max": st.integers(lo + 1, 59)})))
    elif command == "kernel-eval":
        cfg["l"] = draw(st.integers(2, 4))
        cfg["u"] = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
    elif command in ("spectrum", "eigendecay"):
        cfg["l"] = draw(st.integers(2, 3))
        cfg["d"] = draw(st.integers(3, 5))
        cfg["max_degree"] = draw(st.integers(16 if command == "eigendecay" else 1, 30))
        if command == "eigendecay":
            # a window of at least 11 degrees, so at least 5 of the fitted
            # parity are nonzero eigenvalues; at depth 2 those of parity
            # s + 1 vanish past the lowest degrees, for RF and NT alike
            lo = draw(st.integers(2, cfg["max_degree"] - 10))
            live = ("even", "odd") if cfg["l"] > 2 else ("odd" if s % 2 == 0 else "even",)
            cfg.update(parity=draw(st.sampled_from(("all", *live))), degree_min=lo,
                       degree_max=draw(st.integers(lo + 10, 59)))
    else:
        cfg["d"] = draw(st.integers(3, 5))
        cfg["n"] = draw(st.integers(1, 16))
        cfg["lam"] = draw(st.floats(1e-3, 1e3))
        if command == "sample-greedy":
            cfg["grid_size"] = draw(st.integers(1, 64))
    return command, _flags(cfg)


def _flags(cfg):
    argv = []
    for name, value in cfg.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            # --u=-0.5, not --u -0.5, which argparse takes for a flag
            argv += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    return argv


def _report(*argv, path):
    assert cli.main([*argv, "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _masked(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "MASKED"', text, count=1)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=_configs())
def test_echoed_config_reproduces_the_report(case):
    command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        first = _report(command, *flags, path=os.path.join(tmp, "flags.json"))
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(json.loads(first)["config"], fh)
        again = _report(command, "--config", config, path=os.path.join(tmp, "config-run.json"))
    assert _masked(again) == _masked(first)
