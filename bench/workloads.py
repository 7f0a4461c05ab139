"""The benchmark's workloads: fixed operation lists generated from a seed.

Each workload is a closed loop: one client issues its operations one after
another, the next only when the previous has returned.  An operation is a
CLI call (``spherekern.cli.main(argv)`` with ``--out`` to a file) or a call
to a public library function.

The workload seed selects one of ``INPUT_SEEDS`` input sets, so that the
committed reference payloads cover every seed the benchmark can be given.
Within an input set every generated value (CLI ``--seed`` values, ``u``
arguments, Monte-Carlo points and seeds) follows from the seed alone.
"""

import numpy as np

WORKLOADS = ("error-rate", "greedy", "spectral")

INPUT_SEEDS = 4

# Sizes.  "full" is what the benchmark measures; "tiny" keeps the same
# operation list at toy sizes for the benchmark's own tests.
SIZES = {
    "full": {
        "error_rate": ["--max-exp", "10", "--eval-sample", "5000"],
        "mig_growth": ["--grid-size", "4096", "--max-exp", "9"],
        "sample_greedy": ["--n", "512", "--grid-size", "2048"],
        "infogain": ["--n", "1024"],
        "max_degree": 60,
        "high_degree": 400,
        "mc_samples": 10**6,
    },
    "tiny": {
        "error_rate": ["--max-exp", "5", "--eval-sample", "300"],
        "mig_growth": ["--grid-size", "128", "--max-exp", "5"],
        "sample_greedy": ["--n", "16", "--grid-size", "64"],
        "infogain": ["--n", "32"],
        "max_degree": 24,
        "high_degree": 40,
        "mc_samples": 10**4,
    },
}

FAMILIES = ("nt", "rf")
POWERS = (1, 2, 3)

# Salts that keep the seed streams of different generated inputs apart.
_SALT_U = 11
_SALT_MC = 12


def input_seed(seed):
    """The input set a workload seed selects."""
    return seed % INPUT_SEEDS


def _cli(*argv):
    argv = [str(a) for a in argv]
    return {"kind": "cli", "key": " ".join(argv), "argv": argv}


def _error_rate(size, seed):
    return [
        _cli("error-rate", "--family", "nt", "--s", s, "--d", 3, "--reps", 1,
             *size["error_rate"], "--lam2", 0.04, "--noise-scale", 0.2,
             "--workers", 1, "--seed", seed)
        for s in POWERS
    ]


def _greedy(size, seed):
    return [
        _cli("mig-growth", "--family", "nt", "--s", 1, "--d", 3,
             *size["mig_growth"], "--seed", seed),
        _cli("sample-greedy", "--family", "rf", "--s", 3, "--d", 4,
             *size["sample_greedy"], "--seed", seed),
        _cli("infogain", "--family", "nt", "--s", 2, *size["infogain"],
             "--seed", seed),
    ]


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _spectral(size, seed):
    ops = []
    for family in FAMILIES:
        for s in POWERS:
            for l in (2, 3):
                for d in (3, 5):
                    for sub in ("spectrum", "eigendecay"):
                        ops.append(_cli(sub, "--family", family, "--s", s,
                                        "--l", l, "--d", d,
                                        "--max-degree", size["max_degree"]))
            ops.append(_cli("spectrum", "--family", family, "--s", s,
                            "--max-degree", size["high_degree"]))
            ops.append(_cli("matern-compare", "--family", family, "--s", s,
                            "--nu", 1.5))
    for family in FAMILIES:
        for s in POWERS:
            rng = np.random.default_rng([seed, _SALT_U, s, FAMILIES.index(family)])
            u_flags = []
            for u in rng.uniform(-1.0, 1.0, 3):
                u_flags += ["--u", repr(float(u))]
            ops.append(_cli("kernel-eval", "--family", family, "--s", s, *u_flags))
    for family in FAMILIES:
        for s in POWERS:
            rng = np.random.default_rng([seed, _SALT_MC, s, FAMILIES.index(family)])
            x, y = _unit(rng, 3), _unit(rng, 3)
            mc_seed = int(rng.integers(2**31))
            samples = size["mc_samples"]
            key = (f"mc_estimate {family} s={s} d=3 x={x.tolist()} y={y.tolist()} "
                   f"samples={samples} seed={mc_seed}")
            ops.append({"kind": "mc", "key": key, "family": family, "s": s,
                        "x": x, "y": y, "samples": samples, "seed": mc_seed})
    return ops


_BUILDERS = {"error-rate": _error_rate, "greedy": _greedy, "spectral": _spectral}


def operations(workload, seed, size="full"):
    """The operation list of ``workload`` for the benchmark seed ``seed``."""
    return _BUILDERS[workload](SIZES[size], input_seed(seed))
