"""Correctness gate: payloads must repeat byte for byte and match the reference.

The reference files under ``reference/`` were generated from the library
by ``make_reference.py``; they hold the parsed payload of every operation of
every input set, keyed by the operation's key.

Floats match within ``RTOL`` relative tolerance: far above the relative
error that reordering floating-point operations leaves after amplification
by the condition numbers of these Gram systems (a fused kernel evaluator,
one shared factorization), far below the change a wrong closed form makes.
In a list of numbers each entry may also differ by ``ATOL_SHARE`` times the
list's largest magnitude, because spectra carry quadrature noise near 1e-16
of their largest eigenvalue in degrees whose true eigenvalue is zero or
tiny.  For the same reason a spectrum's ``n_clamped``, the count of
negative eigenvalues clamped to zero, may differ by up to the number of
reference eigenvalues within that noise.  Other integers, strings, booleans
and the document's shape must match exactly.
"""

import math
import re

RTOL = 1e-6
ATOL_SHARE = 1e-12

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


def mask(text):
    """The JSON document with ``meta.timestamp`` replaced by a fixed string."""
    return _TIMESTAMP.sub(r'\1"<masked>"', text, count=1)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(got, ref, path="$", scale=0.0):
    """List of mismatches between a parsed payload and its reference, as text."""
    if type(got) is not type(ref):
        return [f"{path}: got {type(got).__name__} {got!r:.80}, "
                f"expected {type(ref).__name__} {ref!r:.80}"]
    if isinstance(ref, dict):
        if got.keys() != ref.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        misses = []
        for key in ref:
            if key == "n_clamped" and "eigenvalues" in ref:
                misses += _compare_clamped(got, ref, f"{path}.{key}")
            else:
                misses += compare(got[key], ref[key], f"{path}.{key}")
        return misses
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        numbers = [abs(x) for x in ref if _is_number(x) and math.isfinite(x)]
        inner = max(numbers, default=0.0)
        misses = []
        for i, (g, r) in enumerate(zip(got, ref)):
            misses += compare(g, r, f"{path}[{i}]", inner)
        return misses
    if isinstance(ref, float) and math.isfinite(ref):
        if not math.isfinite(got) or abs(got - ref) > RTOL * abs(ref) + ATOL_SHARE * scale:
            return [f"{path}: got {got!r}, expected {ref!r} (rtol {RTOL:g})"]
        return []
    if isinstance(ref, float) and math.isnan(ref):
        return [] if math.isnan(got) else [f"{path}: got {got!r}, expected nan"]
    if got != ref:
        return [f"{path}: got {got!r:.80}, expected {ref!r:.80}"]
    return []


def _compare_clamped(got, ref, path):
    values = ref["eigenvalues"]
    floor = ATOL_SHARE * max(abs(x) for x in values)
    slack = sum(abs(x) <= floor for x in values)
    g, r = got["n_clamped"], ref["n_clamped"]
    if type(g) is not int or abs(g - r) > slack:
        return [f"{path}: got {g!r}, expected {r} (within {slack} noise-level eigenvalues)"]
    return []
