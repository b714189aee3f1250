"""Fuzz test of the command line front end.

Hypothesis generates requests, most of them malformed: unknown and wrong
kinds, sizes of the wrong type or past the dimension cap, params and
options of the wrong type or range, wrapped or flat. Each goes through
``cli.main`` in process. Whatever the request, ``main`` must return an exit
code in {0, 1, 2, 3} without raising; a failure writes one JSON object to
stderr and nothing to stdout, and a success writes one JSON document whose
numbers are all finite. Derandomized (fixed seed, no example database), so
a run draws the same requests each time.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blochbounds import cli
from blochbounds.states import KIND_PARAMS

FUZZ = settings(max_examples=200, derandomize=True, database=None,
                deadline=None, suppress_health_check=[HealthCheck.too_slow])

# values of the wrong type or far out of range for almost any field
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10 ** 6),
    st.sampled_from([-10 ** 30, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))

# out-of-range values: sizes past the 4096 cap must fail before any matrix
# is made, and a huge int must not reach float()
BAD = st.one_of(JUNK, st.sampled_from(
    [-1, 0, 1, 13, 4097, 10 ** 30, 10 ** 400, -0.5, 1.5, 1e-20, 1.0]))

NUMBER = st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0))

COMMANDS = st.sampled_from([
    ["analyze"], ["analyze", "--emit-tensors"], ["analyze", "--samples", "2"],
    ["analyze", "--tol", "1e-8"], ["gen-state"], ["gen-state", "--seed", "3"],
    ["scan", "--predicate", "gme"], ["scan", "--predicate", "entangled"],
])


def _dense(draw, dim):
    """The maximally mixed state as [re, im] pairs, or random entries up to
    dimension 4."""
    if dim > 4 or draw(st.booleans()):
        return [[[1.0 / dim if i == j else 0.0, 0.0] for j in range(dim)]
                for i in range(dim)]
    pair = st.lists(NUMBER, min_size=2, max_size=2)
    row = st.lists(pair, min_size=dim, max_size=dim)
    return draw(st.lists(row, min_size=dim, max_size=dim))


def _slots(spec, params, options):
    """Lists of (container, key), one list per container: every field and
    a new one, and the first and last entries of a nested list."""
    groups = [[(where, key) for key in (*where, "bogus")]
              for where in (spec, params, options)]
    for name in ("kets", "matrix"):
        entries = params.get(name)
        if isinstance(entries, list) and entries:
            groups.append([(entries, 0), (entries, -1)])
            if isinstance(entries[0], list) and entries[0]:
                groups.append([(entries[0], 0), (entries[0], -1)])
    tols = options.get("tolerances")
    if isinstance(tols, dict):
        groups.append([(tols, key) for key in (*tols, "bogus")])
    return groups


@st.composite
def requests(draw):
    """(argv, request text): a well-formed request, then up to two fields
    removed, added or swapped for a value of a wrong type or range."""
    argv = draw(COMMANDS)
    kind = draw(st.sampled_from(list(KIND_PARAMS)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    spec = {"kind": kind, "n_parties": n, "local_dim": d,
            "seed": draw(st.integers(0, 99))}
    ket = st.lists(NUMBER, min_size=d, max_size=d)
    good = {"kets": lambda: draw(st.lists(ket, min_size=n, max_size=n)),
            "x": lambda: draw(st.floats(0.0, 1.0)),
            "rank": lambda: draw(st.integers(1, 4)),
            "matrix": lambda: _dense(draw, d ** n)}
    params = {name: good[name]() for name in KIND_PARAMS[kind]}
    spec["params"] = params
    options = {"samples_for_roof": draw(st.integers(0, 2)),
               "emit_tensors": draw(st.booleans()),
               "tolerances": draw(st.dictionaries(
                   st.sampled_from(cli.TOL_NAMES),
                   st.sampled_from([1e-12, 1e-10, 1e-6]), max_size=2))}
    for _ in range(draw(st.integers(0, 2))):
        group = draw(st.sampled_from(_slots(spec, params, options)))
        where, key = draw(st.sampled_from(group))
        if draw(st.integers(0, 3)):
            where[key] = draw(BAD)
        elif isinstance(where, dict):
            where.pop(key, None)
        elif -len(where) <= key < len(where):
            del where[key]
    if argv[0] != "analyze" or draw(st.booleans()):
        return argv, json.dumps(spec)
    if draw(st.booleans()):
        return argv, json.dumps({"state": spec, "options": options})
    return argv, json.dumps({**spec, "options": options})


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["--input", "-"])
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), f"non-finite number {text} in the output"
    return value


@FUZZ
@given(requests())
# a kets that is no list once reached len() as a TypeError
@example((["analyze"], '{"kind": "product", "n_parties": 2, "local_dim": 2, '
                       '"params": {"kets": 5}}'))
def test_any_request_exits_cleanly(request):
    argv, text = request
    code, out, err = _run(argv, text)
    assert code in (0, 1, 2, 3), (code, err)
    if code == 0:
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        doc = json.loads(out, parse_constant=_reject_constant,
                         parse_float=_finite_float)
        assert isinstance(doc, dict)
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        diag = json.loads(err)
        assert isinstance(diag, dict) and "error" in diag
