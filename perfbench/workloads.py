"""The three benchmark workloads: inputs, operations and output checks.

Each workload is built in two steps. The constructor makes the inputs from
the seed through the public API and runs one warm-up op per input shape;
``run.py`` times it as set-up, in steps: the constructor calls ``mark()``
before each warm-up op. ``attach_checks`` then computes the references
every timed op is checked against; that work is not timed.

Inputs come from the benchmark's own generator, seeded by ``--seed``; the
library only sees the resulting matrices and requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import oracle

ANALYZE_GRID = ((3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (2, 4), (3, 4))
ROOF_GRID = ((4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (2, 4))
ROOF_SAMPLES = 40
MIXED_RANK = 4

# ghz_noise (3, 2) leaves the genuinely-multipartite region at this noise
# weight (tests/test_acceptance.py checks the same crossing)
GME_CROSSING = 0.08349


@dataclass
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool] = lambda result: False


def _no_mark():
    pass


def _warm_up(ops, mark):
    """Run each op once, calling ``mark()`` before it; return the results."""
    results = []
    for op in ops:
        mark()
        results.append(op.call())
    return results


def _stream(seed, count):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(count)]


def _haar_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _low_rank_mixed(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def _dense_state(mods, n, d, mat):
    states = mods["states"]
    ctx = mods["linalg"].PartitionContext(n, d)
    return states.make_state(states.StateSpec("dense", ctx, {"matrix": mat}))


def _oracle_bounds(mods, rho):
    ctx = rho.ctx
    return oracle.expected_bounds(oracle.reduced_purities(mods["linalg"], rho),
                                  ctx.n_parties, ctx.local_dim)


def _report_matches(rep, expected) -> bool:
    return (oracle.close(rep.concurrence_lower_raw, expected["concurrence_lower_raw"])
            and oracle.close(rep.concurrence_lower, expected["concurrence_lower"])
            and oracle.close(rep.tangle_lower_raw, expected["tangle_lower_raw"])
            and oracle.close(rep.tangle_upper, expected["tangle_upper"]))


class AnalyzeGrid:
    """``analyze(rho)`` without the roof over an (N, d) grid.

    ``all_tensors`` is nearly all of ``analyze`` here and the grid spans its
    d^(4N) growth, so a faster Bloch transform moves this workload while the
    roof estimate is bypassed.
    """

    def __init__(self, mods, seed, mark=_no_mark):
        self.mods = mods
        rngs = _stream(seed, 2 * len(ANALYZE_GRID))
        self.inputs = []
        for i, (n, d) in enumerate(ANALYZE_GRID):
            dim = d ** n
            self.inputs.append(
                ("pure", _dense_state(mods, n, d, _haar_pure(rngs[2 * i], dim))))
            self.inputs.append(
                ("mixed", _dense_state(mods, n, d, _low_rank_mixed(
                    rngs[2 * i + 1], dim, MIXED_RANK))))
        bounds = mods["bounds"]
        self.ops = [
            Op(f"analyze n{rho.ctx.n_parties}d{rho.ctx.local_dim} {kind}",
               lambda rho=rho: bounds.analyze(rho))
            for kind, rho in self.inputs]
        _warm_up(self.ops[::2], mark)  # one warm-up per shape
        self.roof_gap = 0.0

    def attach_checks(self):
        bounds = self.mods["bounds"]
        for op, (kind, rho) in zip(self.ops, self.inputs):
            expected = _oracle_bounds(self.mods, rho)
            pure = bounds.pure_concurrence_purity(rho) if kind == "pure" else None
            op.check = lambda rep, expected=expected, pure=pure: (
                _report_matches(rep, expected)
                and (pure is None or abs(rep.concurrence_lower_raw - pure) <= 1e-8))


class RoofEstimate:
    """``convex_roof_upper_estimate(rho, 40, seed)`` on rank-4 states.

    Time goes to ensemble sampling, the purity-based pure-state concurrence
    and partial traces; ``tensors`` is never called. A ket-based roof moves
    this workload and a faster Bloch transform leaves it unchanged.
    """

    def __init__(self, mods, seed, mark=_no_mark):
        self.mods = mods
        rngs = _stream(seed, len(ROOF_GRID))
        roof_seeds = np.random.SeedSequence(seed).generate_state(len(ROOF_GRID))
        bounds = mods["bounds"]
        self.inputs = [
            _dense_state(mods, n, d, _low_rank_mixed(rng, d ** n, MIXED_RANK))
            for (n, d), rng in zip(ROOF_GRID, rngs)]
        self.ops = [
            Op(f"roof n{rho.ctx.n_parties}d{rho.ctx.local_dim}",
               lambda rho=rho, s=int(s): bounds.convex_roof_upper_estimate(
                   rho, ROOF_SAMPLES, s))
            for rho, s in zip(self.inputs, roof_seeds)]
        # every input has its own shape, so the warm-up covers all of them
        self.warm = _warm_up(self.ops, mark)

    def attach_checks(self):
        gaps = []
        for op, rho, reference in zip(self.ops, self.inputs, self.warm):
            lower = _oracle_bounds(self.mods, rho)["concurrence_lower"]
            gaps.append(reference - lower)
            # the estimate is deterministic per seed and sandwiches the bound
            op.check = lambda roof, lower=lower, reference=reference: (
                roof == reference and lower <= roof + 1e-9)
        self.roof_gap = float(np.mean(gaps))


def _cli_call(cli, argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _redirect_stdin(stdin):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _redirect_stdin(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


@dataclass
class CliOp(Op):
    """An op that sends ``stdin`` to ``cli.main``."""

    stdin: str = ""


def _report_doc_matches(doc, rep) -> bool:
    # the CLI adds its validation tolerances to the report's own
    expected = rep.as_dict()
    tolerances = expected.pop("tolerances")
    got_tolerances = doc.get("tolerances", {})
    return ({k: v for k, v in doc.items() if k not in ("tolerances", "tensors")}
            == expected
            and all(got_tolerances.get(k) == v for k, v in tolerances.items()))


class CliMix:
    """``cli.main(argv)`` in process over a fixed request list.

    Many tiny states expose per-call overhead, untrusted dense input is
    parsed and validated, large JSON is emitted, and the scan solver and
    self-check run only here.
    """

    def __init__(self, mods, seed, mark=_no_mark):
        self.mods = mods
        cli = mods["cli"]
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(8)]

        def spec(kind, n=None, d=None, **params):
            out = {"kind": kind}
            if n is not None:
                out.update(n_parties=n, local_dim=d)
            if params:
                out["params"] = params
            return out

        # dense payloads come from gen-state, carrying only spec fields
        dense = []
        for i, (n, d) in enumerate(((3, 2), (4, 2), (2, 3), (5, 2))):
            code, out, _ = _cli_call(
                cli, ["gen-state", "--seed", str(seeds[i])],
                json.dumps(spec("random_mixed", n, d, rank=MIXED_RANK)))
            if code != 0:
                raise RuntimeError(f"gen-state ({n}, {d}) exited {code}")
            doc = json.loads(out)
            dense.append(spec("dense", n, d, matrix=doc["params"]["matrix"]))

        # (command, flags, payload, expected outcome)
        requests = [("analyze", (), s, "report") for s in (
            spec("bell"), spec("ghz_noise", x=0.05), spec("ghz", 4, 2),
            spec("w", 4, 2), spec("product", 3, 2),
            spec("ghz_noise_general", 4, 2, x=0.3))]
        requests += [
            ("analyze", ("--samples", "50", "--seed", str(seeds[4])),
             spec("random_mixed", 3, 2, rank=2), "report"),
            ("analyze", ("--emit-tensors",), spec("ghz", 3, 3), "report"),
            *[("analyze", (), s, "report") for s in dense],
            ("gen-state", ("--seed", str(seeds[5])), spec("random_mixed", 6, 2),
             "matrix"),
            ("gen-state", ("--seed", str(seeds[6])), spec("random_mixed", 8, 2),
             "matrix"),
            ("scan", ("--predicate", "gme"), None, "repeat"),
            ("verify", ("--n-random", "5", "--seed", str(seeds[7])), None,
             "repeat"),
            ("analyze", (), '{"kind": "ghz", ', "parse-error"),
            ("analyze", (), spec("dense", 1, 2, matrix=[
                [[0.5, 0.0], [0.25, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
             "invalid-state"),
        ]
        self.requests = requests
        self.ops = []
        for command, flags, payload, _ in requests:
            text = "" if payload is None else \
                payload if isinstance(payload, str) else json.dumps(payload)
            argv = [command, *flags]
            self.ops.append(CliOp(
                label=" ".join(argv), stdin=text,
                call=lambda argv=argv, text=text: _cli_call(mods["cli"], argv, text)))
        self.warm = _warm_up(self.ops, mark)

    def attach_checks(self):
        mods = self.mods
        states, bounds = mods["states"], mods["bounds"]
        self.roof_gap = 0.0
        for op, (command, flags, payload, expect), warm in zip(
                self.ops, self.requests, self.warm):
            if expect == "parse-error":
                op.check = lambda r: r[0] == 1 and json.loads(r[2])["error"] == "parse"
                continue
            if expect == "invalid-state":
                op.check = lambda r: (r[0] == 2 and
                                      json.loads(r[2])["invariant"] == "hermiticity")
                continue
            if expect == "repeat":
                op.check = self._fixed_check(command, warm)
                continue
            spec = states.StateSpec.from_dict(payload)
            if "--seed" in flags:
                spec = replace(spec, seed=int(flags[flags.index("--seed") + 1]))
            rho = states.make_state(spec)
            if expect == "matrix":
                op.check = lambda r, mat=rho.mat, ctx=spec.ctx: _gen_state_ok(
                    r, mat, ctx)
                continue
            samples = int(flags[flags.index("--samples") + 1]) \
                if "--samples" in flags else 0
            rep = bounds.analyze(rho, samples_for_roof=samples, seed=spec.seed or 0)
            if not _report_matches(rep, _oracle_bounds(mods, rho)):
                op.check = _rejected(f"direct analyze of {payload['kind']} "
                                     "disagrees with the tensor-free oracle")
                continue
            if samples:
                self.roof_gap = rep.roof_upper_estimate - rep.concurrence_lower
            tensors = (mods["tensors"].all_tensors(rho).as_payload()
                       if "--emit-tensors" in flags else None)
            op.check = lambda r, rep=rep, tensors=tensors: _analyze_ok(r, rep, tensors)

    @staticmethod
    def _fixed_check(command, warm):
        code, out, err = warm
        if code != 0 or err:
            return _rejected(f"{command} warm-up exited {code}: {err}")
        doc = json.loads(out)
        if command == "scan":
            if abs(doc["crossing_x"] - GME_CROSSING) > 1e-4:
                return _rejected(f"scan crossing {doc['crossing_x']} is off "
                                 f"the known value {GME_CROSSING}")
        elif not doc["all_passed"]:
            return _rejected(f"verify reported failures {doc['failures']}")
        # both are deterministic, so every later run must repeat the report
        return lambda r: r[0] == 0 and not r[2] and json.loads(r[1]) == doc


def _rejected(reason):
    """A check that fails every op whose reference is already wrong."""
    print(f"reference check failed: {reason}", file=sys.stderr)
    return lambda result: False


def _analyze_ok(result, rep, tensors) -> bool:
    code, out, err = result
    if code != 0 or err:
        return False
    doc = json.loads(out)
    if tensors is not None and doc.get("tensors") != tensors:
        return False
    return _report_doc_matches(doc, rep)


def _gen_state_ok(result, mat, ctx) -> bool:
    code, out, err = result
    if code != 0 or err:
        return False
    doc = json.loads(out)
    got = np.array(doc["params"]["matrix"], dtype=float)
    return (doc["n_parties"] == ctx.n_parties and doc["local_dim"] == ctx.local_dim
            and got.shape == mat.shape + (2,)
            and np.array_equal(got[..., 0] + 1j * got[..., 1], mat))


WORKLOADS = {
    "analyze-grid": AnalyzeGrid,
    "roof-estimate": RoofEstimate,
    "cli-mix": CliMix,
}
