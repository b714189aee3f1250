"""JSON command line front end.

Commands: analyze, scan, verify, gen-state. Every command reads JSON (file
or stdin) and writes one JSON document to stdout; failures put a diagnostic
JSON object on stderr. Exit codes: 0 success, 1 parse error, 2 invalid
state, 3 no crossing, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bounds import SCHEMA_VERSION, analyze, white_noise_crossing
from .linalg import HERMITICITY_TOL, POSITIVITY_TOL, TRACE_TOL, ValidationError
from .selfcheck import run_verification
from .states import RNG_NAME, StateSpec, is_json_int, make_state
from .tensors import IMAG_TOL, all_tensors

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID_STATE = 2
EXIT_NO_CROSSING = 3
EXIT_VERIFY_FAILED = 4

TOL_RANGE = (1e-14, 1e-4)
TOL_NAMES = ("hermiticity", "trace", "positivity", "tensor_reality")

DEFAULT_VALIDATION_TOLS = {"hermiticity": HERMITICITY_TOL, "trace": TRACE_TOL,
                           "positivity": POSITIVITY_TOL}


class RequestError(ValueError):
    """The request itself is malformed (unparseable or wrong shape)."""


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into RequestError, so they exit 1 with JSON on stderr."""

    def error(self, message):
        raise RequestError(f"{self.prog}: {message}")


def _emit(doc, stream=None):
    (stream or sys.stdout).write(json.dumps(doc) + "\n")


def _fail(code, error, **extra):
    _emit({"error": error, **extra}, sys.stderr)
    return code


def _read_json(path, empty=None):
    """The JSON object at ``path`` (- for stdin); ``empty`` if the text is blank."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise RequestError(f"cannot read input: {exc}") from exc
    if empty is not None and not text.strip():
        return empty
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RequestError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RequestError("top-level JSON must be an object")
    return payload


def _check_tolerances(tols):
    if not isinstance(tols, dict):
        raise RequestError("tolerances must be an object")
    lo, hi = TOL_RANGE
    for name, value in tols.items():
        if name not in TOL_NAMES:
            raise RequestError(f"unknown tolerance {name!r}; "
                               f"expected one of {', '.join(TOL_NAMES)}")
        if not isinstance(value, (int, float)) or not lo <= float(value) <= hi:
            raise RequestError(f"tolerance {name} must lie in [{lo:g}, {hi:g}]")
    return {k: float(v) for k, v in tols.items()}


def _parse_request(payload):
    """Split an analysis request into (StateSpec payload, options).

    The caller's dict is left as it was.
    """
    if "state" in payload:
        unknown = set(payload) - {"state", "options"}
        if unknown:
            raise RequestError("unknown request fields: "
                               f"{', '.join(sorted(map(str, unknown)))}")
        spec_payload = payload["state"]
        options = payload.get("options", {})
    else:
        spec_payload = dict(payload)
        options = spec_payload.pop("options", {})
    if not isinstance(options, dict):
        raise RequestError("options must be an object")
    unknown = set(options) - {"samples_for_roof", "emit_tensors", "tolerances"}
    if unknown:
        raise RequestError(f"unknown options: {', '.join(sorted(unknown))}")
    options = dict(options)
    options["tolerances"] = _check_tolerances(options.get("tolerances", {}))
    samples = options.get("samples_for_roof", 0)
    if not is_json_int(samples) or samples < 0:
        raise RequestError("samples_for_roof must be a nonnegative integer, "
                           f"got {samples!r}")
    if not isinstance(options.get("emit_tensors", False), bool):
        raise RequestError("emit_tensors must be true or false, "
                           f"got {options['emit_tensors']!r}")
    return spec_payload, options


def _spec(payload, seed):
    """The StateSpec a request names, its seed overridden unless ``seed`` is None.

    A spec that cannot be built (no or unknown kind, unknown params, missing
    sizes) is a malformed request, not an invalid state.
    """
    try:
        spec = StateSpec.from_dict(payload)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    if seed is None:
        return spec
    if seed < 0:
        raise RequestError(f"--seed must be nonnegative, got {seed}")
    return replace(spec, seed=seed)


def cmd_analyze(args) -> int:
    spec_payload, options = _parse_request(_read_json(args.input))
    spec = _spec(spec_payload, args.seed)
    tols = options["tolerances"]
    if args.tol is not None:
        lo, hi = TOL_RANGE
        if not lo <= args.tol <= hi:
            raise RequestError(f"--tol must lie in [{lo:g}, {hi:g}]")
        tols = {name: args.tol for name in TOL_NAMES}
    samples = args.samples if args.samples is not None \
        else options.get("samples_for_roof", 0)
    if samples < 0:
        raise RequestError("--samples must be nonnegative")
    emit_tensors = args.emit_tensors or options.get("emit_tensors", False)

    validation_tols = {k: v for k, v in tols.items() if k != "tensor_reality"}
    imag_tol = tols.get("tensor_reality", IMAG_TOL)
    rho = make_state(spec, tolerances=validation_tols)
    report = analyze(rho, samples_for_roof=samples, seed=spec.seed or 0,
                     imag_tol=imag_tol)
    doc = report.as_dict()
    doc["tolerances"].update({**DEFAULT_VALIDATION_TOLS, **validation_tols})
    if emit_tensors:
        doc["tensors"] = all_tensors(rho, imag_tol=imag_tol).as_payload()
    _emit(doc)
    return EXIT_OK


def cmd_scan(args) -> int:
    base = _spec(_read_json(args.input, empty={"kind": "ghz_noise"}), None)
    if base.kind not in ("ghz_noise", "ghz_noise_general"):
        raise RequestError("scan expects a noise family kind "
                           "(ghz_noise or ghz_noise_general)")
    if args.predicate == "gme" and base.ctx.n_parties < 3:
        raise RequestError("the gme predicate needs at least three parties")
    crossing = white_noise_crossing(make_state(base.with_params(x=0.0)),
                                    args.predicate)
    if crossing <= 0.0:
        return _fail(EXIT_NO_CROSSING, "no-crossing",
                     reason="predicate already false at x = 0",
                     predicate=args.predicate, crossing_x=0.0)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "crossing_x": crossing,
        "predicate": args.predicate,
        "rng": RNG_NAME,
    })
    return EXIT_OK


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise RequestError(f"expected a comma-separated integer list, got {text!r}") \
            from exc


def cmd_verify(args) -> int:
    try:
        summary = run_verification(
            ns=_int_list(args.ns), ds=_int_list(args.ds),
            n_states=args.n_random, seed=args.seed,
            roof_samples=args.samples if args.samples is not None else 40)
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc)) from exc
    _emit(summary)
    if not summary["all_passed"]:
        failing = {name: summary["suites"][name]["max_residual"]
                   for name in summary["failures"]}
        return _fail(EXIT_VERIFY_FAILED, "verification-failure", failures=failing)
    return EXIT_OK


def cmd_gen_state(args) -> int:
    spec = _spec(_read_json(args.input), args.seed)
    rho = make_state(spec)
    matrix = np.stack([rho.mat.real, rho.mat.imag], axis=-1).tolist()
    _emit({
        "schema_version": SCHEMA_VERSION,
        "kind": "dense",
        "n_parties": spec.ctx.n_parties,
        "local_dim": spec.ctx.local_dim,
        "params": {"matrix": matrix},
        "seed": spec.seed,
        "source_kind": spec.kind,
    })
    return EXIT_OK


def _build_parser():
    parser = _Parser(
        prog="blochbounds",
        description="Correlation-tensor entanglement bounds, JSON in and out.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bound one state and report a verdict")
    p.add_argument("--input", default="-", help="request JSON file, - for stdin")
    p.add_argument("--seed", type=int, default=None,
                   help="override the state's seed")
    p.add_argument("--samples", type=int, default=None,
                   help="convex-roof samples (0 skips the estimate)")
    p.add_argument("--tol", type=float, default=None,
                   help="override every validation tolerance at once")
    p.add_argument("--emit-tensors", action="store_true",
                   help="append the full sector payload to the report")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("scan", help="noise weight where a noise family stops "
                                    "passing the predicate")
    p.add_argument("--input", default="-",
                   help="family spec JSON, - for stdin; blank input means "
                        "the three-qubit ghz_noise")
    p.add_argument("--predicate", choices=("gme", "entangled"), required=True)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--ns", default="2,3", help="party counts, comma-separated")
    p.add_argument("--ds", default="2", help="local dimensions, comma-separated")
    p.add_argument("--n-random", type=int, default=50,
                   help="random states per suite and combination")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="convex-roof samples per sandwich check, default 40")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("gen-state", help="resolve a spec to a dense matrix")
    p.add_argument("--input", default="-", help="state spec JSON, - for stdin")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_gen_state)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except RequestError as exc:
        return _fail(EXIT_PARSE, "parse", message=str(exc))
    except ValidationError as exc:
        return _fail(EXIT_INVALID_STATE, "invalid-state", **exc.as_dict())
    except ValueError as exc:
        return _fail(EXIT_INVALID_STATE, "invalid-state", message=str(exc))


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
