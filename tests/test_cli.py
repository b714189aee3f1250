"""Tests for the JSON command line front end.

Commands run in-process through main() so exit codes and both output
streams can be asserted without spawning interpreters.
"""

import io
import json
from collections import Counter

import numpy as np
import pytest

from blochbounds import bounds, cli, states
from blochbounds.bounds import GENUINELY_MULTIPARTITE, analyze, white_noise_crossing
from blochbounds.cli import main
from blochbounds.linalg import PartitionContext
from blochbounds.states import StateSpec, make_state, threshold_scan
from blochbounds.tensors import all_tensors

GME_CROSSING = 0.083484861008832
ENT_CROSSING = 0.2788897449072022

# the scan predicates, phrased on the analysis report for the bisection oracle
REPORT_PREDICATES = {
    "gme": lambda rep: rep.verdict == GENUINELY_MULTIPARTITE,
    "entangled": lambda rep: rep.concurrence_lower > 0.0,
}


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_ghz_defaults(self, capsys, monkeypatch):
        code, out, err = run_cli(["analyze"], capsys, '{"kind":"ghz"}', monkeypatch)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert abs(doc["concurrence_lower"] - 1.224745) < 1e-6
        assert doc["gme_threshold"] == 1.0
        assert doc["verdict"] == "genuine-multipartite-entangled"

    def test_noisy_ghz_verdicts(self, capsys, monkeypatch):
        for x, verdict in ((0.05, "genuine-multipartite-entangled"),
                           (0.2, "entangled"), (0.5, "inconclusive")):
            request = json.dumps({"kind": "ghz_noise", "params": {"x": x}})
            code, out, _ = run_cli(["analyze"], capsys, request, monkeypatch)
            assert code == 0
            assert json.loads(out)["verdict"] == verdict

    def test_product_all_zero(self, capsys, monkeypatch):
        request = '{"kind":"product","n_parties":3,"local_dim":2}'
        code, out, _ = run_cli(["analyze"], capsys, request, monkeypatch)
        doc = json.loads(out)
        assert code == 0
        assert doc["concurrence_lower"] == 0
        assert doc["tangle_lower"] == 0
        assert doc["verdict"] == "inconclusive"

    def test_byte_identical_output(self, capsys, monkeypatch):
        request = '{"kind":"random_mixed","n_parties":3,"local_dim":2,"params":{"rank":3},"seed":5,"options":{"samples_for_roof":10}}'
        _, first, _ = run_cli(["analyze"], capsys, request, monkeypatch)
        _, second, _ = run_cli(["analyze"], capsys, request, monkeypatch)
        assert first == second

    def test_floats_roundtrip(self, capsys, monkeypatch):
        code, out, _ = run_cli(["analyze"], capsys, '{"kind":"ghz"}', monkeypatch)
        doc = json.loads(out)
        # shortest round-trip repr reproduces the double exactly
        assert doc["concurrence_lower"] == 1.2247448713915885

    def test_whole_number_floats_stay_floats(self, capsys, monkeypatch):
        _, out, _ = run_cli(["analyze"], capsys, '{"kind":"ghz"}', monkeypatch)
        assert isinstance(json.loads(out)["gme_threshold"], float)
        request = '{"kind":"product","n_parties":3,"local_dim":2}'
        _, out, _ = run_cli(["analyze"], capsys, request, monkeypatch)
        assert isinstance(json.loads(out)["concurrence_lower"], float)

    def test_output_is_one_line(self, capsys, monkeypatch):
        _, out, _ = run_cli(["analyze", "--emit-tensors"], capsys,
                            '{"kind":"ghz"}', monkeypatch)
        assert out.endswith("}\n") and out.count("\n") == 1

    def test_roof_flag_overrides_options(self, capsys, monkeypatch):
        request = '{"kind":"ghz_noise","params":{"x":0.1},"seed":2}'
        code, out, _ = run_cli(["analyze", "--samples", "8"], capsys,
                               request, monkeypatch)
        doc = json.loads(out)
        assert code == 0
        assert doc["roof_samples"] == 8
        assert doc["roof_upper_estimate"] >= doc["concurrence_lower"] - 1e-9

    def test_emit_tensors(self, capsys, monkeypatch):
        code, out, _ = run_cli(["analyze", "--emit-tensors"], capsys,
                               '{"kind":"bell"}', monkeypatch)
        doc = json.loads(out)
        assert code == 0
        subsets = [sector["subset"] for sector in doc["tensors"]]
        assert subsets == [[1], [2], [1, 2]]
        pair = doc["tensors"][2]
        assert abs(pair["norm_sq"] - 3.0) < 1e-12

    def test_emit_tensors_matches_payload(self, capsys, monkeypatch):
        spec = {"kind": "random_mixed", "n_parties": 3, "local_dim": 2,
                "params": {"rank": 3}, "seed": 7}
        code, out, _ = run_cli(["analyze", "--emit-tensors"], capsys,
                               json.dumps(spec), monkeypatch)
        assert code == 0
        rho = make_state(StateSpec.from_dict(spec))
        assert json.loads(out)["tensors"] == all_tensors(rho).as_payload()

    def test_wrapped_request_form(self, capsys, monkeypatch):
        request = json.dumps({"state": {"kind": "ghz"},
                              "options": {"emit_tensors": True}})
        code, out, _ = run_cli(["analyze"], capsys, request, monkeypatch)
        assert code == 0
        assert "tensors" in json.loads(out)

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "request.json"
        path.write_text('{"kind":"ghz"}')
        code, out, _ = run_cli(["analyze", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "genuine-multipartite-entangled"

    def test_malformed_json_exits_1(self, capsys, monkeypatch):
        code, out, err = run_cli(["analyze"], capsys, "{nope", monkeypatch)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "parse"

    @pytest.mark.parametrize("request_text,needle", [
        # these used to end in a TypeError, OverflowError or RecursionError
        # traceback, or in a d^n that would not finish
        ('{"kind":"product","n_parties":2,"local_dim":2,"params":{"kets":5}}',
         "kets must be a list"),
        ('{"kind":"ghz","options":{"tolerances":{"trace":1' + "0" * 400 + '}}}',
         "tolerance trace must lie"),
        ('{"kind":"ghz","n_parties":1' + "0" * 30 + '}', "configured cap"),
        ("[" * 100000, "invalid JSON"),
    ], ids=["kets-not-list", "huge-int-tolerance", "huge-n-parties", "deep-json"])
    def test_malformed_values_exit_1(self, capsys, monkeypatch, request_text,
                                     needle):
        code, out, err = run_cli(["analyze"], capsys, request_text, monkeypatch)
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "parse"
        assert needle in diag["message"]

    def test_missing_kind_exits_1(self, capsys, monkeypatch):
        code, _, err = run_cli(["analyze"], capsys, '{"params":{}}', monkeypatch)
        assert code == 1
        assert "kind" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", [["analyze"], ["gen-state"],
                                         ["scan", "--predicate", "gme",
                                          "--input", "-"]])
    @pytest.mark.parametrize("request_text,needle", [
        ('{"kind":"product","n_parties":2,"local_dim":2,'
         '"params":{"local_kets":[[0,1],[0,1]]}}', "local_kets"),
        ('{"kind":"ghz","params":{"bogus":1}}', "bogus"),
        ('{"kind":"nope"}', "unknown state kind"),
    ])
    def test_bad_spec_exits_1(self, capsys, monkeypatch, command,
                              request_text, needle):
        code, out, err = run_cli(command, capsys, request_text, monkeypatch)
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "parse"
        assert needle in diag["message"]

    @pytest.mark.parametrize("command", [["analyze"], ["gen-state"],
                                         ["scan", "--predicate", "gme",
                                          "--input", "-"]])
    @pytest.mark.parametrize("field,value", [
        ("n_parties", 3.7), ("n_parties", [3]), ("n_parties", True),
        ("n_parties", "3"), ("local_dim", 2.0), ("seed", True),
        ("seed", "1"), ("seed", 1.5), ("seed", -1),
        ("rank", 2.7), ("rank", True), ("rank", "2"), ("rank", None),
        ("x", "0.05"), ("x", True), ("x", None), ("x", [0.1])])
    def test_bad_field_type_exits_1(self, capsys, monkeypatch, command,
                                    field, value):
        spec = {"kind": "ghz_noise_general", "n_parties": 3, "local_dim": 2,
                "params": {"x": 0.1}}
        if field == "rank":
            spec.update(kind="random_mixed", params={"rank": value})
        elif field == "x":
            spec["params"] = {"x": value}
        else:
            spec[field] = value
        code, out, err = run_cli(command, capsys, json.dumps(spec), monkeypatch)
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "parse"
        assert field in diag["message"]

    @pytest.mark.parametrize("command", [["analyze"], ["gen-state"]])
    @pytest.mark.parametrize("field", ["parms", "nparties", "options2"])
    def test_unknown_spec_field_exits_1(self, capsys, monkeypatch, command, field):
        spec = {"kind": "random_mixed", "n_parties": 3, "local_dim": 2,
                field: {"rank": 1}}
        code, out, err = run_cli(command, capsys, json.dumps(spec), monkeypatch)
        assert code == 1
        assert out == ""
        assert field in json.loads(err)["message"]

    def test_unknown_request_field_exits_1(self, capsys, monkeypatch):
        request = json.dumps({"state": {"kind": "ghz"},
                              "optoins": {"samples_for_roof": 5}})
        code, out, err = run_cli(["analyze"], capsys, request, monkeypatch)
        assert code == 1
        assert out == ""
        assert "optoins" in json.loads(err)["message"]

    def test_negative_seed_flag_exits_1(self, capsys, monkeypatch):
        code, _, err = run_cli(["gen-state", "--seed", "-1"], capsys,
                               '{"kind":"ghz"}', monkeypatch)
        assert code == 1
        assert "seed" in json.loads(err)["message"]

    @pytest.mark.parametrize("options,needle", [
        ({"samples_for_roof": "5"}, "samples_for_roof"),
        ({"samples_for_roof": True}, "samples_for_roof"),
        ({"samples_for_roof": 2.7}, "samples_for_roof"),
        ({"samples_for_roof": -1}, "samples_for_roof"),
        ({"emit_tensors": "no"}, "emit_tensors"),
        ({"emit_tensors": 1}, "emit_tensors"),
    ])
    def test_bad_option_type_exits_1(self, capsys, monkeypatch, options, needle):
        for request in ({"kind": "ghz", "options": options},
                        {"state": {"kind": "ghz"}, "options": options}):
            code, out, err = run_cli(["analyze"], capsys, json.dumps(request),
                                     monkeypatch)
            assert code == 1
            assert out == ""
            diag = json.loads(err)
            assert diag["error"] == "parse"
            assert needle in diag["message"]

    def test_gen_state_fields_accepted(self, capsys, monkeypatch):
        # schema_version and source_kind from gen-state output are spec fields
        code, out, _ = run_cli(["gen-state", "--seed", "3"], capsys,
                               '{"kind":"random_mixed","n_parties":2,'
                               '"local_dim":2,"params":{"rank":2}}', monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert {"schema_version", "source_kind", "seed"} <= set(doc)
        code, out, _ = run_cli(["analyze"], capsys, json.dumps(doc), monkeypatch)
        assert code == 0
        assert json.loads(out)["n_parties"] == 2

    def test_invalid_matrix_exits_2(self, capsys, monkeypatch):
        bad = {"kind": "dense", "n_parties": 1, "local_dim": 2,
               "params": {"matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}}
        code, out, err = run_cli(["analyze"], capsys, json.dumps(bad), monkeypatch)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "invalid-state"
        assert diag["invariant"] == "positivity"
        assert abs(diag["magnitude"] - (-0.5)) < 1e-12

    @pytest.mark.parametrize("pos", [(0, 0), (1, 2)])
    def test_nan_matrix_exits_2_finite(self, capsys, monkeypatch, pos):
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                  for i in range(4)]
        matrix[pos[0]][pos[1]][0] = float("nan")
        bad = {"kind": "dense", "n_parties": 2, "local_dim": 2,
               "params": {"matrix": matrix}}
        code, out, err = run_cli(["analyze"], capsys, json.dumps(bad), monkeypatch)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "invalid-state"
        assert diag["invariant"] == "finite"

    @pytest.mark.parametrize("kind,param", [("dense", "matrix"),
                                            ("product", "kets")])
    def test_ragged_entry_named(self, capsys, monkeypatch, kind, param):
        # numpy's own "inhomogeneous shape" text used to reach the caller
        bad = {"kind": kind, "n_parties": 2, "local_dim": 2,
               "params": {param: [[1, [2]], [1, 2]]}}
        code, out, err = run_cli(["analyze"], capsys, json.dumps(bad), monkeypatch)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "invalid-state"
        assert diag["message"].startswith(f"param {param} is ragged")

    def test_parse_request_leaves_payload_unchanged(self):
        from blochbounds.cli import _parse_request
        for payload in ({"kind": "bell", "options": {"emit_tensors": True}},
                        {"state": {"kind": "bell"},
                         "options": {"samples_for_roof": 3}}):
            before = json.loads(json.dumps(payload))
            spec_payload, options = _parse_request(payload)
            assert payload == before
            assert spec_payload["kind"] == "bell"
            assert "options" not in spec_payload

    def test_invalid_params_exit_2(self, capsys, monkeypatch):
        request = '{"kind":"ghz_noise","params":{"x":2.0}}'
        code, _, err = run_cli(["analyze"], capsys, request, monkeypatch)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-state"

    def test_tolerance_option_validation(self, capsys, monkeypatch):
        request = json.dumps({"kind": "ghz",
                              "options": {"tolerances": {"trace": 0.5}}})
        code, _, err = run_cli(["analyze"], capsys, request, monkeypatch)
        assert code == 1
        assert "trace" in json.loads(err)["message"]

    def test_unknown_option_rejected(self, capsys, monkeypatch):
        request = json.dumps({"kind": "ghz", "options": {"turbo": True}})
        code, _, err = run_cli(["analyze"], capsys, request, monkeypatch)
        assert code == 1
        assert "turbo" in json.loads(err)["message"]

    def test_tolerance_override_accepts_state(self, capsys, monkeypatch):
        # trace deliberately off by 3e-9: default tolerance rejects it
        mat = np.diag([0.25 + 3e-9, 0.25, 0.25, 0.25]).astype(complex)
        payload = {"kind": "dense", "n_parties": 2, "local_dim": 2,
                   "params": {"matrix": [[[z.real, z.imag] for z in row]
                                         for row in mat]}}
        code, _, err = run_cli(["analyze"], capsys, json.dumps(payload), monkeypatch)
        assert code == 2
        assert json.loads(err)["invariant"] == "trace"
        payload["options"] = {"tolerances": {"trace": 1e-6}}
        code, out, _ = run_cli(["analyze"], capsys, json.dumps(payload), monkeypatch)
        assert code == 0
        assert json.loads(out)["tolerances"]["trace"] == 1e-6


class TestScan:
    def test_gme_crossing(self, capsys, monkeypatch):
        code, out, _ = run_cli(["scan", "--predicate", "gme"], capsys, "",
                               monkeypatch)
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["crossing_x"] - 0.083484861008832) < 1e-4
        assert doc["predicate"] == "gme"

    def test_entangled_crossing(self, capsys, monkeypatch):
        code, out, _ = run_cli(["scan", "--predicate", "entangled"], capsys, "",
                               monkeypatch)
        assert code == 0
        assert abs(json.loads(out)["crossing_x"] - 0.2788897449072022) < 1e-4

    @pytest.mark.parametrize("stdin_text", ["", " \n", '{"kind":"ghz_noise"}'])
    @pytest.mark.parametrize("predicate,expect", [("gme", GME_CROSSING),
                                                  ("entangled", ENT_CROSSING)])
    def test_closed_form_values(self, capsys, monkeypatch, stdin_text,
                                predicate, expect):
        code, out, err = run_cli(["scan", "--predicate", predicate], capsys,
                                 stdin_text, monkeypatch)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert set(doc) == {"schema_version", "crossing_x", "predicate", "rng"}
        assert abs(doc["crossing_x"] - expect) <= 1e-12

    def test_reads_family_from_stdin(self, capsys, monkeypatch):
        spec = {"kind": "ghz_noise_general", "n_parties": 4, "local_dim": 3}
        code, out, _ = run_cli(["scan", "--predicate", "gme"], capsys,
                               json.dumps(spec), monkeypatch)
        assert code == 0
        expect = white_noise_crossing(
            make_state(StateSpec.from_dict({**spec, "params": {"x": 0.0}})), "gme")
        assert json.loads(out)["crossing_x"] == expect
        assert abs(expect - GME_CROSSING) > 0.05

    @pytest.mark.parametrize("n,d,predicate", [
        (n, d, predicate) for n, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                       (4, 3), (3, 4))
        for predicate in ("gme", "entangled") if predicate == "entangled" or n >= 3])
    def test_matches_bisection(self, capsys, monkeypatch, n, d, predicate):
        spec = StateSpec("ghz_noise_general", PartitionContext(n, d))
        code, out, err = run_cli(["scan", "--predicate", predicate], capsys,
                                 json.dumps(spec.to_dict()), monkeypatch)
        passes_at_zero = REPORT_PREDICATES[predicate](
            analyze(make_state(spec.with_params(x=0.0))))
        oracle = threshold_scan(lambda x: spec.with_params(x=x),
                                REPORT_PREDICATES[predicate], 1e-9)
        if passes_at_zero:
            assert code == 0 and not oracle.no_crossing
            assert abs(json.loads(out)["crossing_x"] - oracle.crossing_x) <= 2e-9
        else:
            assert code == 3 and out == ""
            assert oracle.no_crossing
            assert json.loads(err)["error"] == "no-crossing"

    def test_knife_edge_follows_analyze(self, capsys, monkeypatch):
        # at (4,3) the pure GHZ bound equals the GME level in exact arithmetic;
        # analyze calls it GME by rounding, so the scan reports a crossing
        spec = StateSpec("ghz_noise_general", PartitionContext(4, 3), {"x": 0.0})
        assert analyze(make_state(spec)).verdict == GENUINELY_MULTIPARTITE
        code, out, _ = run_cli(["scan", "--predicate", "gme"], capsys,
                               json.dumps(spec.to_dict()), monkeypatch)
        assert code == 0
        assert 0.0 < json.loads(out)["crossing_x"] < 1e-12

    def test_one_transform_no_analyze(self, capsys, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((bounds, "all_tensors"), (cli, "all_tensors"),
                             (bounds, "analyze"), (cli, "analyze"),
                             (states, "threshold_scan"), (cli, "make_state")):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        code, _, _ = run_cli(["scan", "--predicate", "gme"], capsys, "",
                             monkeypatch)
        assert code == 0
        assert calls == Counter(all_tensors=1, make_state=1)

    @pytest.mark.parametrize("value", ["1e-2", "nan", "inf"])
    def test_tol_rejected(self, capsys, monkeypatch, value):
        code, out, err = run_cli(["scan", "--predicate", "gme", "--tol", value],
                                 capsys, "", monkeypatch)
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "parse"
        assert "--tol" in diag["message"]

    def test_no_crossing_exits_3(self, capsys, monkeypatch):
        # a bipartite noise family never reaches the entangled predicate at x=0? it does;
        # use gme on 4 parties where even x=0 stays below the level
        spec = '{"kind":"ghz_noise_general","n_parties":2,"local_dim":2}'
        code, out, err = run_cli(["scan", "--predicate", "entangled",
                                  "--input", "-"], capsys, spec, monkeypatch)
        assert code == 0  # bell-type family does cross
        spec = '{"kind":"product","n_parties":2,"local_dim":2}'
        code, _, err = run_cli(["scan", "--predicate", "entangled",
                                "--input", "-"], capsys, spec, monkeypatch)
        assert code == 1  # not a noise family: request error

    def test_gme_needs_three_parties(self, capsys, monkeypatch):
        spec = '{"kind":"ghz_noise_general","n_parties":2,"local_dim":2}'
        code, _, err = run_cli(["scan", "--predicate", "gme", "--input", "-"],
                               capsys, spec, monkeypatch)
        assert code == 1
        assert "three" in json.loads(err)["message"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["analyze", "--bogus"], "--bogus"),
        (["analyze", "--seed", "x"], "--seed"),
        (["gen-state", "--seed", "1.5"], "--seed"),
        (["analyze", "--samples", "many"], "--samples"),
        (["scan"], "--predicate"),
        (["scan", "--predicate", "separable"], "--predicate"),
        (["frobnicate"], "frobnicate"),
        ([], "command"),
    ])
    def test_usage_error_exits_1_with_json(self, capsys, monkeypatch, argv,
                                           needle):
        code, out, err = run_cli(argv, capsys, "", monkeypatch)
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "parse"
        assert needle in diag["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--ns", "2", "--ds", "2",
                                "--n-random", "5", "--samples", "5"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["all_passed"] is True
        assert doc["suites"]["pure_equivalence"]["max_residual"] < 1e-8
        assert doc["rng"] == "pcg64"

    def test_deterministic(self, capsys):
        args = ["verify", "--ns", "2", "--ds", "2", "--n-random", "4",
                "--samples", "4", "--seed", "3"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_bad_dims_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--ns", "9"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "parse"


class TestGenState:
    def test_dense_roundtrip_through_analyze(self, capsys, monkeypatch):
        code, out, _ = run_cli(["gen-state"], capsys, '{"kind":"ghz"}',
                               monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "dense"
        assert doc["source_kind"] == "ghz"
        matrix = np.asarray(doc["params"]["matrix"])
        assert matrix.shape == (8, 8, 2)
        # feed the emitted dense state back into analyze
        code, out, _ = run_cli(["analyze"], capsys, json.dumps(doc), monkeypatch)
        assert code == 0
        assert json.loads(out)["verdict"] == "genuine-multipartite-entangled"

    def test_seeded_matrix_exact(self, capsys, monkeypatch):
        spec = {"kind": "random_mixed", "n_parties": 3, "local_dim": 2,
                "params": {"rank": 3}, "seed": 4}
        code, out, _ = run_cli(["gen-state"], capsys, json.dumps(spec),
                               monkeypatch)
        assert code == 0
        pairs = np.array(json.loads(out)["params"]["matrix"], dtype=float)
        expect = make_state(StateSpec.from_dict(spec)).mat
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], expect)

    def test_seeded_output_bytes_unchanged_by_in_place_normalisation(
            self, capsys, monkeypatch):
        # random_mixed divides G G* by its trace in place; the document must
        # be byte for byte the one the out-of-place quotient gives
        spec = {"kind": "random_mixed", "n_parties": 4, "local_dim": 2,
                "params": {"rank": 4}, "seed": 17}
        code, out, _ = run_cli(["gen-state"], capsys, json.dumps(spec),
                               monkeypatch)
        assert code == 0
        rng = np.random.default_rng(17)
        g = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        m = g @ g.conj().T
        m = m / m.trace().real
        expect = {"schema_version": 1, "kind": "dense", "n_parties": 4,
                  "local_dim": 2,
                  "params": {"matrix": np.stack([m.real, m.imag],
                                                axis=-1).tolist()},
                  "seed": 17, "source_kind": "random_mixed"}
        assert out == json.dumps(expect) + "\n"

    def test_product_kets(self, capsys, monkeypatch):
        spec = ('{"kind":"product","n_parties":2,"local_dim":2,'
                '"params":{"kets":[[0,1],[0,1]]}}')
        code, out, _ = run_cli(["gen-state"], capsys, spec, monkeypatch)
        assert code == 0
        pairs = np.array(json.loads(out)["params"]["matrix"], dtype=float)
        expect = np.zeros((4, 4, 2))
        expect[3, 3, 0] = 1.0
        assert np.array_equal(pairs, expect)

    def test_seed_override(self, capsys, monkeypatch):
        spec = '{"kind":"random_pure","n_parties":2,"local_dim":2,"seed":1}'
        _, one, _ = run_cli(["gen-state", "--seed", "9"], capsys, spec, monkeypatch)
        _, two, _ = run_cli(["gen-state"], capsys,
                            spec.replace('"seed":1', '"seed":9'), monkeypatch)
        assert json.loads(one)["params"] == json.loads(two)["params"]