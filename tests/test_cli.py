import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    bubble_chain_graph,
    bubble_graph,
    gamma2_graph,
    sunset_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import RBAlgebraDescriptor, serde
from rbren.cli import main, run
from rbren.motives import parse_class
from rbren.poly import parse_laurent, parse_poly


@pytest.fixture
def sunset_file(tmp_path):
    path = tmp_path / "sunset.json"
    path.write_text(json.dumps(serde.dump_graph(sunset_graph())))
    return str(path)


@pytest.fixture
def library_file(tmp_path):
    lib = {
        "dim": 4,
        "graphs": {
            "B": serde.dump_graph(bubble_graph()),
            "Gamma2": serde.dump_graph(gamma2_graph()),
            "tadpole": serde.dump_graph(tadpole_graph()),
            "sunset": serde.dump_graph(sunset_graph()),
        },
    }
    path = tmp_path / "library.json"
    path.write_text(json.dumps(lib))
    return str(path)


@pytest.fixture
def gamma2_file(tmp_path):
    data = serde.dump_graph(gamma2_graph())
    data["name"] = "Gamma2"
    path = tmp_path / "gamma2.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_symanzik_psi_payload(sunset_file):
    result = run(["symanzik", "psi", sunset_file])
    assert result.status == 0
    assert result.payload == {"psi": "t1*t2+t1*t3+t2*t3"}


def test_symanzik_psi_output_is_parseable(sunset_file, capsys):
    assert main(["symanzik", "psi", sunset_file]) == 0
    out = json.loads(capsys.readouterr().out)
    parsed = parse_poly(out["psi"], ("t1", "t2", "t3"))
    assert str(parsed) == out["psi"]


def test_motive_gl_payload(capsys):
    assert main(["motive", "gl", "2"]) == 0
    out = capsys.readouterr().out
    assert out == '"L^4 - L^3 - L^2 + L"\n'
    assert parse_class(json.loads(out)) == parse_class("L^4 - L^3 - L^2 + L")


def test_motive_grass_and_pole_bound():
    assert run(["motive", "grass", "2", "4"]).payload == "L^4 + L^3 + 2*L^2 + L + 1"
    assert run(["motive", "pole-bound", "14", "7", "4"]).payload == {
        "pole_order_bound": 38
    }


def test_motive_sigma():
    result = run(["motive", "sigma", "3", "1"])
    assert result.status == 0
    assert result.payload["f"] == 2
    assert result.payload["components"] == 1
    arr = serde.load_arrangement(result.payload["arrangement"])
    assert len(arr.hyperplanes) == 1


def test_motive_arrangement_round_trip(tmp_path):
    result = run(["motive", "sigma", "2", "0"])
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps(result.payload["arrangement"]))
    out = run(["motive", "arrangement", str(arr_path)])
    assert out.status == 0
    assert parse_class(out.payload["class"]) == parse_class(result.payload["class"])
    assert "char_poly" in out.payload


def test_hopf_coproduct_cli(gamma2_file, library_file):
    result = run(
        ["hopf", "coproduct", "--graph", gamma2_file, "--library", library_file]
    )
    assert result.status == 0
    tensor = serde.load_tensor(result.payload["coproduct"])
    from rbren.hopf import TensorElement

    expected = TensorElement(
        2,
        {
            (("Gamma2",), ()): 1,
            ((), ("Gamma2",)): 1,
            (("B",), ("B",)): 2,
        },
    )
    assert tensor == expected


def test_graph_info_and_trees(sunset_file):
    info = run(["graph", "info", sunset_file]).payload
    assert info["loops"] == 2
    assert info["edge_connectivity"] == 3
    assert info["is_1pi"]
    trees = run(["graph", "trees", sunset_file]).payload
    assert trees == {"spanning_trees": [["e1"], ["e2"], ["e3"]]}


def test_graph_divergent_on_w7(tmp_path, capsys):
    # 14 edges: a subset scan would test 2^14 - 2 subsets
    path = tmp_path / "w7.json"
    path.write_text(json.dumps(serde.dump_graph(wheel_graph(7))))
    assert main(["graph", "divergent", str(path), "--dim", "6"]) == 0
    found = json.loads(capsys.readouterr().out)["divergent_subgraphs"]
    assert len(found) == 483 and found[0] == ["c0", "s0", "s1"]


def test_graph_quotient_round_trip(sunset_file):
    result = run(["graph", "quotient", sunset_file, "--edges", "e1,e2"])
    assert result.status == 0
    q = serde.load_graph(result.payload["quotient"])
    assert len(q.vertices) == 1


def test_birkhoff_factorize_cli(tmp_path, library_file):
    char = {
        "target": {"kind": "laurent_ms"},
        "rule": "pole_power",
        "c": "1/2",
    }
    char_path = tmp_path / "char.json"
    char_path.write_text(json.dumps(char))
    result = run(
        [
            "birkhoff",
            "factorize",
            "Gamma2",
            "--character",
            str(char_path),
            "--library",
            library_file,
            "--verify",
        ]
    )
    assert result.status == 0
    assert result.payload["verified"] is True
    defect = serde.load_laurent(result.payload["defect"])
    assert defect.is_zero()


def test_birkhoff_verify_factorizes_the_generators_it_needs(tmp_path, library_file):
    # the coproduct of sunset has the quotient tadpole as a right leg, so
    # verification needs phi_plus(tadpole), which factorizing sunset alone
    # never computes
    char_path = tmp_path / "char.json"
    char_path.write_text(
        json.dumps({"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": "1/2"})
    )
    argv = ["birkhoff", "factorize", "sunset", "--character", str(char_path)]
    result = run(argv + ["--library", library_file, "--verify"])
    assert result.status == 0, result.payload
    assert result.payload["verified"] is True
    # and only those: Gamma2 verifies with no values for tadpole and sunset
    values = {"B": serde.dump_laurent(parse_laurent("z^-1", ("z",), ())),
              "Gamma2": serde.dump_laurent(parse_laurent("z^-2", ("z",), ()))}
    char_path.write_text(json.dumps({"target": {"kind": "laurent_ms"}, "values": values}))
    argv = ["birkhoff", "factorize", "Gamma2", "--character", str(char_path)]
    result = run(argv + ["--library", library_file, "--verify"])
    assert result.status == 0, result.payload
    assert result.payload["verified"] is True


def test_birkhoff_atkinson_on_six_bubble_chain_matches_factorize(tmp_path):
    # C6 has degree 6: a series stopped at a degree cutoff of 4 ended this
    # command with a degree-cutoff error, and its closed form was nonzero
    names = [f"C{n}" for n in range(1, 7)]
    lib = {"dim": 4, "graphs": {c: serde.dump_graph(bubble_chain_graph(n))
                                for n, c in enumerate(names, 1)}}
    desc = serde.load_descriptor({"kind": "nc_log_form", "divisors": 1, "ambient": 1})
    phi = desc.add(desc.one(), desc.form((("dlog1", "dx1"), "x1")))
    char = {"target": serde.dump_descriptor(desc),
            "values": {c: serde.dump_element(desc, phi) for c in names}}
    lib_path, char_path = tmp_path / "library.json", tmp_path / "char.json"
    lib_path.write_text(json.dumps(lib))
    char_path.write_text(json.dumps(char))
    argv = ["C6", "--character", str(char_path), "--library", str(lib_path)]
    atkinson = run(["birkhoff", "atkinson"] + argv)
    factorize = run(["birkhoff", "factorize"] + argv)
    assert atkinson.status == 0, atkinson.payload
    assert factorize.status == 0, factorize.payload
    assert atkinson.payload["b_left"] == factorize.payload["phi_minus"]
    assert atkinson.payload["b_left_closed_form"] == factorize.payload["phi_minus"]


def test_rb_sweep_cli():
    result = run(
        ["rb", "sweep", "--kind", "nc_log_form", "--pairs", "25", "--seed", "3"]
    )
    assert result.status == 0
    assert result.payload["all_zero"] is True


def test_rb_defect_cli(tmp_path):
    from rbren import RBAlgebraDescriptor
    from rbren.poly import parse_laurent

    desc = RBAlgebraDescriptor.laurent_ms()
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(serde.dump_descriptor(desc)))
    x = tmp_path / "x.json"
    x.write_text(
        json.dumps(serde.dump_laurent(parse_laurent("z^-1", ("z",), ())))
    )
    result = run(
        ["rb", "defect", str(x), str(x), "--algebra", str(algebra)]
    )
    assert result.status == 0
    assert result.payload["zero"] is True


def test_rb_residue_cli(tmp_path):
    from rbren import RBAlgebraDescriptor

    desc = RBAlgebraDescriptor.nc_log(2, 2)
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(serde.dump_descriptor(desc)))
    omega = desc.form((("dlog1", "dx1"), "x1"))
    element = tmp_path / "element.json"
    element.write_text(json.dumps(serde.dump_exterior(omega, desc)))
    result = run(
        ["rb", "residue", str(element), "--algebra", str(algebra), "--index", "1"]
    )
    assert result.status == 0
    got = serde.load_exterior(result.payload["residue"])
    assert got == desc.form((("dx1",), "x1"))


def test_deterministic_output(sunset_file, capsys):
    main(["symanzik", "psi", sunset_file])
    first = capsys.readouterr().out
    main(["symanzik", "psi", sunset_file])
    second = capsys.readouterr().out
    assert first == second


def test_domain_error_exit_code(tmp_path, capsys):
    g = {"vertices": ["a", "b"], "internal_edges": [], "external_edges": []}
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps(g))
    assert main(["graph", "trees", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "disconnected-graph"


def test_hopf_counit_refuses_a_point(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps({"vertices": ["v"], "internal_edges": [], "external_edges": []})
    )
    assert main(["hopf", "counit", "--graph", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "precondition"
    assert "has no internal edge" in out["error"]["message"]


def test_hopf_coproduct_honours_dim_zero(sunset_file):
    """At dim 0 the sunset has no divergent subgraph, so only the two
    primitive terms remain."""
    assert run(["graph", "divergent", sunset_file, "--dim", "0"]).payload == {
        "divergent_subgraphs": []
    }
    result = run(["hopf", "coproduct", "--graph", sunset_file, "--dim", "0"])
    assert result.status == 0
    assert result.payload["pretty"] == "1*[1 (x) !g1] + 1*[!g1 (x) 1]"
    at_four = run(["hopf", "coproduct", "--graph", sunset_file, "--dim", "4"])
    assert "3*[!g2 (x) !g3]" in at_four.payload["pretty"]


def test_flags_take_precedence_over_the_library(sunset_file, tmp_path):
    """Each registry setting comes from its flag, then the library, then the
    default (dim 4, not even-only)."""
    primitive = "1*[1 (x) !g1] + 1*[!g1 (x) 1]"
    lib = tmp_path / "lib.json"
    argv = ["hopf", "coproduct", "--graph", sunset_file, "--library", str(lib)]
    lib.write_text(json.dumps({"dim": 4, "even_only": False, "graphs": {}}))
    assert run(argv + ["--dim", "0"]).payload["pretty"] == primitive
    assert "3*[!g2 (x) !g3]" in run(argv).payload["pretty"]
    # the sunset has three edges, so an even-only registry refuses it
    refused = run(argv + ["--even-only"])
    assert refused.status == 1
    assert refused.payload["error"]["code"] == "precondition"
    lib.write_text(json.dumps({"dim": 0, "graphs": {}}))
    assert run(argv).payload["pretty"] == primitive
    assert "3*[!g2 (x) !g3]" in run(argv + ["--dim", "4"]).payload["pretty"]
    lib.write_text(json.dumps({"even_only": True, "graphs": {}}))
    assert run(argv).status == 1


def _bad_input(result, field):
    assert result.status == 1
    assert result.payload["error"]["code"] == "bad-input"
    assert field in result.payload["error"]["message"]


def _refused(result, field):
    assert result.status == 1
    assert result.payload["error"]["code"] == "precondition"
    assert field in result.payload["error"]["message"]


@pytest.mark.parametrize(
    "lib, field",
    [([], "library"), ({"graphs": []}, '"graphs"'), ({"graphs": {"B": []}}, "'B'")],
    ids=["library", "graphs", "graph"],
)
def test_library_parts_that_are_no_object_are_bad_input(sunset_file, tmp_path, lib, field):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(lib))
    result = run(["hopf", "coproduct", "--graph", sunset_file, "--library", str(path)])
    _bad_input(result, field)


def test_library_even_only_string_is_bad_input(sunset_file, tmp_path):
    """bool("false") is true: the string must not turn on even-only."""
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"even_only": "false"}))
    result = run(["hopf", "coproduct", "--graph", sunset_file, "--library", str(path)])
    _bad_input(result, '"even_only"')


@pytest.mark.parametrize("dim", [4.7, True])
def test_library_dim_must_be_an_integer(sunset_file, tmp_path, dim):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"dim": dim}))
    result = run(["hopf", "coproduct", "--graph", sunset_file, "--library", str(path)])
    _bad_input(result, '"dim"')


def test_graph_name_must_be_a_string(tmp_path, library_file):
    """An int name of a graph isomorphic to a library generator used to end
    in a traceback."""
    data = serde.dump_graph(sunset_graph())
    data["name"] = 5
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    result = run(["hopf", "coproduct", "--graph", str(path), "--library", library_file])
    _bad_input(result, '"name"')


def _json_file(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv", [["graph", "info"], ["symanzik", "psi"]])
def test_graph_file_that_is_no_object_is_bad_input(tmp_path, argv):
    """A list used to end in an AttributeError traceback."""
    _bad_input(run(argv + [_json_file(tmp_path, [])]), "the graph")


@pytest.mark.parametrize(
    "field, value",
    [
        # an IndexError traceback
        ("internal_edges", [["e1", "u"]]),
        # silently cut to three items
        ("internal_edges", [["e1", "u", "v", "w"]]),
        # read as the valences {"3", "4"}, which no vertex ever matches
        ("valences", "34"),
    ],
    ids=["short-edge", "long-edge", "valences-string"],
)
def test_malformed_graph_fields_are_bad_input(tmp_path, field, value):
    data = serde.dump_graph(sunset_graph())
    data[field] = value
    _bad_input(run(["graph", "info", _json_file(tmp_path, data)]), f'"{field}"')


@pytest.mark.parametrize(
    "field, value",
    # "false" used to read as projective, 2.9 as the ambient dimension 2
    [("projective", "false"), ("ambient", 2.9)],
)
def test_malformed_arrangement_fields_are_bad_input(tmp_path, field, value):
    data = {"ambient": 2, "projective": True, "hyperplanes": [["1", "0"], ["0", "1"]]}
    assert run(["motive", "arrangement", _json_file(tmp_path, data)]).status == 0
    data[field] = value
    result = run(["motive", "arrangement", _json_file(tmp_path, data)])
    _bad_input(result, f'"{field}"')


@pytest.mark.parametrize(
    "field, value",
    # each used to be coerced: to 2, to 1, to 2 and to ("a", "b")
    [("divisors", 2.7), ("divisors", True), ("ambient", "2"), ("coeff_vars", "ab")],
    ids=["divisors-float", "divisors-bool", "ambient-string", "coeff-vars-string"],
)
def test_malformed_descriptor_fields_are_bad_input(tmp_path, field, value):
    desc = serde.dump_descriptor(RBAlgebraDescriptor.nc_log(2, 2))
    desc[field] = value
    algebra = _json_file(tmp_path, desc)
    element = str(tmp_path / "element.json")
    result = run(["rb", "t", element, "--algebra", algebra])
    _bad_input(result, f'"{field}"')


def test_character_values_must_be_an_object(tmp_path, library_file, capsys):
    """A list of values used to end in an AttributeError traceback."""
    char = tmp_path / "char.json"
    char.write_text(json.dumps({"target": {"kind": "laurent_ms"}, "values": []}))
    argv = ["birkhoff", "factorize", "B", "--character", str(char), "--library", library_file]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "bad-input"
    _bad_input(run(argv), '"values"')


def test_character_c_must_be_a_rational(tmp_path, library_file):
    """true used to be read as c = 1."""
    char = tmp_path / "char.json"
    char.write_text(
        json.dumps({"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": True})
    )
    argv = ["birkhoff", "factorize", "B", "--character", str(char), "--library", library_file]
    _bad_input(run(argv), 'the character\'s "c"')


@pytest.mark.parametrize(
    "extra, field",
    [
        # a typo: used to fail later with missing-character-value
        ({"rule": "pole-power"}, '"rule"'),
        # used to be ignored, as if there were no rule
        ({"rule": "nonsense", "values": {"B": "VALUE"}}, '"rule"'),
        # the values used to be dropped without a word
        ({"rule": "pole_power", "values": {"B": "VALUE"}}, '"values"'),
        # c used to be dropped without a word
        ({"values": {"B": "VALUE"}, "c": "1/2"}, '"c"'),
    ],
    ids=["rule-typo", "unknown-rule", "rule-with-values", "c-without-rule"],
)
def test_character_rule_is_pole_power_alone(tmp_path, library_file, extra, field):
    value = serde.dump_laurent(parse_laurent("7*z^-5", ("z",), ()))
    data = {"target": {"kind": "laurent_ms"}, **extra}
    if "values" in data:
        data["values"] = {"B": value}
    char = tmp_path / "char.json"
    char.write_text(json.dumps(data))
    argv = ["birkhoff", "factorize", "B", "--character", str(char), "--library", library_file]
    _refused(run(argv), field)


def test_negative_descriptor_sizes_are_refused(tmp_path):
    """Both used to load, and rb t exited 0."""
    algebra = _json_file(tmp_path, {"kind": "nc_log_form", "divisors": -1, "ambient": -3})
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"terms": [], "gens": [], "dist": [], "vars": []}))
    _refused(run(["rb", "t", str(element), "--algebra", algebra]), "divisors")


def test_rb_sweep_refuses_a_negative_pair_count():
    """Used to exit 0 with "pairs": -3 and "all_zero": true."""
    _refused(run(["rb", "sweep", "--kind", "laurent_ms", "--pairs", "-3"]), "pairs")


@pytest.mark.parametrize(
    "element, field",
    [
        # read as c^1.5, a MultiPoly with a float exponent, and printed back
        ({"dist": ["z"], "vars": ["c"], "terms": [[[-1], [["1", [1.5]]]]]}, '"terms"[0][1][0][1][0]'),
        # read as z^1, so T gave 0
        ({"dist": ["z"], "vars": ["c"], "terms": [[[True], [["1", [0]]]]]}, '"terms"[0][0][0]'),
        # read as the coefficient 1
        ({"dist": ["z"], "vars": ["c"], "terms": [[[-1], [[True, [0]]]]]}, '"terms"[0][1][0][0]'),
        # read as the name list ["z"]
        ({"dist": "z", "vars": ["c"], "terms": [[[-1], [["1", [0]]]]]}, '"dist"'),
    ],
    ids=["float-exponent", "bool-exponent", "bool-coefficient", "dist-string"],
)
def test_malformed_laurent_elements_are_bad_input(tmp_path, element, field):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"kind": "laurent_ms", "coeff_vars": ["c"]}))
    path = tmp_path / "element.json"
    path.write_text(json.dumps(element))
    _bad_input(run(["rb", "t", str(path), "--algebra", str(algebra)]), field)


def test_rb_t_sums_a_repeated_exponent_vector(tmp_path):
    """The last coefficient of a repeated exponent vector used to win, so T
    printed 2*z^-1."""
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"kind": "laurent_ms"}))
    element = tmp_path / "element.json"
    element.write_text(
        json.dumps({"dist": ["z"], "vars": [], "terms": [[[-1], [["1", []]]], [[-1], [["2", []]]]]})
    )
    result = run(["rb", "t", str(element), "--algebra", str(algebra)])
    assert result.status == 0
    assert result.payload["t"]["terms"] == [[[-1], [["3", []]]]]


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]).status == 2
    assert run([]).status == 2
    assert main(["rb", "sweep", "--pairs", "x"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": {"code": "usage"}}


def test_help_prints_no_payload(capsys):
    assert run(["rb", "sweep", "--help"]).payload is None
    capsys.readouterr()
    assert main(["rb", "sweep", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: rbren rb sweep")
    assert "error" not in out


def test_eta_cli(sunset_file):
    result = run(["symanzik", "eta", sunset_file, "--dim", "4"])
    assert result.payload == {
        "ambient_dim": 4,
        "denominator_exponent": 3,
        "form_degree": 3,
        "numerator_exponent": 1,
    }


def test_cli_remaining_commands_smoke(tmp_path, sunset_file, gamma2_file, library_file):
    char = {"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": "0"}
    char_path = tmp_path / "char.json"
    char_path.write_text(json.dumps(char))
    lib = ["--library", library_file]
    commands = [
        ["graph", "cuts", sunset_file],
        ["graph", "key", sunset_file],
        ["graph", "superficial", sunset_file, "--dim", "4"],
        ["graph", "divergent", sunset_file, "--dim", "4"],
        ["graph", "divergent", sunset_file, "--dim", "4", "--even-only"],
        ["hopf", "antipode", "--graph", gamma2_file] + lib,
        ["hopf", "counit", "--graph", gamma2_file] + lib,
        ["hopf", "reduced", "--graph", gamma2_file, "-n", "2"] + lib,
        ["birkhoff", "atkinson", "Gamma2", "--character", str(char_path)] + lib,
        ["symanzik", "second", sunset_file],
        ["symanzik", "matrix", sunset_file],
        ["symanzik", "check", sunset_file],
        ["symanzik", "upsilon", sunset_file],
        ["motive", "projective", "3"],
        ["rb", "sweep", "--kind", "saito_form", "--pairs", "10", "--seed", "1"],
    ]
    for argv in commands:
        result = run(argv)
        assert result.status == 0, (argv, result.payload)


def test_cli_nonrecursive_rejects_laurent_target(tmp_path, library_file):
    char = {"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": "0"}
    char_path = tmp_path / "char.json"
    char_path.write_text(json.dumps(char))
    result = run(
        ["birkhoff", "nonrecursive", "B", "--character", str(char_path),
         "--library", library_file]
    )
    assert result.status == 1
    assert result.payload["error"]["code"] == "precondition"


def test_missing_and_malformed_input_files(tmp_path):
    result = run(["graph", "info", str(tmp_path / "missing.json")])
    assert result.status == 1
    assert result.payload["error"]["code"] == "io"
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    result = run(["graph", "info", str(bad)])
    assert result.status == 1
    assert result.payload["error"]["code"] == "bad-input"


def test_rb_t_on_saito_element(tmp_path):
    from rbren import RBAlgebraDescriptor

    desc = RBAlgebraDescriptor.saito(2)
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(serde.dump_descriptor(desc)))
    w = desc.saito_element(
        "x1+1", desc.form((("dx1",), "x2")), desc.form(((), "1"))
    )
    element = tmp_path / "element.json"
    element.write_text(json.dumps(serde.dump_saito(w)))
    result = run(["rb", "t", str(element), "--algebra", str(algebra)])
    assert result.status == 0
    back = serde.load_saito(result.payload["t"])
    assert back.eta.is_zero() and back.xi == w.xi


def test_rb_t_rejects_an_element_of_another_algebra(tmp_path):
    from rbren import RBAlgebraDescriptor

    merom = RBAlgebraDescriptor.merom(4)
    element = tmp_path / "element.json"
    element.write_text(json.dumps(serde.dump_element(merom, merom.form((("dx1", "dx2"), "f^-1")))))
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(serde.dump_descriptor(RBAlgebraDescriptor.nc_log(2, 2))))
    result = run(["rb", "t", str(element), "--algebra", str(algebra)])
    assert result.status == 1
    assert result.payload["error"]["code"] == "context-mismatch"
    assert "gens" in result.payload["error"]["message"]
    saito = tmp_path / "saito.json"
    saito.write_text(json.dumps(serde.dump_descriptor(RBAlgebraDescriptor.saito(4))))
    result = run(["rb", "t", str(element), "--algebra", str(saito)])
    assert result.status == 1
    assert result.payload["error"]["code"] == "precondition"
    assert "'denominator'" in result.payload["error"]["message"]


def test_mixed_int_and_str_ids(tmp_path, capsys):
    # int and str edge and vertex ids in one graph: ids of different types
    # are ordered by type, never compared with each other
    g = {
        "vertices": ["u", 2],
        "internal_edges": [[1, "u", 2], [2, "u", 2], ["x", "u", 2]],
        "external_edges": [
            {"vertex": "u", "momentum": ["1", "0"]},
            {"vertex": 2, "momentum": ["-1", "0"]},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(g))
    expected = {
        ("graph", "trees"): {"spanning_trees": [["1"], ["2"], ["x"]]},
        ("graph", "cuts"): {"cut_sets": [["1", "2", "x"]]},
        ("graph", "divergent"): {"divergent_subgraphs": [["1", "2"], ["1", "x"], ["2", "x"]]},
        ("symanzik", "psi"): {"psi": "t1*t2+t1*t3+t2*t3"},
        ("symanzik", "second"): {"second": "t1*t2*t3"},
    }
    for (group, command), payload in expected.items():
        assert main([group, command, str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == payload


def test_successive_calls_match_fresh_processes(sunset_file, capsys):
    """The parser is built once per process; a usage error, a valid command
    and a command of another group, run in turn, print what fresh processes
    print."""
    calls = [
        ["symanzik", "psi"],
        ["symanzik", "psi", sunset_file],
        ["graph", "cuts", sunset_file],
        ["frobnicate"],
        ["motive", "gl", "2"],
        ["symanzik", "second", sunset_file],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(serde.__file__).parents[1]))
    for argv in calls:
        status = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "rbren.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (status, out) == (fresh.returncode, fresh.stdout)
