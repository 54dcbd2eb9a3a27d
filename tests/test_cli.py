"""Command line interface: payloads, formats, determinism, exit codes."""

import ast
import importlib.resources
import json
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

import heunspec.cli
from heunspec.cli import main
from heunspec.heun_core import PotentialKind, PotentialSpec
from heunspec.shooting import shooting_match_table

RING5_V1_L2_E = [-9.316624790355399849115, -2.683375209644600150885]
CF_L3_E0 = 2.428437037356383979258
CF_L3_E1 = 11.03026053382834296563


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = importlib.resources.files("heunspec").joinpath(
        f"schemas/{name}.schema.json")
    return json.loads(path.read_text())


def test_spectrum_finite_payload(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                             "--l", "2", "--k2", "0.5", "--family", "ring5")
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum"))
    assert payload["truncation_N"] == 1
    assert payload["arscott_ok"] is True
    assert payload["energies"] == pytest.approx(RING5_V1_L2_E, rel=1e-12)
    assert payload["meta"]["expected_count"] == 2
    assert payload["meta"]["real_count"] == 2
    assert payload["closed_form_match"] is None


def test_spectrum_closed_form_block(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--potential", "v1",
                           "--l", "-1.5", "--k2", "0.5", "--family", "bold5")
    assert code == 0
    payload = json.loads(out)
    block = payload["closed_form_match"]
    assert block["note"] == "one-term level"
    assert block["expected"] == pytest.approx([-1.375])
    assert block["count_matches"] is True
    assert block["max_abs_diff"] < 1e-12


def test_spectrum_complex_pair(capsys):
    # the two-term level pair of this family is complex at k2 = 0.5,
    # so no real energies exist and the payload must say so
    code, out, _ = run_cli(capsys, "spectrum", "--potential", "v2",
                           "--l", "-0.5", "--k2", "0.5", "--family", "bar5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum"))
    assert payload["energies"] == []
    assert payload["arscott_ok"] is False
    assert payload["meta"]["expected_count"] == 2
    assert payload["meta"]["real_count"] == 0
    assert "complex" in payload["closed_form_match"]["note"]


def test_spectrum_continued_fraction_path(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--potential", "v1",
                           "--l", "-3", "--k2", "0.5", "--family", "ring5",
                           "--max-energies", "2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum"))
    assert payload["truncation_N"] is None
    assert payload["meta"]["window"] is not None
    assert payload["energies"] == pytest.approx([CF_L3_E0, CF_L3_E1],
                                                rel=1e-10)


def test_eigenfunction_infinite_ground_level(capsys):
    # the lowest level, not the next one at 3.9139; the shooting
    # oracle's lowest even level is -4.3603317640
    code, out, _ = run_cli(capsys, "eigenfunction", "--potential", "v2",
                           "--l", "-5.5", "--k2", "0.8", "--family", "ring5",
                           "--index", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["energy"] == pytest.approx(-4.3603317640,
                                                      abs=1e-8)


def test_spectrum_large_half_odd_l(capsys):
    # a recurrence run forward from b_0 misses the termination row here
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                             "--l", "10.5", "--k2", "0.5", "--family", "bold5")
    assert code == 0 and err == ""
    assert len(json.loads(out)["energies"]) == 13


def test_spectrum_infinite_top_level_passes_row_test(capsys):
    # the top level E = 49.244, whose minimal solution closes row 0 only
    # to 1.0e-6 in energy units, passes the join-residual bound
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                             "--l", "1.2", "--k2", "0.05", "--family", "ring5")
    assert code == 0 and err == ""
    assert json.loads(out)["energies"] == pytest.approx(
        [-9.030080726218822, 2.490148463490359, 21.959540179312114,
         49.24408103847374], rel=1e-10)


def assert_oracle_levels(kind, l, k2, energies):
    # every level is a root of the shooting oracle, which integrates the
    # ODE and never calls series code; all families here are even
    spec = PotentialSpec.from_k2(PotentialKind(kind), l, k2)
    roots = shooting_match_table(spec, "even", energies)
    assert None not in roots
    assert roots == pytest.approx(energies, abs=1e-8)


@pytest.mark.parametrize("kind, l", [
    ("v1", 8.5),     # ground state once failed row 0 by 2.4e-3
    ("v2", 12.6),    # row 0 off by 71; 500 coefficients miss the tail
])
def test_eigenfunction_infinite_ground_level_at_large_l(capsys, kind, l):
    code, out, err = run_cli(capsys, "eigenfunction", "--potential", kind,
                             "--l", str(l), "--k2", "0.9", "--family",
                             "ring1", "--index", "0", "--format", "json")
    assert code == 0 and err == ""
    assert_oracle_levels(kind, l, 0.9, [json.loads(out)["energy"]])


def test_spectrum_infinite_top_level_at_moderate_k2(capsys):
    # the top level 86.4298 once failed row 0 by 8.3e-5
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                             "--l", "2.3", "--k2", "0.5", "--family", "ring5",
                             "--max-energies", "6")
    assert code == 0 and err == ""
    energies = json.loads(out)["energies"]
    assert len(energies) == 6
    assert energies[-1] == pytest.approx(86.4298025526, abs=1e-8)
    assert_oracle_levels("v1", 2.3, 0.5, energies)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenfunction_infinite_is_warning_clean(capsys):
    # half of 501 minimal-solution coefficients underflowed to 0 here,
    # and a tail ratio divided 0 by 0
    code, out, err = run_cli(capsys, "eigenfunction", "--potential", "v1",
                             "--l", "-3", "--k2", "0.05", "--family", "ring5",
                             "--index", "0")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 257


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("l, code", [("600", 0), ("800", 0), ("1000", 2),
                                     ("2000", 2), ("4000", 2)])
def test_spectrum_at_large_l_rescales_the_forward_pass(capsys, l, code):
    # the b_0 = 1 vectors reach 1e184 at l = 800; from l = 1000 a level's
    # vector passes 1.8e308 and no float64 holds it
    got, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                            "--l", l, "--k2", "0.5", "--family", "ring5")
    assert got == code
    if code == 0:
        meta = json.loads(out)["meta"]
        assert err == "" and meta["real_count"] == meta["expected_count"]
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: coefficients b_0..b_")
        assert "with b_0 = 1 overflow float64" in err


def test_spectrum_two_sided_non_terminating_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                             "--l", "-0.3", "--k2", "0.5", "--family", "bold5")
    assert code == 2
    assert out == ""
    assert "two-sided" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("l, index, bad", [("700", "350", 33),
                                           ("800", "400", 87)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eigenfunction_overflow_is_domain_error(capsys, l, index, bad, fmt):
    code, out, err = run_cli(capsys, "eigenfunction", "--potential", "v1",
                             "--l", l, "--k2", "0.5", "--family", "ring5",
                             "--index", index, "--format", fmt)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: eigenfunction of family ring5")
    assert f"not finite in float64 at {bad} of 256 point(s)" in err


def test_eigenfunction_text_format(capsys):
    code, out, _ = run_cli(capsys, "eigenfunction", "--potential", "v1",
                           "--l", "2", "--k2", "0.5", "--family", "ring5",
                           "--index", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# u psi"
    assert len(lines) == 257
    first_u = float(lines[1].split()[0])
    assert first_u == 0.0
    for line in lines[1:]:
        assert len(line.split()) == 2


def test_eigenfunction_v2_grid_avoids_wall(capsys):
    code, out, _ = run_cli(capsys, "eigenfunction", "--potential", "v2",
                           "--l", "0", "--k2", "0.5", "--family", "ring5")
    assert code == 0
    first_u = float(out.splitlines()[1].split()[0])
    assert first_u > 0.0


def test_eigenfunction_json_payload(capsys):
    code, out, _ = run_cli(capsys, "eigenfunction", "--potential", "v1",
                           "--l", "2", "--k2", "0.5", "--family", "ring5",
                           "--index", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("eigenfunction"))
    assert payload["index"] == 1
    assert payload["energy"] == pytest.approx(RING5_V1_L2_E[1], rel=1e-12)
    assert len(payload["samples"]) == 256


def test_eigenfunction_index_out_of_range(capsys):
    code, out, err = run_cli(capsys, "eigenfunction", "--potential", "v1",
                             "--l", "2", "--k2", "0.5", "--family", "ring5",
                             "--index", "7")
    assert code == 3
    assert out == ""
    assert "out of range" in err


def test_eigenfunction_negative_index_out_of_range(capsys):
    # the non-terminating branch shares the finite branch's range check
    code, out, err = run_cli(capsys, "eigenfunction", "--potential", "v1",
                             "--l", "-3", "--k2", "0.5", "--family", "ring5",
                             "--index", "-1")
    assert code == 3
    assert out == ""
    assert "out of range" in err


def test_verify_passes_and_validates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--potential", "v1",
                           "--l", "-1.5", "--k2", "0.5", "--family", "bold5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    assert payload["all_passed"] is True
    kinds = {c["kind"] for c in payload["checks"]}
    assert kinds == {"residual", "oracle", "equivalence"}
    skipped = [c for c in payload["checks"] if c.get("skipped")]
    assert skipped and "kink" in skipped[0]["note"]


def test_verify_detects_detuned_energy(capsys):
    code, out, _ = run_cli(capsys, "verify", "--potential", "v1",
                           "--l", "2", "--k2", "0.5", "--family", "ring5",
                           "--energy-override", "-9.30")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert all(c["kind"] == "residual" for c in payload["checks"])


def test_sweep_csv_exact_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--potential", "v1",
                           "--l", "-1.5", "--family", "bold5",
                           "--k2-list", "0.25,0.5,0.75")
    assert code == 0
    assert out.splitlines() == [
        "k2,l,family,index,energy",
        "0.25,-1.5,bold5,0,-0.9375",
        "0.5,-1.5,bold5,0,-1.375",
        "0.75,-1.5,bold5,0,-1.8125",
    ]


def test_sweep_range_matches_list(capsys):
    _, out_range, _ = run_cli(capsys, "sweep", "--potential", "v1",
                              "--l", "-1.5", "--family", "bold5",
                              "--k2-range", "0.25:0.75:3")
    _, out_list, _ = run_cli(capsys, "sweep", "--potential", "v1",
                             "--l", "-1.5", "--family", "bold5",
                             "--k2-list", "0.25,0.5,0.75")
    assert out_range == out_list


def test_sweep_consistent_with_spectrum(capsys):
    _, out_sweep, _ = run_cli(capsys, "sweep", "--potential", "v2",
                              "--l", "3", "--family", "ring7",
                              "--k2-list", "0.5")
    rows = [line.split(",") for line in out_sweep.splitlines()[1:]]
    _, out_spec, _ = run_cli(capsys, "spectrum", "--potential", "v2",
                             "--l", "3", "--k2", "0.5", "--family", "ring7")
    energies = json.loads(out_spec)["energies"]
    assert len(rows) == len(energies) == 2
    for row, E in zip(rows, energies):
        assert float(row[4]) == pytest.approx(E, rel=1e-14)


def test_sweep_without_values_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--potential", "v1",
                             "--l", "-1.5", "--family", "bold5")
    assert code == 2
    assert out == ""
    assert "nonempty" in err


def test_byte_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["spectrum", "--potential", "v2", "--l", "3",
                     "--k2", "0.5", "--family", "ring7",
                     "--output", str(p)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "v1", "--l", "2", "--k2", "1.5",
     "--family", "ring5"],
    ["spectrum", "--potential", "v1", "--l", "2", "--k2", "0.5",
     "--family", "blob9"],
    ["spectrum", "--potential", "v2", "--l", "2", "--k2", "0.5",
     "--family", "bold5"],
    ["sweep", "--potential", "v1", "--l", "-3", "--family", "ring5",
     "--k2-list", "abc"],
    ["sweep", "--potential", "v1", "--l", "-3", "--family", "ring5",
     "--k2-range", "0.2:0.5:x"],
    ["spectrum", "--potential", "v1", "--l", "-3", "--k2", "0.5",
     "--family", "ring5", "--max-energies", "-1"],
    ["spectrum", "--potential", "v1", "--l", "nan", "--k2", "0.5",
     "--family", "ring5"],
    ["spectrum", "--potential", "v1", "--l", "inf", "--k2", "0.5",
     "--family", "ring5"],
    ["verify", "--potential", "v1", "--l", "-3", "--k2", "0.5",
     "--family", "bold5"],
    ["verify", "--potential", "v1", "--l", "-3", "--k2", "0.5",
     "--family", "ring5"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_section_order_past_cap_exits_2_without_allocating(capsys):
    # the start order here is N = 6.9e10: the cap must be checked before
    # any array of that length is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "spectrum", "--potential", "v1",
                                 "--l", "-3", "--k2", "0.999999999",
                                 "--family", "ring5", "--max-energies", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "passes cap 1048576" in err
    assert peak < 10_000_000


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "v1", "--l", "1e20", "--k2", "0.5",
     "--family", "ring5"],
    ["spectrum", "--potential", "v1", "--l", "1e8", "--k2", "0.5",
     "--family", "ring5"],
    ["eigenfunction", "--potential", "v1", "--l", "1e20", "--k2", "0.5",
     "--family", "ring5"],
    ["sweep", "--potential", "v1", "--l", "1e20", "--k2-list", "0.5",
     "--family", "ring5"],
    ["verify", "--potential", "v1", "--l", "1e20", "--k2", "0.5"],
    ["verify", "--potential", "v1", "--l", "1e20", "--k2", "0.5",
     "--family", "ring5", "--energy-override", "1"],
])
def test_terminating_order_past_cap_exits_2_without_allocating(capsys, argv):
    # ring5 terminates at order N = l/2 here, far past the section cap:
    # the order is refused before any array of that length is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: family ring5 terminates at order N = ")
    assert "passes cap 1048576" in err
    assert peak < 10_000_000


@pytest.mark.parametrize("command,k2,message", [
    ("spectrum", "1e-320", "1/k2 overflows"),
    ("spectrum", "5e-324", "1/k2 overflows"),
    ("verify", "1e-320", "1/k2 overflows"),
    ("verify", "5e-324", "1/k2 overflows"),
    ("spectrum", "1e-308", "section entries overflow"),
    ("verify", "1e-308", "section entries overflow"),
])
def test_tiny_k2_is_domain_error(capsys, command, k2, message):
    argv = [command, "--potential", "v1", "--l", "2", "--k2", k2]
    if command == "spectrum":
        argv += ["--family", "ring5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", ["nan", "inf", "=-inf"])
def test_non_finite_energy_override_is_domain_error(capsys, value):
    flag = "--energy-override" + ("" if value.startswith("=") else " ")
    code, out, err = run_cli(capsys, "verify", "--potential", "v1",
                             "--l", "2", "--k2", "0.5",
                             *(flag + value).split(" "))
    assert code == 2 and out == ""
    assert err.startswith("error: --energy-override must be finite")


def test_cli_imports_no_private_names():
    # the command line uses only the public API of the other modules
    tree = ast.parse(open(heunspec.cli.__file__).read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("heunspec"):
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            assert dunder or not name.startswith("_"), \
                f"cli imports {name} from {node.module}"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heunspec.cli", "spectrum",
         "--potential", "v1", "--l", "-1.5", "--k2", "0.5",
         "--family", "bold5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["energies"] == pytest.approx([-1.375])
