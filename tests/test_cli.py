"""Command line interface: payloads, formats, determinism, exit codes."""

import ast
import importlib.resources
import json
import math
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

import heunspec.cli
import heunspec.shooting
import heunspec.spectrum
import heunspec.verify
from heunspec.cli import main
from heunspec.heun_core import ExpansionFamily, PotentialKind, PotentialSpec
from heunspec.shooting import shooting_match_table
from heunspec.verify import RESIDUAL_TOL, verify_checks

RING5_V1_L2_E = [-9.316624790355399849115, -2.683375209644600150885]
CF_L3_E0 = 2.428437037356383979258
CF_L3_E1 = 11.03026053382834296563


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Runs each argv (a JSON list of argument lists, sys.argv[1]) through
# main in one fresh interpreter and prints, as JSON, which WATCHED
# modules the import loaded and, per call, the exit code, stdout,
# stderr and the WATCHED modules loaded by then.
FRESH_RUNNER = """
import contextlib, io, json, sys
from heunspec.cli import main
WATCHED = ("scipy", "scipy.linalg", "scipy.integrate", "scipy.optimize",
           "heunspec.shooting")
runs = [{"loaded": [m for m in WATCHED if m in sys.modules]}]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                 "loaded": [m for m in WATCHED if m in sys.modules]})
print(json.dumps(runs))
"""


def run_fresh(*argvs):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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


@pytest.mark.parametrize("kind,l,k2,sel,expected", [
    # -2.5 + 3.25 k2 -+ sqrt(1 - 9 k2 + 9 k2^2): a real pair at k2 = 0.9
    ("v2", "-0.5", "0.9", "bar5",
     [0.425 - math.sqrt(0.19), 0.425 + math.sqrt(0.19)]),
    ("v1", "0", "0.5", "ring5", [-1.0]),
    ("v2", "0", "0.5", "ring5", [-2.0]),
])
def test_spectrum_closed_forms_of_each_kind(capsys, kind, l, k2, sel,
                                            expected):
    # the closed forms that test_spectrum_closed_form_block does not
    # reach: the real two-term pair of v2 and the one-term power levels
    code, out, _ = run_cli(capsys, "spectrum", "--potential", kind,
                           "--l", l, "--k2", k2, "--family", sel)
    assert code == 0
    block = json.loads(out)["closed_form_match"]
    assert block["expected"] == pytest.approx(expected, rel=1e-15)
    assert block["count_matches"] is True
    assert block["max_abs_diff"] < 1e-14


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polish_tests_signs_without_products(capsys):
    # at k2 = 1e-200 the continuant's values pass 1e154, and the product
    # of two of them, once the bracket and side tests of the polish,
    # overflowed; comparing signs gives the same levels without a warning
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v2",
                             "--l=2", "--k2", "1e-200", "--family", "bar5")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "arscott_ok": False, "closed_form_match": None,
        "degenerate_pairs": [], "energies": [-16.0, -4.0],
        "family": "bar5", "k2": 1e-200, "l": 2.0,
        "meta": {"expected_count": 2, "real_count": 2, "version": "0.1.0",
                 "window": None},
        "potential": "v2", "truncation_N": 1}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind,l,k2,family", [("v1", "2.5", "1e-200", "ring5"),
                                              ("v2", "2", "1e-300", "bar5")])
def test_tiny_k2_spectrum_is_warning_clean(capsys, kind, l, k2, family):
    # the continuant's D_N and D'_N passed float64 in their cast, and the
    # polish divided inf by inf; they now shrink by a power of two first
    code, out, err = run_cli(capsys, "spectrum", "--potential", kind,
                             f"--l={l}", "--k2", k2, "--family", family)
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_eigenfunction_negative_index_out_of_range(capsys, monkeypatch):
    # a negative index is out of range in the finite (l = 2) and the
    # non-terminating (l = -3) branch alike, before any level is solved
    def no_solve(*args):
        raise AssertionError("a solver ran")
    monkeypatch.setattr(heunspec.cli, "family_levels", no_solve)
    for l in ("2", "-3"):
        code, out, err = run_cli(capsys, "eigenfunction", "--potential",
                                 "v1", "--l", l, "--k2", "0.5", "--family",
                                 "ring5", "--index", "-1")
        assert code == 3
        assert out == ""
        assert err == "index -1 out of range: level indices start at 0\n"


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
    # both bar spectra are complex pairs here: the partner checks pass
    # with value 0.0 and say why
    code, out, _ = run_cli(capsys, "verify", "--potential", "v2",
                           "--l", "-0.5", "--k2", "0.5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    assert [(c["kind"], c["value"], c["note"]) for c in payload["checks"]] \
        == [("equivalence", 0.0, "both spectra empty of real roots")] * 2


@pytest.mark.parametrize("kind,l", [("v1", "-3"), ("v2", "0.3")])
def test_verify_without_a_terminating_family(capsys, kind, l):
    # no family terminates: verify compares the lowest ring5 level of the
    # infinite series with the ring1 series at the same energy
    code, out, _ = run_cli(capsys, "verify", "--potential", kind,
                           f"--l={l}", "--k2", "0.5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    [check] = payload["checks"]
    assert check["kind"] == "equivalence"
    assert "ring1 vs ring5 infinite" in check["name"]
    assert check["passed"] is True
    assert check["value"] <= 1e-12


@pytest.mark.parametrize("kind,l,value", [
    ("v1", "-2.5", None), ("v2", "-2.5", None),
    ("v1", "-2.4", 1.1e-16), ("v2", "-2.4", 5.6e-16)])
def test_verify_skips_the_self_comparison_at_l_minus_five_halves(
        capsys, kind, l, value):
    # at l = -5/2 = -l - 5 ring1 and ring5 are one series, with alpha and
    # beta swapped: their comparison is skipped, with a note; next to it,
    # at l = -2.4, it runs
    code, out, _ = run_cli(capsys, "verify", "--potential", kind,
                           f"--l={l}", "--k2", "0.5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    assert payload["all_passed"] is True
    [check] = payload["checks"]
    assert check["kind"] == "equivalence"
    assert "ring1 vs ring5 infinite" in check["name"]
    if value is None:
        assert check["skipped"] is True and "one series" in check["note"]
        assert "passed" not in check and "value" not in check
    else:
        assert check["passed"] is True and "skipped" not in check
        assert 0.0 < check["value"] <= 10.0 * value


def test_verify_non_finite_value_fails_as_null(capsys, monkeypatch):
    # a check passes only on a finite value below its tolerance, and a
    # value that is not finite is written as null, never as NaN
    monkeypatch.setattr(heunspec.verify, "ode_residual",
                        lambda sols: [math.nan] * len(sols))
    code, out, _ = run_cli(capsys, *VERIFY_RING)
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    residuals = [c for c in payload["checks"] if c["kind"] == "residual"]
    assert len(residuals) == 2
    assert all(c["value"] is None and c["passed"] is False
               for c in residuals)
    assert payload["all_passed"] is False


def test_verify_shares_one_oracle_store_and_keeps_none(capsys, monkeypatch):
    # the matches of both power families run in one store of mesh step
    # polynomials, and nothing of it outlives the command
    stores = []
    match = heunspec.shooting.shooting_match_table
    monkeypatch.setattr(heunspec.shooting, "shooting_match_table",
                        lambda *args: stores.append(
                            heunspec.shooting._meshes.get()) or match(*args))
    code, _, _ = run_cli(capsys, "verify", "--potential", "v1", "--l", "4",
                         "--k2", "0.5")
    assert code == 0
    assert len(stores) == 2 and stores[0] is stores[1] is not None
    assert heunspec.shooting._meshes.get() is None


@pytest.mark.parametrize("extra,family,energy", [
    ([], None, None),
    (["--family", "ring5"], "ring5", None),
    (["--family", "ring5", "--energy-override", "-9.3"], "ring5", -9.3),
])
def test_verify_prints_the_library_checks(capsys, extra, family, energy):
    # verify prints exactly the list heunspec.verify.verify_checks returns
    _, out, _ = run_cli(capsys, "verify", "--potential", "v1", "--l", "2",
                        "--k2", "0.5", *extra)
    spec = PotentialSpec.from_k2(PotentialKind.V1, 2.0, 0.5)
    fam = None if family is None else ExpansionFamily.from_selector(family)
    assert json.loads(out)["checks"] == verify_checks(spec, fam, energy)


def _verify_summary(capsys, kind, l):
    """Exit code, numbers of residual, oracle and skipped oracle checks,
    and the sorted residual energies of verify at k2 = 0.5."""
    code, out, _ = run_cli(capsys, "verify", "--potential", kind,
                           "--l", l, "--k2", "0.5")
    checks = json.loads(out)["checks"]
    counts = [sum(c["kind"] == "residual" for c in checks),
              sum(c["kind"] == "oracle" and not c.get("skipped")
                  for c in checks),
              sum(bool(c.get("skipped")) for c in checks)]
    energies = sorted(float(c["name"].split("(E=")[1][:-1]) for c in checks
                      if c["kind"] == "residual")
    return code, counts, energies


@pytest.mark.parametrize("kind,l,mirror", [("v1", "3", "-8"),
                                           ("v1", "0.5", "-5.5"),
                                           ("v2", "2", "-7")])
def test_verify_checks_the_same_levels_at_the_mirror_l(capsys, kind, l,
                                                       mirror):
    # l and -l - 5 give the same potential; verify once checked no level
    # at l <= -7/2, where only the index-1/2/3 families terminate
    code, counts, energies = _verify_summary(capsys, kind, l)
    code_m, counts_m, energies_m = _verify_summary(capsys, kind, mirror)
    assert (code_m, counts_m) == (code, counts)
    assert counts[0] > 0
    assert all(abs(a - b) <= 1e-9 * max(1.0, abs(a))
               for a, b in zip(energies, energies_m))


def test_verify_detects_detuned_energy(capsys):
    code, out, _ = run_cli(capsys, "verify", "--potential", "v1",
                           "--l", "2", "--k2", "0.5", "--family", "ring5",
                           "--energy-override", "-9.30")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert all(c["kind"] == "residual" for c in payload["checks"])


def test_verify_two_sided_residuals_at_integer_l(capsys):
    # every bar5/bar7 kernel at integer l is single-piece and is summed
    # from the 1 - z connection above z = 1/2; summed directly up to
    # z = 0.97, bar5 levels 3-5 and bar7 levels 3-4 failed here with
    # residuals of 3.0e-7 to 4.2e-6
    _, out, _ = run_cli(capsys, "verify", "--potential", "v2",
                        "--l", "10", "--k2", "0.75")
    residuals = {c["name"].split(" (")[0]: c["value"]
                 for c in json.loads(out)["checks"] if c["kind"] == "residual"}
    bar = {name: value for name, value in residuals.items()
           if name.split()[1] in ("bar5", "bar7")}
    assert len(bar) == 11
    assert max(bar.values()) < RESIDUAL_TOL, bar


def test_verify_passes_at_l8_k2_08(capsys):
    # bar5 levels 3 and 4 failed their residual check here (1.1e-7 and
    # 3.2e-7) while their kernels were summed directly up to z = 0.97
    code, out, _ = run_cli(capsys, "verify", "--potential", "v2",
                           "--l", "8", "--k2", "0.8")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("l, k2, levels", [
    ("7.5", "0.8", ["bar5 level 6"]),
    ("8.5", "0.8", ["bar5 level 5", "bar7 level 6"]),
    ("9.5", "0.8", ["bar7 level 5"]),
    ("11.5", "0.5", ["bar5 level 5"]),
    ("11.5", "0.8", ["bar5 level 4"]),
])
def test_verify_residuals_at_high_half_odd_l(capsys, l, k2, levels):
    # the two-piece kernel rows here are summed directly and cancel;
    # these residuals (3.3e-8 to 8.3e-8) rose to 1.1e-7 to 3.2e-7 when
    # every early term of a row was rounded on its own rather than
    # formed from the last one
    _, out, _ = run_cli(capsys, "verify", "--potential", "v2",
                        "--l", l, "--k2", k2)
    residuals = {c["name"].split(" (")[0]: c["value"]
                 for c in json.loads(out)["checks"] if c["kind"] == "residual"}
    for level in levels:
        assert residuals["residual " + level] < RESIDUAL_TOL, level


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
    # a one-value range is its lower end
    _, out_range, _ = run_cli(capsys, "sweep", "--potential", "v1",
                              "--l", "-1.5", "--family", "bold5",
                              "--k2-range", "0.3:0.9:1")
    _, out_list, _ = run_cli(capsys, "sweep", "--potential", "v1",
                             "--l", "-1.5", "--family", "bold5",
                             "--k2-list", "0.3")
    assert out_range == out_list
    assert out_range.splitlines()[1:] == ["0.3,-1.5,bold5,0,-1.025"]


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


@pytest.mark.parametrize("k2_range,message", [
    ("0.2:0.5", "error: k2 range must be lo:hi:count\n"),
    ("0.2:0.5:0", "sweep needs a nonempty set of k2 values\n"),
])
def test_sweep_bad_range_is_usage_error(capsys, k2_range, message):
    code, out, err = run_cli(capsys, "sweep", "--potential", "v1", "--l",
                             "-3", "--family", "ring5", "--k2-range", k2_range)
    assert (code, out, err) == (2, "", message)


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
    ["sweep", "--potential", "v1", "--l", "2", "--family", "ring5",
     "--k2-list", "0.25,0.5", "--k2-range", "0.1:0.2:3"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_max_energies_only_where_it_is_read(capsys):
    # eigenfunction and verify never read --max-energies, so argparse
    # refuses it there; spectrum and sweep still check its sign
    for argv in (["eigenfunction", "--potential", "v1", "--l", "2", "--k2",
                  "0.5", "--family", "ring5"],
                 ["verify", "--potential", "v1", "--l", "2", "--k2", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-energies", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-energies 2" in captured.err
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1", "--l",
                             "-3", "--k2", "0.5", "--family", "ring5",
                             "--max-energies", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --max-energies must be nonnegative, got -1\n"


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


def test_lapack_failure_exits_2(capsys, monkeypatch):
    # a symmetric section solve whose LAPACK routine reports a nonzero
    # info is a ConvergenceError: one error line and exit 2, no traceback
    class StubLapack:
        def dstevd(self, d, e, compute_v):
            return d, None, 1

    monkeypatch.setattr(heunspec.spectrum, "_flapack", StubLapack())
    code, out, err = run_cli(capsys, "spectrum", "--potential", "v1", "--l",
                             "6", "--k2", "0.5", "--family", "ring5")
    assert (code, out) == (2, "")
    assert err == ("error: LAPACK dstevd failed on a section of order "
                   "N = 3: info = 1\n")


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


def _hostile_argv(command, kind, l, *extra):
    argv = [command, "--potential", kind, f"--l={l}"]
    argv += ["--k2-list" if command == "sweep" else "--k2", "0.5"]
    if command != "verify":
        argv += ["--family", "ring5"]
    return argv + list(extra)


# (l, a phrase of the error): past l = 1.3407807929942596e154 the
# coupling (l + 2)(l + 3) overflows float64; at that l it still fits and
# ring5 terminates at an order past the section cap
HOSTILE_L = (("1e300", "(l + 2)(l + 3) overflows at l = 1e+300"),
             ("-1e300", "(l + 2)(l + 3) overflows at l = -1e+300"),
             ("1.3407807929942597e154", "(l + 2)(l + 3) overflows"),
             ("1.3407807929942596e154", "passes cap 1048576"))
COMMANDS = ("spectrum", "eigenfunction", "verify", "sweep")
# finite sections of order N = 1000002 that fail the sign condition stop
# at the dense solver's cap before an (N + 1)^2 matrix is allocated; at
# l = 1e154 the entries of ring1's section overflow, although k2 = 0.5
HOSTILE_SECTIONS = (
    (["spectrum", "--potential", "v2", "--l", "1000000.5", "--k2", "0.5",
      "--family", "bar5"], "N = 1000002 fails alpha_(n-1) gamma_n > 0"),
    (["spectrum", "--potential", "v1", "--l", "1000000.5", "--k2", "0.5",
      "--family", "bold5"], "N passes cap 2000"),
    (["spectrum", "--potential", "v1", "--l=1e154", "--k2", "0.5",
      "--family", "ring1"], "overflow float64 at l = 1e+154, k2 = 0.5"),
)
# Gamma of a kernel argument past 142 overflows the Lanczos form; at
# l = 1e20 and 1e60 the two-sided recursion leaves float64; a k2 near 1
# puts the singular point a = 1/k2 within 1e-14 of x = 1
NEAR_ONE = "0.999999999999999"
NEAR_ONE_ERROR = f"k2 = {NEAR_ONE} puts a = 1/k2 within 1e-14 of x = 1"
HOSTILE_RANGES = (
    (["eigenfunction", "--potential", "v1", "--l", "139.5", "--k2", "0.5",
      "--family", "bold5"], "gamma at x = 142.5"),
    (["eigenfunction", "--potential", "v1", "--l", "138.5", "--k2", "0.5",
      "--family", "bold6"], "gamma at x = 142.5"),
    (["spectrum", "--potential", "v1", "--l=1e20", "--k2", "0.5",
      "--family", "ring1"], "recursion of family ring1 overflows or "
     "underflows float64 at E = -5e+39, l = 1e+20"),
    (["spectrum", "--potential", "v1", "--l=1e60", "--k2", "0.5",
      "--family", "ring1"], "recursion of family ring1 overflows or "
     "underflows float64 at E = -4.999999999999999e+119, l = 1e+60"),
    *[(["spectrum", "--potential", "v1", "--l", "2", "--k2", NEAR_ONE,
        "--family", family], NEAR_ONE_ERROR)
      for family in ("ring5", "bold5")],
    (["sweep", "--potential", "v1", "--l", "2", "--k2-list",
      f"0.5,{NEAR_ONE}", "--family", "ring5"], NEAR_ONE_ERROR),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,message", [
    *[(_hostile_argv(command, kind, l), message) for command in COMMANDS
      for kind in ("v1", "v2") for l, message in HOSTILE_L],
    *[(_hostile_argv(command, "v1", "2", "--output", target),
       "cannot write output to ") for command in COMMANDS
      for target in ("MISSING", "DIR")],
    *HOSTILE_SECTIONS,
    *HOSTILE_RANGES,
])
def test_hostile_inputs_exit_2_with_one_error_line(capsys, tmp_path, argv,
                                                    message):
    # a huge |l|, a huge non-symmetric section or an --output that cannot
    # be written ends in a typed error, never a traceback or a warning
    targets = {"MISSING": str(tmp_path / "missing" / "out.txt"),
               "DIR": str(tmp_path)}
    argv = [targets.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    if "--output" in argv:
        assert err.startswith(f"error: cannot write output to {argv[-1]}: ")


def test_k2_just_outside_the_a_guard_answers(capsys):
    # a = 1/k2 lies 1e-13 from x = 1, outside the 1e-14 guard
    code, out, _ = run_cli(capsys, "spectrum", "--potential", "v1", "--l",
                           "2", "--k2", "0.9999999999999", "--family",
                           "ring5")
    assert code == 0 and len(json.loads(out)["energies"]) == 2


@pytest.mark.parametrize("kind,l,family", [("v1", "2", "ring5"),
                                           ("v2", "5.5", "bar7")])
def test_energy_override_builds_the_solvers_solution(capsys, kind, l, family):
    # at each level the unchecked override path must evaluate the same
    # series as the checked one, prefactor included (bar7 at half-odd l
    # takes the Euler-shifted one), so both residuals agree to the bit
    common = ["--potential", kind, "--l", l, "--k2", "0.5",
              "--family", family]
    _, out, _ = run_cli(capsys, "spectrum", *common)
    energies = json.loads(out)["energies"]
    _, out, _ = run_cli(capsys, "verify", *common)
    solved = [c["value"] for c in json.loads(out)["checks"]
              if c["kind"] == "residual"]
    assert len(energies) == len(solved) > 1
    for E, value in zip(energies, solved):
        _, out, _ = run_cli(capsys, "verify", *common,
                            f"--energy-override={E!r}")
        [check] = json.loads(out)["checks"]
        assert check["kind"] == "residual"
        assert check["value"] == value, E


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


# the only names the command line takes from the solver modules: its
# subcommands print what these compute and decide nothing themselves
CLI_SOLVER_IMPORTS = {"heunspec.spectrum": {"family_levels"},
                      "heunspec.series_engine": {"evaluate_grid"}}


def test_cli_imports_one_entry_per_solver_module():
    tree = ast.parse(open(heunspec.cli.__file__).read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("heunspec." if node.level else "") + (node.module or "")
            imported.setdefault(module, set()).update(
                alias.name for alias in node.names)
    for module, allowed in CLI_SOLVER_IMPORTS.items():
        assert imported.get(module, set()) <= allowed, module


SPECTRUM_CF = ["spectrum", "--potential", "v1", "--l", "-3", "--k2", "0.5",
               "--family", "ring5"]
EIGEN_JSON = ["eigenfunction", "--potential", "v1", "--l", "2", "--k2", "0.5",
              "--family", "ring5", "--index", "1", "--format", "json"]
VERIFY_RING = ["verify", "--potential", "v1", "--l", "2", "--k2", "0.5",
               "--family", "ring5"]


SPECTRUM_NONSYM = ["spectrum", "--potential", "v2", "--l", "2.5", "--k2",
                   "0.5", "--family", "bar5"]


SWEEP_CF = ["sweep", "--potential", "v1", "--l", "-3", "--family", "ring5",
            "--k2-list", "0.4,0.6"]


def test_only_verify_loads_the_oracle():
    # spectrum, eigenfunction and sweep need no oracle, and a section
    # without the sign condition (here one with a complex pair) polishes
    # its levels with numpy alone, so they load neither scipy.optimize
    # nor scipy.integrate; the oracle integrates with numpy alone, so
    # verify never loads scipy.integrate either; the symmetric section
    # solve loads scipy's LAPACK extension by file, so no command loads
    # scipy or scipy.linalg
    runs = run_fresh(SPECTRUM_NONSYM, SPECTRUM_CF, EIGEN_JSON, SWEEP_CF,
                     VERIFY_RING)
    assert [r["loaded"] for r in runs[:5]] == [[], [], [], [], []]
    assert [r["code"] for r in runs[1:]] == [0, 0, 0, 0, 0]
    assert '"expected_count": 5' in runs[1]["out"]
    assert '"real_count": 3' in runs[1]["out"]
    assert runs[4]["out"].startswith("k2,l,family,index,energy\n")
    assert runs[4]["out"].count("\n") == 9
    assert runs[5]["loaded"] == ["heunspec.shooting"]


def test_parser_reuse_matches_fresh_processes(capsys):
    # the parser is built once per process: no call may see state left
    # by the one before, usage errors (argparse's and main's) included
    argvs = [SPECTRUM_CF,
             ["spectrum", "--potential", "v1", "--l", "2", "--k2", "1.5",
              "--family", "ring5"],
             ["spectrum", "--potential", "v3", "--l", "2", "--k2", "0.5",
              "--family", "ring5"],
             EIGEN_JSON, VERIFY_RING]
    together = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err))
    alone = [(r["code"], r["out"], r["err"])
             for argv in argvs for r in run_fresh(argv)[1:]]
    assert together == alone
    assert [code for code, _, _ in together] == [0, 2, 2, 0, 0]


@pytest.mark.parametrize("argv,exit_code", [
    (SPECTRUM_CF, 0),
    (EIGEN_JSON, 0),
    (["verify", "--potential", "v1", "--l", "-1.5", "--k2", "0.5",
      "--family", "bold5"], 0),
    (["verify", "--potential", "v1", "--l", "2", "--k2", "0.5",
      "--family", "ring5", "--energy-override", "-9.30"], 1),
])
def test_json_dump_matches_indented_encoder(capsys, argv, exit_code):
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    payload = json.loads(out)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert heunspec.cli._json_dump(payload) == expected == out


def test_json_dump_matches_indented_encoder_on_special_floats():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
              5e-324, 0.1, -2.5]
    pairs = [[u, v] for u, v in zip(values, reversed(values))]
    for samples in (pairs, pairs[:1], []):
        payload = {"potential": "v1", "l": 2.0, "k2": 0.5,
                   "family": "ring5", "index": 0, "energy": -9.3,
                   "samples": samples,
                   "meta": {"version": "0.1.0", "points": len(samples)}}
        assert heunspec.cli._json_dump(payload) == \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heunspec.cli", "spectrum",
         "--potential", "v1", "--l", "-1.5", "--k2", "0.5",
         "--family", "bold5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["energies"] == pytest.approx([-1.375])
