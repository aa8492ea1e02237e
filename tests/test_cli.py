from __future__ import annotations

import json
import math
import struct

import pytest

import defosc.scheme
from defosc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# --- document shape and value rendering --------------------------------------


def test_numbers_json_document(capsys):
    code, doc, err = run_json(capsys, "numbers", "boson", "--n-max", "4")
    assert code == 0
    assert err == ""
    assert set(doc) == {"tool_version", "command", "scheme", "params", "results", "diagnostics"}
    assert doc["command"] == "numbers"
    assert doc["scheme"] == "boson"
    assert doc["params"] == {"n_max": 4, "log_factorial": False}
    assert doc["results"]["phi"] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert doc["results"]["phi_factorial"] == [1.0, 1.0, 2.0, 6.0, 24.0]
    assert doc["results"]["nonlinearity_f"][0] is None
    assert doc["results"]["nonlinearity_f"][1:] == [1.0, 1.0, 1.0, 1.0]


def test_numbers_pole_reported(capsys):
    code, doc, _ = run_json(capsys, "numbers", "tsallis:q=0.5", "--n-max", "5")
    assert code == 0
    assert doc["results"]["phi"][3] is None
    assert doc["diagnostics"]["pole_at"] == 3
    # the table shows the hole as '-'
    code, out, _ = run(capsys, "numbers", "tsallis:q=0.5", "--n-max", "5")
    assert code == 0
    assert "-" in out


def test_numbers_log_factorial_key(capsys):
    code, doc, _ = run_json(capsys, "numbers", "qosc:q=2", "--n-max", "6", "--log-factorial")
    assert code == 0
    assert "log_phi_factorial" in doc["results"]
    assert doc["results"]["log_phi_factorial"][2] == pytest.approx(math.log(3.0))


def test_nonfinite_floats_become_strings(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "boson", "--n-max", "3")
    assert code == 0
    assert doc["results"]["band_top"] == "inf"
    assert doc["results"]["band_width"] == "inf"


def test_table_carries_scheme_descriptor(capsys):
    code, out, _ = run(capsys, "spectrum", "tsallis:q=1.5")
    assert code == 0
    assert "[tsallis:q=1.5]" in out


def test_csv_spectrum(capsys):
    code, out, err = run(capsys, "spectrum", "boson", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,level,gap"
    assert lines[1].startswith("0,5.0000000000000000e-01,")
    # scalar results travel on stderr so the csv body stays rectangular
    summary = json.loads(err)
    assert summary["summary"]["band_top"] == "inf"


def test_out_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, "exp", "boson", "1.0", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["series_value"] == pytest.approx(math.e, rel=1e-12)


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "spectrum", "tsallis:q=1.5", "--format", "json")
    _, second, _ = run(capsys, "spectrum", "tsallis:q=1.5", "--format", "json")
    assert first == second


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    assert "defosc" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert main([]) == 2


# --- exp ----------------------------------------------------------------------


def test_exp_compares_series_to_closed_form(capsys):
    code, doc, _ = run_json(capsys, "exp", "tsallis:q=1.5", "0.5")
    assert code == 0
    r = doc["results"]
    assert r["abs_difference"] < 1e-10
    assert r["closed_value"] == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert doc["diagnostics"]["converged"] is True
    assert doc["diagnostics"]["terms_used"] > 0


def test_exp_outside_disk_is_domain_failure(capsys):
    code, out, err = run(capsys, "exp", "tsallis:q=1.5", "3.0")
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["error"] == "divergence-error"
    assert "radius" in msg["detail"]


def test_exp_policy_flags(capsys):
    code, out, err = run(capsys, "exp", "boson", "30.0", "--max-terms", "5")
    assert code == 2
    assert json.loads(err)["error"] == "divergence-error"


# --- scheme and argument validation --------------------------------------------


def test_bad_scheme_parameter_is_usage_error(capsys):
    code, out, err = run(capsys, "numbers", "tsallis:q=3")
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["error"] == "usage-error"
    assert "tsallis" in msg["detail"]


def test_unknown_scheme_lists_choices(capsys):
    code, _, err = run(capsys, "numbers", "gamma:q=1")
    assert code == 2
    assert "boson" in json.loads(err)["detail"]


def test_error_is_single_line_json(capsys):
    _, _, err = run(capsys, "numbers", "tsallis:q=3")
    assert err.count("\n") == 1
    json.loads(err)


def test_negative_n_max_rejected(capsys):
    code, _, err = run(capsys, "numbers", "boson", "--n-max", "-1")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


# --- coherent -------------------------------------------------------------------


def test_coherent_complex_alpha(capsys):
    code, doc, _ = run_json(capsys, "coherent", "tsallis:q=1.5", "0.3+0.4j", "--dim", "16")
    assert code == 0
    assert doc["params"]["alpha"] == {"re": 0.3, "im": 0.4}
    r = doc["results"]
    assert r["dim"] == 16
    assert r["eigen_residual"] < 1e-10
    assert any(v != 0.0 for v in r["vector_imag"])
    assert len(r["vector_real"]) == 16


def test_coherent_small_dim_rejected(capsys):
    code, _, err = run(capsys, "coherent", "boson", "0.5", "--dim", "3")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


def test_coherent_outside_disk(capsys):
    code, _, err = run(capsys, "coherent", "tsallis:q=2", "1.0")
    assert code == 2
    assert json.loads(err)["error"] == "domain-error"


def test_coherent_near_disk_edge_auto_dim(capsys):
    # fill 0.999 picks a cutoff of 39649; every step is linear in it
    code, doc, _ = run_json(capsys, "coherent", "tsallis:q=1.5", "1.4135")
    assert code == 0
    assert doc["results"]["dim"] == 39649
    assert doc["results"]["eigen_residual"] < 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["tsallis:q=1.5", repr(math.sqrt(2.0 * (1.0 - 1e-9)))],
        ["tsallis:q=1.5", "0.5", "--dim", "1000000000"],
    ],
)
def test_coherent_dim_cap(capsys, argv):
    code, out, err = run(capsys, "coherent", *argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "domain-error"
    assert "MAX_DIM = 100000" in doc["detail"] and "fill" in doc["detail"]


def test_coherent_bad_alpha(capsys):
    code, _, err = run(capsys, "coherent", "boson", "zebra")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


# --- derive ----------------------------------------------------------------------


def test_derive_tsallis_routes_through_quadrature(capsys):
    code, doc, _ = run_json(
        capsys, "derive", "tsallis:q=1.5", "--function", "monomial:3", "--x", "0.5,0.8"
    )
    assert code == 0
    assert doc["diagnostics"]["route"] == "quadrature"
    assert all(d < 1e-8 for d in doc["results"]["abs_difference"])


def test_derive_jackson_route_csv(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "qosc:q=0.5",
        "--function",
        "series:0;0;1",
        "--x",
        "2.0",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,numeric,reference,abs_difference"
    cells = lines[1].split(",")
    # x^2 -> [2]_q x = 1.5 * 2.0
    assert float(cells[1]) == pytest.approx(3.0, rel=1e-13)
    assert float(cells[3]) < 1e-12


def test_derive_boson_plain_route(capsys):
    code, doc, _ = run_json(capsys, "derive", "boson", "--function", "monomial:2", "--x", "1.5")
    assert code == 0
    assert doc["diagnostics"]["route"] == "plain"
    assert doc["results"]["numeric"][0] == pytest.approx(3.0, rel=1e-13)


def test_derive_eigenfunction_selector(capsys):
    code, doc, _ = run_json(
        capsys, "derive", "tsallis:q=2", "--function", "tsallis-exp:0.5", "--x", "0.5"
    )
    assert code == 0
    assert doc["results"]["numeric"][0] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_derive_rejects_unroutable_scheme(capsys):
    code, _, err = run(capsys, "derive", "mu:mu=0.3", "--function", "monomial:2", "--x", "1.0")
    assert code == 2
    assert "no numeric route" in json.loads(err)["detail"]


def test_derive_eigenfunction_needs_tsallis(capsys):
    code, _, err = run(capsys, "derive", "boson", "--function", "tsallis-exp:0.5", "--x", "1.0")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


def test_derive_x_zero_is_domain_error(capsys):
    code, _, err = run(capsys, "derive", "qosc:q=0.5", "--function", "monomial:2", "--x", "0.0")
    assert code == 2
    assert json.loads(err)["error"] == "domain-error"


def test_derive_bad_grid(capsys):
    code, _, err = run(capsys, "derive", "boson", "--function", "monomial:2", "--x", "1.0,zebra")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


# --- verify -----------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "series")
    assert code == 0
    assert doc["results"]["passed"] is True
    suite = doc["results"]["suites"][0]
    assert suite["suite"] == "series"
    assert all(c["passed"] for c in suite["cases"])
    assert all(c["max_residual"] <= c["tolerance"] for c in suite["cases"])


def test_verify_all_with_focus(capsys):
    code, out, _ = run(capsys, "verify", "all", "--scheme", "tsallis:q=1.75")
    assert code == 0
    assert "pass" in out
    assert "FAIL" not in out


def test_verify_csv_has_no_commas_in_payload(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,case,max_residual,tolerance,status"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert json.loads(err)["error"] == "usage-error"


def _flip_one_bit(fn):
    def wrapped(q, n):
        v = fn(q, n)
        if n == 2:
            (bits,) = struct.unpack("<Q", struct.pack("<d", v))
            (v,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << 30)))
        return v

    return wrapped


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # a single flipped mantissa bit (~1e-7 relative) in one bracket number
    # must be caught and must flip the exit code
    monkeypatch.setattr(
        defosc.scheme, "_tsallis_number", _flip_one_bit(defosc.scheme._tsallis_number)
    )
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    assert "FAIL" in out
