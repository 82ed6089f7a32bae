import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coherence_bounds import bounds, cli, correlations, states
from coherence_bounds.bounds import BoundReport
from coherence_bounds.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    parse_basis,
)
from coherence_bounds.errors import (
    DimensionError,
    DomainError,
    ParseError,
    ProbabilityError,
    UnsupportedDimension,
    ValidationError,
)
from coherence_bounds.linalg import hermitize
from coherence_bounds.measurement import pauli_basis
from coherence_bounds.states import DensityMatrix, random_unitary, save_state_file, werner

FIG1_HEADER = "p,lb_berta_coh,lb_pati_coh,lb_adabi_coh"
DATA = Path(__file__).resolve().parent.parent / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


def run(argv):
    return main(argv)


@pytest.mark.parametrize(
    "error", [DimensionError, DomainError, ProbabilityError, UnsupportedDimension]
)
def test_validation_errors_share_one_base(error):
    # main maps ValidationError to EXIT_VALIDATION, so every validation error must be one.
    assert issubclass(error, ValidationError)
    assert not issubclass(ParseError, ValidationError)


class TestParseBasis:
    def test_pauli_selectors(self):
        for which in (1, 2, 3):
            assert np.array_equal(parse_basis(f"sigma{which}").vectors, pauli_basis(which).vectors)

    def test_computational_selector(self):
        assert parse_basis("computational").dim == 2

    def test_bloch_selector(self):
        basis = parse_basis("bloch:1.5707963:0")
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_rejects_unknown_selectors(self):
        for sel in ("sigma4", "hadamard", "bloch:1", "bloch:a:b", ""):
            with pytest.raises(ParseError):
                parse_basis(sel)


class TestFigure:
    def test_figure1_shape_and_header(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["figure", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == FIG1_HEADER
        assert len(lines) == 102
        ps = [float(line.split(",")[0]) for line in lines[1:]]
        assert ps[0] == 0.0 and ps[-1] == 1.0
        assert ps == pytest.approx(list(np.linspace(0, 1, 101)), abs=1e-12)
        assert out.read_bytes() == (DATA / "figure1.csv").read_bytes()

    def test_figure_output_is_byte_identical_across_runs(self, tmp_path):
        # the committed data/ files are the reference bytes of every rerun
        for which in ("3", "4"):
            a, b = tmp_path / f"a{which}.csv", tmp_path / f"b{which}.csv"
            assert run(["figure", which, "--out", str(a)]) == EXIT_OK
            assert run(["figure", which, "--out", str(b)]) == EXIT_OK
            assert a.read_bytes() == b.read_bytes() == (DATA / f"figure{which}.csv").read_bytes()

    def test_figure2_endpoint_row(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["figure", "2", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p,ub_purity,ub_holevo,lhs_coherence"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(4.0, abs=1e-9)
        assert out.read_bytes() == (DATA / "figure2.csv").read_bytes()

    def test_steps_override(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["figure", "3", "--out", str(out), "--steps", "11"]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 12

    def test_single_step_grid_rejected(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["figure", "1", "--out", str(out), "--steps", "1"]) == EXIT_VALIDATION
        assert not out.exists()

    def test_step_count_above_the_cap_rejected(self, tmp_path, monkeypatch):
        # the grid is never allocated: the config is rejected as it is built
        out = tmp_path / "f.csv"
        grids = []
        monkeypatch.setattr(cli.SweepConfig, "grid", lambda self: grids.append(self))
        steps = str(cli._MAX_STEPS + 1)
        assert run(["figure", "2", "--out", str(out), "--steps", steps]) == EXIT_VALIDATION
        assert not out.exists() and not grids
        cli.SweepConfig("werner", "sigma1", "sigma3", (), (), steps=cli._MAX_STEPS)

    def test_inverted_grid_rejected(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = run(["figure", "1", "--out", str(out), "--pmin", "0.8", "--pmax", "0.2"])
        assert rc == EXIT_VALIDATION

    def test_unknown_figure_number_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["figure", "5", "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == EXIT_PARSE

    def test_unwritable_path(self):
        rc = run(["figure", "1", "--out", "/nonexistent-dir/f.csv"])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("which, searches", [(1, 101), (2, 0), (3, 0), (4, 0)])
    def test_only_a_figure_printing_a_j_a_field_searches(self, which, searches, monkeypatch):
        # figure 1 prints lb_theorem3; figures 2-4 print entropies alone
        calls = []
        search = correlations._maximize_holevo

        def counted(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(correlations, "_maximize_holevo", counted)
        cli.render_figure_csv(cli.FIGURES[which])
        assert len(calls) == searches

    @pytest.mark.parametrize("which", [2, 3, 4])
    def test_an_unsearched_sweep_scans_three_points_per_row(self, which, monkeypatch):
        # n = 0, n_X and n_Z; the 46 grid points only start the search. All
        # 101 rows share one stacked call, one objective per row, and each
        # point is a column for M_+ and one for M_-.
        calls = []
        model = correlations._QubitMemoryObjective
        block_spectra = model._block_spectra

        def recorded(objectives, coeffs):
            calls.append((len(objectives), coeffs.shape[1] // 2))
            return block_spectra(objectives, coeffs)

        monkeypatch.setattr(model, "_block_spectra", staticmethod(recorded))
        cli.render_figure_csv(cli.FIGURES[which])
        assert calls == [(cli.FIGURES[which].steps, 3)]

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_a_sweep_validates_no_row_and_solves_one_4x4_per_row(self, which, monkeypatch):
        # the families build on the trusted path; rho_AB is the only eigensolve
        validations, solves = [], []
        make_density = states.make_density

        def counted(*args):
            validations.append(1)
            return make_density(*args)

        monkeypatch.setattr(states, "make_density", counted)
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _name=name, _original=original, **kwargs):
                solves.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        cli.render_figure_csv(cli.FIGURES[which])
        assert validations == []
        assert solves == [("eigvalsh", (4, 4))] * cli.FIGURES[which].steps

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_a_sweep_computes_q_mu_once(self, which, monkeypatch):
        calls = []
        q_mu = bounds.incompatibility

        def counted(*args):
            calls.append(1)
            return q_mu(*args)

        monkeypatch.setattr(bounds, "incompatibility", counted)
        cli.render_figure_csv(cli.FIGURES[which])
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_not_written(self, value):
        # NaN is what an unsearched J_A field holds
        with pytest.raises(ValidationError, match="non-finite"):
            cli.format_value(value)


class TestEval:
    @pytest.fixture()
    def bell_file(self, tmp_path):
        path = tmp_path / "bell.txt"
        save_state_file(werner(1.0), path)
        return str(path)

    def test_bell_state_report(self, bell_file, capsys):
        assert run(["eval", "--state", bell_file, "--x", "sigma1", "--z", "sigma3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(BoundReport.__dataclass_fields__)
        assert payload["lhs_eur"] == pytest.approx(0.0, abs=1e-9)
        assert payload["eur_berta"] == pytest.approx(0.0, abs=1e-9)
        assert payload["q_mu"] == pytest.approx(1.0, abs=1e-9)
        assert payload["ub_purity"] == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("buffering", [-1, 1])
    def test_closed_stdout_is_not_an_error(self, bell_file, buffering, capsys, monkeypatch):
        # as under `| head`: the reader is gone before the report is written,
        # block-buffered (the write fails at the flush) or line-buffered (at print)
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", buffering=buffering, encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert run(["eval", "--state", bell_file, "--x", "sigma1", "--z", "sigma3"]) == EXIT_OK
            # Python flushes stdout once more at exit
            stdout.write("{}\n")
            stdout.flush()
        assert capsys.readouterr().err == ""

    def test_bloch_selectors_accepted(self, bell_file):
        rc = run(["eval", "--state", bell_file, "--x", "bloch:1.5707963267948966:0", "--z", "sigma3"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("selector", ["bloch:nan:0", "bloch:0:inf"])
    def test_non_finite_bloch_angles_are_a_parse_error(self, bell_file, capsys, selector):
        rc = run(["eval", "--state", bell_file, "--x", selector, "--z", "sigma3"])
        assert rc == EXIT_PARSE
        assert f"bloch angles must be finite, got {selector!r}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        rc = run(["eval", "--state", str(tmp_path / "gone.txt"), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_IO

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2 2\n0 0 what 0\n")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_invalid_state_names_broken_invariant(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("dims: 2 1\n0 0 0.5 0\n1 1 0.4 0\n")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_VALIDATION
        assert "trace" in capsys.readouterr().err

    def test_state_on_the_entropy_pass_trace_tolerance_is_a_validation_error(self, tmp_path, capsys):
        # Tr = 1 - 1e-9 lies outside TRACE_BOUNDARY_TOL, so the state file is
        # rejected on its trace instead of failing in the report's entropy pass
        path = tmp_path / "edge.txt"
        save_state_file(DensityMatrix(states.random_density(2, 3, 0).matrix * (1.0 - 1e-9), 2, 3), path)
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: trace: Tr = 0.99999999")

    def test_spectrum_the_entropies_reject_is_a_validation_error(self, tmp_path, capsys):
        # eigenvalues (-8e-10, -8e-10, 0.3, 0.7 + 1.6e-9): each clears the
        # eigenvalue floor, but the entropy pass would reject the spectrum
        u = random_unitary(4, 1)
        m = (u * np.array([-8e-10, -8e-10, 0.3, 0.7 + 1.6e-9])) @ u.conj().T
        path = tmp_path / "edge.txt"
        save_state_file(DensityMatrix(hermitize(m), 2, 2), path)
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: support: the eigenvalues of at least 1e-12")

    def test_marginal_that_measuring_a_rejects_is_a_validation_error(self, tmp_path, capsys):
        # diag(-9e-10, 0, 0, 1) clears the eigenvalue floor and the support
        # check; measuring A in sigma3 would give the probability -9e-10
        path = tmp_path / "marginal.txt"
        path.write_text("dims: 2 2\n0 0 -9e-10 0\n3 3 1 0\n")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: marginal: smallest eigenvalue of rho_A")

    # the committed reports of states whose memory is larger than a qubit: a
    # full-rank one, whose ascent takes the closed-form model, and a rank-2
    # one, whose every ascent point falls back to the 9-point stencil
    @pytest.mark.parametrize("name", ["multimodal_2x3", "rank2_2x4"])
    def test_report_with_a_larger_memory_matches_its_committed_bytes(self, capsys, name):
        state = TEST_DATA / f"{name}.txt"
        assert run(["eval", "--state", str(state), "--x", "sigma1", "--z", "sigma3"]) == EXIT_OK
        assert capsys.readouterr().out == (TEST_DATA / f"eval_{name}.json").read_text()

    def test_bad_selector(self, bell_file):
        rc = run(["eval", "--state", bell_file, "--x", "sigma9", "--z", "sigma3"])
        assert rc == EXIT_PARSE

    def test_unsupported_side_a_dimension(self, tmp_path):
        path = tmp_path / "qutrit.txt"
        path.write_text("dims: 3 1\n0 0 0.4 0\n1 1 0.3 0\n2 2 0.3 0\n")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_VALIDATION

    def test_oversized_dims_header_is_a_parse_error(self, tmp_path, capsys):
        # the header alone would allocate a 2e9 x 2e9 matrix before any entry is read
        path = tmp_path / "huge.txt"
        path.write_text("dims: 2 1000000000\n0 0 1 0\n")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == "error: line 1: dim_a * dim_b must be at most 64, got 2000000000\n"

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe")
        rc = run(["eval", "--state", str(path), "--x", "sigma1", "--z", "sigma3"])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestCheck:
    def test_small_corpus_passes(self, capsys):
        assert run(["check", "--seed", "3", "--cases", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("linalg", "entropy", "bounds"):
            assert f"{name}" in out
        assert out.count("passed") >= 7

    @pytest.mark.parametrize("cases", [100, 1000])
    def test_seed42_output_matches_its_committed_bytes(self, cases, reference_run, capsys, monkeypatch):
        if cases == 1000:  # the session's shared run_checks(42, 1000)
            monkeypatch.setattr(cli, "run_checks", lambda *args: reference_run)
        assert run(["check", "--seed", "42", "--cases", str(cases)]) == EXIT_OK
        assert capsys.readouterr().out == (TEST_DATA / f"check_seed42_{cases}.txt").read_text()

    def test_single_case(self, capsys):
        assert run(["check", "--seed", "9", "--cases", "1"]) == EXIT_OK
        assert "1/1" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_case_count_below_one_is_a_validation_error(self, capsys, count):
        # such a run would check nothing and report every suite as passed
        assert run(["check", "--cases", count]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cases: need at least 1, got {count}\n"

    def test_negative_seed_is_a_validation_error(self, capsys):
        # numpy's generator rejects it, and exit 1 would report it as a failed invariant
        assert run(["check", "--seed", "-1", "--cases", "2"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed: need a non-negative integer, got -1\n"

    def test_corruption_reports_margin_and_fails(self, capsys, break_suite):
        break_suite("coherence")
        rc = run(["check", "--seed", "3", "--cases", "4"])
        assert rc == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "VIOLATION" in err
        assert "margin" in err

    def test_at_most_ten_violations_are_listed(self, capsys, break_suite):
        # every one of the 12 cases fails the broken suite; the count names them all
        break_suite("coherence")
        rc = run(["check", "--seed", "3", "--cases", "12"])
        assert rc == EXIT_INVARIANT
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("VIOLATION [coherence] ") for line in err) == 10
        assert len(err) == 11 and err[-1] == "error: 12 case-level violations (seed 3)"

    def test_verdicts_deterministic(self, capsys):
        run(["check", "--seed", "11", "--cases", "3"])
        first = capsys.readouterr().out
        run(["check", "--seed", "11", "--cases", "3"])
        assert capsys.readouterr().out == first

    def test_reference_corpus_passes(self, capsys, monkeypatch, reference_run):
        # the default seed over a large corpus pins the advertised contract that
        # stock invariants hold at scale; the session's one run of that corpus
        # stands in for the suites, so tier-1 evaluates it once
        def shared_run(seed, cases):
            assert (seed, cases) == (42, 1000)
            return reference_run

        monkeypatch.setattr(cli, "run_checks", shared_run)
        assert run(["check", "--seed", "42", "--cases", "1000"]) == EXIT_OK
        assert "1000" in capsys.readouterr().out

    def test_suite_line_names_the_tightest_inequality_apart_from_identities(
        self, capsys, monkeypatch, reference_run
    ):
        # identity margins are -|error|, at rounding level; the smallest margin
        # over all checks would hide the corpus's tightest inequality behind one
        monkeypatch.setattr(cli, "run_checks", lambda seed, cases: reference_run)
        assert run(["check", "--seed", "42", "--cases", "1000"]) == EXIT_OK
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        match = re.search(r"tightest (\S+) margin=(\S+) .* identity (\S+) error=(\S+) ", lines["bounds"])
        assert match is not None, lines["bounds"]
        assert match.group(1) == "ub_holevo>=lhs_coherence"
        assert float(match.group(2)) == pytest.approx(4.15e-8, rel=0.01)
        assert match.group(3) == "conversion_identity"
        assert 0.0 <= float(match.group(4)) <= 1e-9
        # linalg and states check identities only
        assert "tightest" not in lines["linalg"] and "identity" in lines["linalg"]
        assert "tightest" not in lines["states"] and "identity" in lines["states"]


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coherence_bounds.cli", "check", "--seed", "2", "--cases", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "passed" in proc.stdout
