import contextlib
import errno
import io
import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import cli
from mdiqkd.cli import build_parser, main
from mdiqkd.config import MAX_ESTIMATION_N_MAX, MAX_FOCK_PHOTONS, RunConfig
from mdiqkd.decoy import IntensityGrid, observed_from_model
from mdiqkd.keyrate import distance_scan
from mdiqkd.protocol import Basis

FAST = ["--opt-grid-points", "12", "--distances-km", "0,100,200"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_exits_cleanly(argv, out: Path) -> int:
    """Run argv writing to out: exit 0, 2 or 3, and on failure one JSON error and no file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + [f"--out={out}"])
    assert code in (0, 2, 3)
    # The "wrote <out>" line names a random temporary path, which may hold "nan".
    assert "nan" not in stdout.getvalue().replace(str(out), "")
    if code != 0:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == code and error["message"]
        assert not out.exists()
    return code


class TestKeyrateCommand:
    def test_writes_scan_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(["keyrate", "--out", str(out)] + FAST, capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == ("distance_km,mu_a,mu_b,q11_rect,e11_diag,"
                                     "q_rect,e_rect,key_rate_raw,key_rate")
        rows = lines[header_idx + 1:]
        assert len(rows) == 3
        at200 = dict(zip(lines[header_idx].split(","), rows[2].split(",")))
        assert at200["distance_km"] == "200"
        assert float(at200["key_rate"]) > 0.0
        assert "cutoff_km" in stdout
        assert "rate_at_40db_loss" in stdout

    def test_oversized_intensity_grid_rejected(self, tmp_path, capsys):
        # Rejected by the config check, before any grid is allocated.
        out = tmp_path / "scan.csv"
        code, _, stderr = run(["keyrate", "--opt-grid-points=1000000000", "--out", str(out)],
                              capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["message"] == "opt_grid_points must be <= 10000"
        assert not out.exists()
        assert RunConfig(opt_grid_points=10_000).opt_grid_points == 10_000

    def test_empty_distance_list_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            ["keyrate", "--distances-km", "", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        err = json.loads(stderr)
        assert err["error"]["code"] == 2

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, _, _ = run(["keyrate", "--format", "json", "--out", str(out),
                          "--opt-grid-points", "10", "--distances-km", "0,50"], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["distances_km"] == "0.0,50.0"
        assert len(data["points"]) == 2
        assert data["points"][0]["key_rate"] > 0

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["keyrate", "--opt-grid-points", "10", "--distances-km", "0,50"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("misalignment = 0.5\n")
        out = tmp_path / "b.csv"
        code, _, _ = run(["bsm", "--config", str(cfg), "--misalignment", "0",
                          "--detector-efficiency", "1", "--dark-count-prob", "0",
                          "--out", str(out)], capsys)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        hv = rows[1 + 1].split(",")  # header, then H,H then H,V
        assert hv[0] == "H" and hv[1] == "V"
        assert float(hv[2]) == pytest.approx(0.5, abs=1e-12)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code, _, stderr = run(["keyrate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "not_a_key" in json.loads(stderr)["error"]["message"]

    def test_non_finite_grid_bound_rejected(self, tmp_path, capsys):
        code, _, stderr = run(["keyrate", "--opt-grid-max=inf",
                               "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        message = json.loads(stderr)["error"]["message"]
        assert message == "bad value for opt_grid_max: expected a finite number, got 'inf'"

    def test_relay_at_alice_mode(self, tmp_path, capsys):
        out = tmp_path / "alice.csv"
        code, stdout, _ = run(["keyrate", "--relay-position", "at-alice",
                               "--opt-grid-points", "10", "--distances-km", "0,50",
                               "--out", str(out)], capsys)
        assert code == 0
        cutoff = float(stdout.split("cutoff_km = ")[1].split()[0])
        # far below the midpoint reach; see the doubling analysis in the
        # acceptance suite
        assert 0.0 < cutoff < 150.0

    def test_custom_relay_ratio(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code, _, _ = run(["keyrate", "--relay-position", "custom",
                          "--arm-length-a-km", "1", "--arm-length-b-km", "1",
                          "--opt-grid-points", "10", "--distances-km", "0,20",
                          "--out", str(out)], capsys)
        assert code == 0  # equal lengths behave like midpoint

    def test_lossless_channel_skips_cutoff(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, stderr = run(["keyrate", "--attenuation-db-per-km=0",
                                    "--distances-km=0,10", "--opt-grid-points=10",
                                    "--out", str(out)], capsys)
        assert code == 0, stderr
        assert "cutoff_km = n/a (lossless channel)" in stdout
        assert "rate_at_40db_loss = n/a (lossless channel)" in stdout
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 3

    def test_failed_cutoff_search_writes_nothing(self, tmp_path, capsys):
        # So little loss that no cutoff lies below 20000 km.
        out = tmp_path / "scan.csv"
        code, stdout, stderr = run(["keyrate", "--attenuation-db-per-km=1e-4",
                                    "--distances-km=0", "--opt-grid-points=4",
                                    "--out", str(out)], capsys)
        assert code == 3
        assert json.loads(stderr)["error"]["type"] == "NumericalFailure"
        assert stdout == "" and not out.exists()

    def test_cutoff_when_rate_rises_from_zero(self, tmp_path, capsys):
        # Fixed unequal intensities with the relay at Alice: no rate at 0 km,
        # positive rates from 12.5 to 75 km.  The cutoff lies beyond them.
        out = tmp_path / "scan.csv"
        code, stdout, _ = run([
            "keyrate", "--intensity-mode=fixed", "--fixed-mu-a=0.06302",
            "--fixed-mu-b=0.5925", "--relay-position=at-alice",
            "--detector-efficiency=0.1523", "--dark-count-prob=8.913e-06",
            "--misalignment=0.02998", "--out", str(out)], capsys)
        assert code == 0
        assert "cutoff_km = 87.14" in stdout

    def test_dark_count_free_underflow_is_not_a_cutoff(self, tmp_path, capsys):
        # Without dark counts the rate stays positive until its terms round
        # to subnormals (the sent Y11, by 16,000 km in the cutoff search);
        # that is no cutoff.
        out = tmp_path / "scan.csv"
        code, stdout, stderr = run(["keyrate", "--dark-count-prob=0", "--intensity-mode=fixed",
                                    "--distances-km=0,20000", "--out", str(out)], capsys)
        assert code == 3
        error = json.loads(stderr)["error"]
        assert error["type"] == "NumericalFailure" and "underflows" in error["message"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv,message", [
        ([], "Y11 underflows to a subnormal 1.04e-322 at 16000 km"),
        (["--detector-efficiency=1e-150"],
         "q_rect underflows to a subnormal 1.26e-308 at 150 km"),
        (["--detector-efficiency=1e-152"],
         "q_rect underflows to a subnormal 1.26e-309 at 0 km"),
        (["--detector-efficiency=1e-149", "--distances-km=0"],
         "q_rect underflows to a subnormal 1.26e-313 at 500 km"),
    ], ids=["default", "eta-1e-150", "eta-1e-152", "eta-1e-149-first-bracket"])
    def test_dark_count_free_underflow_messages(self, tmp_path, capsys, argv, message):
        # Without dark counts the guards name the first entry whose terms
        # round to subnormals: in the cutoff's doubling (default), in the
        # scan (1e-150 and 1e-152), and at the cutoff's first bracket.
        code, stdout, stderr = run(["keyrate", "--dark-count-prob=0", *argv,
                                    f"--out={tmp_path / 'scan.csv'}"], capsys)
        assert code == 3 and stdout == ""
        assert json.loads(stderr)["error"] == {"code": 3, "type": "NumericalFailure",
                                               "message": message}

    def test_no_rate_at_zero_km_is_a_zero_cutoff(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(["keyrate", "--detector-efficiency=0", "--dark-count-prob=0",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "cutoff_km = 0.00" in stdout

    @pytest.mark.parametrize("mode", [[], ["--intensity-mode=fixed", "--fixed-mu-a=0.2",
                                           "--fixed-mu-b=0.4", "--relay-position=at-alice"]])
    def test_rate_at_40db_loss(self, tmp_path, capsys, mode):
        argv = ["keyrate", "--attenuation-db-per-km=0.25", "--distances-km=0,50", *mode]
        code, stdout, _ = run(argv + ["--out", str(tmp_path / "scan.csv")], capsys)
        assert code == 0
        config = cli.resolve_config(build_parser(argv).parse_args(argv))
        fixed = (0.2, 0.4) if mode else None
        (point,) = distance_scan(config.system(), [160.0], config.placement(),
                                 fixed_intensities=fixed)
        assert f"rate_at_40db_loss = {point.key_rate:.6e} (distance 160 km)" in stdout


class TestDecoyCommand:
    def test_round_trip_report(self, tmp_path, capsys):
        out = tmp_path / "decoy.json"
        code, stdout, _ = run(["decoy", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        summary = data["summary"]
        assert summary["y11_rect_rel_error"] < 1e-6
        assert summary["e11_diag_estimated"] == pytest.approx(
            summary["e11_diag_true"], rel=1e-6)
        assert summary["q11_rect"] > 0
        assert "max_rel_error_yields" in stdout or "max_abs_error_yields" in stdout

    def test_ideal_devices_give_zero_diag_error(self, tmp_path, capsys):
        out = tmp_path / "decoy_ideal.json"
        code, _, _ = run(["decoy", "--format", "json", "--out", str(out),
                          "--misalignment", "0", "--detector-efficiency", "1",
                          "--dark-count-prob", "0"], capsys)
        assert code == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["y11_rect_true"] == pytest.approx(0.5, abs=1e-12)
        assert abs(summary["y11_rect_estimated"] - 0.5) / 0.5 < 1e-6
        assert abs(summary["e11_diag_estimated"]) < 1e-9

    def test_grid_one_too_small_rejected(self, tmp_path, capsys):
        code, _, stderr = run(
            ["decoy", "--grid-alice", "0.05,0.1,0.2,0.3", "--out",
             str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert "estimation_n_max" in json.loads(stderr)["error"]["message"]

    def test_csv_format_contains_tables(self, tmp_path, capsys):
        out = tmp_path / "decoy.csv"
        code, _, _ = run(["decoy", "--out", str(out)], capsys)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "basis,n,m,y_true,y_estimated,e_true,e_estimated"
        assert len(rows) == 1 + 2 * 25

    def test_model_route_synthesis_runs(self, tmp_path, capsys):
        out = tmp_path / "decoy_model.json"
        code, _, _ = run(["decoy", "--decoy-synthesis", "model", "--format", "json",
                          "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(out.read_text())["summary"]
        # the full-model route carries a truncation bias; it is reported, not hidden
        assert summary["y11_rect_rel_error"] > 1e-6

    def test_inverts_external_observations(self, tmp_path, capsys):
        import numpy as np

        from mdiqkd.decoy import IntensityGrid, observed_from_table
        from mdiqkd.optics import DetectorModel, NetworkConfig, build_network
        from mdiqkd.protocol import Basis, build_yield_error_table

        truth = build_yield_error_table(
            Basis.RECT, build_network(NetworkConfig()), DetectorModel(), 4)
        obs = observed_from_table(truth, IntensityGrid())
        src = tmp_path / "observed.json"
        src.write_text(obs.to_json())
        out = tmp_path / "estimate.json"
        code, stdout, _ = run(["decoy", "--observed", str(src), "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        estimated = np.array(data["estimated"]["yields"])
        assert estimated[1, 1] == pytest.approx(0.5, rel=1e-6)
        assert data["diagnostics"]["clamp_events"] == 0
        assert "y11_estimated" in stdout

    def test_estimation_n_max_limit(self, tmp_path, capsys):
        # A table at n_max holds 2 * n_max photons in its last cell, so n_max
        # 19 is the largest the Fock expansion's 39 photons allow.
        assert MAX_ESTIMATION_N_MAX == 19
        grid = ",".join(str(0.01 * (k + 1)) for k in range(32))
        RunConfig(estimation_n_max=19, grid_alice=tuple(0.01 * (k + 1) for k in range(20)),
                  grid_bob=tuple(0.01 * (k + 1) for k in range(20)))
        out = tmp_path / "x.csv"
        code, _, stderr = run(["decoy", "--estimation-n-max=30", f"--grid-alice={grid}",
                               f"--grid-bob={grid}", "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["message"] == "estimation_n_max must be <= 19"
        assert not out.exists()

    def test_round_trip_without_y11_rejected(self, tmp_path, capsys):
        code, _, stderr = run(["decoy", "--estimation-n-max=0",
                               "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "estimation_n_max >= 1" in json.loads(stderr)["error"]["message"]

    def test_ill_conditioned_bob_grid_fails_numerically(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            ["decoy", "--grid-bob=0.1,0.1000000001,0.1000000002,0.1000000003,0.1000000004",
             "--out", str(out)], capsys)
        assert code == 3
        assert stdout == ""
        assert not out.exists()
        lines = stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == 3
        assert error["type"] == "InversionError"
        assert error["message"].endswith("(stage bob-inversion)")

    def test_malformed_external_observations(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        for text in ("{\"basis\": \"rect\"}", "[1]"):
            src.write_text(text)
            code, _, stderr = run(["decoy", "--observed", str(src)], capsys)
            assert code == 2
            assert "malformed" in json.loads(stderr)["error"]["message"]

    @staticmethod
    def assert_observation_rejected(tmp_path, capsys, record, reason):
        src = tmp_path / "observed.json"
        src.write_text(json.dumps(record))
        out = tmp_path / "estimate.json"
        code, stdout, stderr = run(["decoy", "--observed", str(src), "--out", str(out)], capsys)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"malformed observed-statistics file {src}")
        assert reason in error["message"]
        assert stdout == "" and not out.exists()

    def test_nan_gain_rejected(self, tmp_path, capsys):
        grid = list(IntensityGrid().alice)
        gains = [[0.01] * len(grid) for _ in grid]
        gains[2][3] = math.nan
        record = {"basis": "rect", "alice_intensities": grid, "bob_intensities": grid,
                  "gains": gains, "qbers": [[0.1] * len(grid) for _ in grid]}
        self.assert_observation_rejected(tmp_path, capsys, record, "gains must lie in [0, 1]")

    def test_undefined_error_rate_with_positive_gain_rejected(self, tmp_path, capsys):
        # Counting the null entry as zero errors would lower the e11 estimate.
        system = RunConfig().system()
        record = observed_from_model(IntensityGrid(), Basis.DIAG, system.transfer_matrix,
                                     system.detector).to_json_dict()
        assert record["gains"][1][1] > 0.0
        record["qbers"][1][1] = None
        self.assert_observation_rejected(tmp_path, capsys, record,
                                         "error rates must be defined where the gain is positive")


class TestBsmCommand:
    def test_fock_table_ideal(self, tmp_path, capsys):
        out = tmp_path / "bsm.csv"
        code, _, _ = run(["bsm", "--misalignment", "0", "--detector-efficiency", "1",
                          "--dark-count-prob", "0", "--out", str(out)], capsys)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        table = {(r.split(",")[0], r.split(",")[1]): r.split(",")[2:] for r in rows[1:]}
        assert len(table) == 16
        hv = [float(x) for x in table[("H", "V")]]
        assert hv[0] == pytest.approx(0.5, abs=1e-12)
        assert hv[1] == pytest.approx(0.5, abs=1e-12)
        dd = [float(x) for x in table[("D", "D")]]
        assert dd[0] == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_inputs_all_fail(self, tmp_path, capsys):
        out = tmp_path / "bsm0.csv"
        code, _, _ = run(["bsm", "--bsm-photons-a", "0", "--bsm-photons-b", "0",
                          "--dark-count-prob", "0", "--out", str(out)], capsys)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        for row in rows[1:]:
            assert float(row.split(",")[4]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("photons_a,photons_b", [(39, 1), (40, 0)])
    def test_photon_total_beyond_factorial_table_rejected(self, tmp_path, capsys,
                                                          photons_a, photons_b):
        out = tmp_path / "bsm.csv"
        code, _, stderr = run(["bsm", f"--bsm-photons-a={photons_a}",
                               f"--bsm-photons-b={photons_b}", "--out", str(out)], capsys)
        assert code == 2
        err = json.loads(stderr)["error"]
        assert err == {"code": 2, "type": "ConfigError",
                       "message": "bsm_photons_a + bsm_photons_b must be <= 39"}
        assert not out.exists()

    def test_photon_limit_is_a_config_limit(self, tmp_path, capsys):
        # The configuration holds the expansion's limit, 39 photons in all,
        # so 20 + 20 photons fail with a message naming the keys.
        assert MAX_FOCK_PHOTONS == 39
        RunConfig(bsm_photons_a=20, bsm_photons_b=19)
        out = tmp_path / "bsm.csv"
        code, _, stderr = run(["bsm", "--bsm-input=fock", "--bsm-photons-a=20",
                               "--bsm-photons-b=20", "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["message"] == \
            "bsm_photons_a + bsm_photons_b must be <= 39"
        assert not out.exists()

    def test_coherent_mode(self, tmp_path, capsys):
        out = tmp_path / "bsm_coh.json"
        code, _, _ = run(["bsm", "--bsm-input", "coherent", "--format", "json",
                          "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 16


class TestHomCommand:
    def test_default_dip(self, tmp_path, capsys):
        out = tmp_path / "hom.csv"
        code, stdout, _ = run(["hom", "--out", str(out)], capsys)
        assert code == 0
        dip = float(stdout.split("dip_c0 = ")[1].split()[0])
        assert 0.50 <= dip <= 0.54
        assert "asymptote_c" in stdout

    def test_vacuum_pulses_fail_numerically(self, tmp_path, capsys):
        code, _, stderr = run(["hom", "--hom-mean-photon-number", "0",
                               "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        err = json.loads(stderr)["error"]
        assert err["type"] == "UndefinedCoincidenceError"

    def test_single_delay_single_row(self, tmp_path, capsys):
        out = tmp_path / "hom1.csv"
        code, _, _ = run(["hom", "--hom-delays-ps", "0", "--out", str(out)], capsys)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "delay_ps,p1,p2,pc,c_norm"
        assert len(rows) == 2

    def test_nan_delay_rejected(self, tmp_path, capsys):
        out = tmp_path / "hom.csv"
        code, stdout, stderr = run(["hom", "--hom-delays-ps=nan", "--out", str(out)], capsys)
        assert code == 2
        message = json.loads(stderr)["error"]["message"]
        assert message == "bad value for hom_delays_ps: expected a finite number, got 'nan'"
        assert stdout == "" and not out.exists()


class TestOutputPath:
    def test_out_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / "x.csv"
        code, stdout, stderr = run(["hom", "--hom-delays-ps=0", "--out", str(out)], capsys)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"cannot write output file {out}")
        assert stdout == "" and blocker.read_text() == "kept\n"

    def test_out_names_a_directory(self, tmp_path, capsys):
        code, stdout, stderr = run(["hom", "--hom-delays-ps=0", "--out", str(tmp_path)], capsys)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"cannot write output file {tmp_path}")
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "dip.csv"
        out.write_text("old\n")

        class HalfWrite:
            # A file whose write stores half the text, then fails.
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open
        monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWrite(real_open(*a, **kw)),
                            raising=False)
        code, stdout, stderr = run(["hom", "--hom-delays-ps=0", "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["message"].startswith(
            f"cannot write output file {out}: [Errno 28]")
        assert stdout == "" and list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old\n"

    def test_written_file_has_the_default_mode(self, tmp_path, capsys):
        reference = tmp_path / "reference"
        reference.write_text("")
        out = tmp_path / "dip.csv"
        assert run(["hom", "--hom-delays-ps=0", "--out", str(out)], capsys)[0] == 0
        assert out.stat().st_mode == reference.stat().st_mode
        assert sorted(tmp_path.iterdir()) == [out, reference]


# One run per subcommand whose result file is one table, and the number of
# NaN cells in it: with blind detectors and no dark clicks the relay never
# succeeds, so e11_diag and e_rect are undefined at every distance.
TABLE_RUNS = {
    "keyrate": (["keyrate", "--detector-efficiency=0", "--dark-count-prob=0",
                 "--intensity-mode=fixed", "--distances-km=0,100,20000"], 6),
    "bsm": (["bsm", "--bsm-input=coherent", "--bsm-mu-a=0.3"], 0),
    "hom": (["hom", "--hom-delays-ps=-37.5,0,100", "--hom-dark-prob=1e-5"], 0),
}


class TestOutputFormats:
    @pytest.mark.parametrize("command", sorted(TABLE_RUNS))
    def test_csv_and_json_hold_the_same_table(self, tmp_path, capsys, command):
        argv, nan_cells = TABLE_RUNS[command]
        csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
        assert run(argv + ["--out", str(csv_out)], capsys)[0] == 0
        assert run(argv + ["--format=json", "--out", str(json_out)], capsys)[0] == 0
        lines = csv_out.read_text().splitlines()
        comments = [line[2:].split(" = ", 1) for line in lines if line.startswith("# ")]
        header, *rows = [line.split(",") for line in lines if not line.startswith("# ")]
        obj = json.loads(json_out.read_text())
        assert list(obj)[0] == "config" and len(obj) == 2
        assert comments == [[key, "csv" if key == "format" else value]
                            for key, value in obj["config"].items()]
        records = obj[list(obj)[1]]
        assert len(records) == len(rows) > 0
        nulls = 0
        for row, record in zip(rows, records):
            assert list(record) == header
            for cell, value in zip(row, record.values()):
                if value is None:
                    nulls += 1
                    assert cell == "nan"
                elif isinstance(value, str):
                    assert cell == value
                else:
                    assert float(cell) == value
        assert nulls == nan_cells


REPLAY_RUNS = {
    "keyrate": ["keyrate", "--opt-grid-points", "10", "--distances-km", "0,25"],
    "bsm": ["bsm", "--bsm-photons-a", "2", "--misalignment", "0.03"],
    "hom": ["hom", "--hom-delays-ps=-150,0,37.5", "--hom-dark-prob", "1e-5"],
    "decoy": ["decoy", "--estimation-n-max", "2", "--decoy-distance-km", "30"],
}

# Every config key, grouped under the cheapest run that reads it.
KEY_GROUPS = (
    (["bsm"], ("detector_efficiency", "dark_count_prob", "misalignment", "bsm_input",
               "bsm_photons_a", "bsm_photons_b", "format")),
    (["bsm", "--bsm-input=coherent"], ("bsm_mu_a", "bsm_mu_b")),
    (["hom", "--hom-delays-ps=0,500"], (
        "hom_mean_photon_number", "hom_fwhm_ps", "hom_efficiency", "hom_dark_prob",
        "hom_overlap_ceiling", "hom_delays_ps")),
    (["decoy"], ("grid_alice", "grid_bob", "estimation_n_max", "decoy_distance_km",
                 "decoy_synthesis")),
    (["keyrate", "--opt-grid-points=8", "--distances-km=0,100"], (
        "attenuation_db_per_km", "relay_position", "arm_length_a_km", "arm_length_b_km",
        "error_correction_inefficiency", "distances_km", "intensity_mode", "opt_grid_min",
        "opt_grid_max", "opt_grid_points")),
    (["keyrate", "--intensity-mode=fixed", "--distances-km=0,100"], (
        "fixed_mu_a", "fixed_mu_b")),
)
GROUP_OF = {key: group for group in KEY_GROUPS for key in group[1]}

VALID_VALUES = {
    "detector_efficiency": ("0.5", "1"),
    "dark_count_prob": ("1e-6", "0.5"),
    "misalignment": ("0.1", "1"),
    "bsm_input": ("fock", "coherent"),
    "bsm_photons_a": ("2",),
    "bsm_photons_b": ("2",),
    "format": ("csv", "json"),
    "bsm_mu_a": ("0.3", "2"),
    "bsm_mu_b": ("0.3", "2"),
    "hom_mean_photon_number": ("0.3",),
    "hom_fwhm_ps": ("100",),
    "hom_efficiency": ("0.5",),
    "hom_dark_prob": ("1e-5",),
    "hom_overlap_ceiling": ("0.9",),
    "hom_delays_ps": ("-100,0,100", "100,-100"),
    "grid_alice": ("0.05,0.1,0.2,0.3,0.4,0.5,0.6", "0.1,0.2", "0.3,0.1"),
    "grid_bob": ("0.05,0.1,0.2,0.3,0.4,0.5,0.6", "0.1,0.2", "0.3,0.1"),
    "estimation_n_max": ("1", "2", "5"),
    "decoy_distance_km": ("50", "300"),
    "decoy_synthesis": ("table", "model"),
    "attenuation_db_per_km": ("0.2", "1"),
    "relay_position": ("midpoint", "at-alice", "custom"),
    "arm_length_a_km": ("1", "3"),
    "arm_length_b_km": ("1", "3"),
    "error_correction_inefficiency": ("1.16", "2"),
    "distances_km": ("0,50", "100", "50,0"),
    "intensity_mode": ("optimize", "fixed"),
    "opt_grid_min": ("0.01", "0.5"),
    "opt_grid_max": ("0.5", "2"),
    "opt_grid_points": ("1", "12"),
    "fixed_mu_a": ("0.3", "0.05"),
    "fixed_mu_b": ("0.3", "0.05"),
}
INVALID_VALUES = ("", "-1", "0", "nan", "inf", "x")
PHOTON_COUNTS = ("bsm_photons_a", "bsm_photons_b")
# Entries written into generated --observed files: valid, undefined,
# out-of-range and wrongly typed values.
OBSERVED_VALUES = (0.02, 0.0, 1.0, math.nan, None, -0.1, 1.5, math.inf, "x", [0.1])
CONFIG_LINES = (b"format = json\n", b"hom_fwhm_ps = 100\n", b"hom_fwhm_ps = nan\n",
                b"# caf\xe9\n", b"\xc3\x28 = 1\n", b"not_a_key = 1\n", b"hom_delays_ps\n")


def pool(key):
    return VALID_VALUES[key] + INVALID_VALUES + (("40",) if key in PHOTON_COUNTS else ())


class TestConfig:
    @pytest.mark.parametrize("command", sorted(REPLAY_RUNS))
    def test_embedded_config_reproduces_output(self, tmp_path, capsys, command):
        first = tmp_path / "first.csv"
        assert run(REPLAY_RUNS[command] + ["--out", str(first)], capsys)[0] == 0
        embedded = "\n".join(l[2:] for l in first.read_text().splitlines()
                             if l.startswith("# "))
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(embedded + "\n")
        second = tmp_path / "second.csv"
        assert run([command, "--config", str(cfg), "--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"format = csv\n# caf\xe9\n")
        out = tmp_path / "x.csv"
        code, _, stderr = run(["hom", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"config file {cfg} is not UTF-8 text")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["phase_nodes", "synthesis_n_max", "hom_window_ns"])
    def test_removed_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 64\n")
        code, _, stderr = run(["hom", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(stderr)["error"]["message"] == \
            f"unknown configuration key '{key}'"

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["keyrate", "--help"])
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        keys = [f"--{f.name.replace('_', '-')}" for f in fields(RunConfig)]
        assert len(keys) == 32
        assert flags == ["--config", "--out"] + keys

    @pytest.mark.parametrize("argv", [
        ["--help"], ["keyrate", "--help"], ["decoy", "--help"], ["bsm", "--help"],
        ["hom", "-h"], ["nope"], [], ["keyrate", "--bogus"], ["--", "bsm", "-h"],
        ["decoy", "--observed=x.json", "--estimation-n-max", "2"],
        ["hom", "--distances-km=1,2", "--out", "keyrate"],
    ])
    def test_parser_with_one_subcommands_flags_matches_full_parser(self, argv):
        # build_parser(argv) adds the key flags only to the subcommand argv
        # names; help, errors and parsed values must equal those of the
        # parser with the flags on every subcommand.
        def outcome(parser):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = vars(parser.parse_args(argv))
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        assert outcome(build_parser(argv)) == outcome(build_parser())

    def test_groups_cover_every_key_once(self):
        grouped = [key for _, keys in KEY_GROUPS for key in keys]
        assert sorted(grouped) == sorted(f.name for f in fields(RunConfig))
        assert set(VALID_VALUES) == set(grouped)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_key_value_exits_cleanly(self, data):
        # One key, and up to two more that the same run reads.
        key = data.draw(st.sampled_from(sorted(GROUP_OF)))
        base, keys = GROUP_OF[key]
        drawn = [key] + data.draw(st.lists(st.sampled_from(keys).filter(lambda k: k != key),
                                           max_size=2, unique=True))
        flags = [f"--{k.replace('_', '-')}={data.draw(st.sampled_from(pool(k)))}"
                 for k in drawn]
        with tempfile.TemporaryDirectory() as workdir:
            assert_exits_cleanly(base + flags, Path(workdir) / "result")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_input_file_exits_cleanly(self, data):
        # Generated --observed files and --config files, and --out paths
        # under a regular file.
        kind = data.draw(st.sampled_from(["observed", "config", "out"]))
        with tempfile.TemporaryDirectory() as workdir:
            work = Path(workdir)
            out = work / "result"
            if kind == "observed":
                record = {"basis": "diag", "alice_intensities": [0.1, 0.3, 0.5],
                          "bob_intensities": [0.1, 0.3, 0.5],
                          "gains": [[0.01] * 3 for _ in range(3)],
                          "qbers": [[0.1] * 3 for _ in range(3)]}
                for _ in range(data.draw(st.integers(1, 3))):
                    row = record[data.draw(st.sampled_from(["gains", "qbers"]))]
                    row[data.draw(st.integers(0, 2))][data.draw(st.integers(0, 2))] = \
                        data.draw(st.sampled_from(OBSERVED_VALUES))
                (work / "observed.json").write_text(json.dumps(record))
                argv = ["decoy", f"--observed={work / 'observed.json'}", "--estimation-n-max=1"]
            elif kind == "config":
                chunks = data.draw(st.lists(st.sampled_from(CONFIG_LINES) | st.binary(max_size=6),
                                            max_size=4))
                (work / "run.cfg").write_bytes(b"".join(chunks))
                argv = ["hom", "--hom-delays-ps=0", f"--config={work / 'run.cfg'}"]
            else:
                (work / "file").write_text("")
                out = work / "file" / data.draw(st.sampled_from(["result", "sub/result"]))
                argv = data.draw(st.sampled_from([["hom", "--hom-delays-ps=0"], ["bsm"],
                                                  ["bsm", "--format=json"]]))
            code = assert_exits_cleanly(argv, out)
            if kind == "out":
                assert code == 2
