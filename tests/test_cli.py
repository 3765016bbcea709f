import json

import numpy as np
import pytest

from slabresonance import modes
from slabresonance.cli import main
from slabresonance.errors import ConvergenceError

CASE2 = "configs/case2_symmetric.json"
CASE1_SEED = "configs/case1_seed.json"


def run(argv):
    return main(argv)


class TestTransmission:
    def test_energy_identity_every_row(self, tmp_path):
        out = tmp_path / "t"
        code = run(["transmission", "--config", CASE2, "--kappa", "0.02",
                    "--omega-range", "1.40:1.55", "--grid", "60",
                    "--out", str(out)])
        assert code == 0
        csv = next(out.glob("transmission_*.csv"))
        rows = [l for l in csv.read_text().splitlines()
                if l and not l.startswith(("#", "omega"))]
        assert len(rows) == 60
        for line in rows:
            _, t, r, _ = map(float, line.split(","))
            assert abs(t * t + r * r - 1.0) < 1e-10

    def test_empty_scatterer_full_transmission(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({
            "period": 2,
            "defects": [{"x": 0, "z": 0, "d": 0.0}],
        }))
        out = tmp_path / "t"
        assert run(["transmission", "--config", str(cfg), "--kappa", "0.1",
                    "--omega-range", "0.8:1.2", "--grid", "20",
                    "--out", str(out)]) == 0
        csv = next(out.glob("transmission_*.csv"))
        for line in csv.read_text().splitlines():
            if line.startswith(("#", "omega")):
                continue
            _, t, _, _ = map(float, line.split(","))
            assert abs(t - 1.0) < 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        args = ["transmission", "--config", CASE2, "--kappa", "0.05",
                "--omega-range", "1.42:1.50", "--grid", "25"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        c1 = next(out1.glob("*.csv")).read_bytes()
        c2 = next(out2.glob("*.csv")).read_bytes()
        assert c1 == c2

    def test_wood_anomaly_rows_skipped(self, tmp_path):
        out = tmp_path / "t"
        kappa = 0.3
        wood = 2 * np.sin(kappa / 2)
        assert run(["transmission", "--config", CASE2, "--kappa", str(kappa),
                    "--omega-range", f"{wood - 1e-12}:{wood + 1e-12}",
                    "--grid", "3", "--out", str(out)]) == 0
        text = next(out.glob("*.csv")).read_text()
        assert "wood-anomaly skip" in text


class TestDispersion:
    def test_symmetric_branch_csv(self, tmp_path):
        out = tmp_path / "d"
        assert run(["dispersion", "--config", CASE2,
                    "--kappa-range=-0.1:0.1", "--omega-range", "1.3:1.7",
                    "--grid", "21", "--out", str(out)]) == 0
        lines = [l for l in (out / "dispersion.csv").read_text().splitlines()
                 if not l.startswith(("#", "kappa"))]
        rows = np.array([[float(t) for t in l.split(",")] for l in lines])
        mid = rows[np.argmin(np.abs(rows[:, 0]))]
        assert abs(mid[2]) <= 1e-9, "Im omega at kappa=0 should vanish"
        assert np.all(rows[:, 2] <= 1e-9)
        assert np.all(rows[:, 3] < 1e-10)

    def test_empty_scatterer_errors(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({
            "period": 2,
            "defects": [{"x": 0, "z": 0, "d": 0.0}],
        }))
        code = run(["dispersion", "--config", str(cfg),
                    "--kappa-range=-0.1:0.1", "--omega-range", "0.5:1.5",
                    "--grid", "11", "--out", str(tmp_path / "d")])
        assert code == 3


class TestModeCommands:
    def test_find_mode_case2(self, tmp_path):
        out = tmp_path / "m"
        assert run(["find-mode", "--config", CASE2,
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--grid", "80", "--out", str(out)]) == 0
        data = json.loads((out / "mode.json").read_text())
        assert data["kappa0"] == 0.0
        assert abs(data["omega0"] - 1.4971229592699646) < 1e-8
        assert data["verification"]["checks"]["decay"]
        assert data["manifest"]["command"] == "find-mode"

    def test_find_mode_none_exit_2(self, tmp_path):
        code = run(["find-mode", "--config", CASE1_SEED,
                    "--kappa-range", "0.06:0.34", "--omega-range", "1.30:1.46",
                    "--grid", "40", "--out", str(tmp_path)])
        assert code == 2

    def test_find_mode_solver_failure_exit_3(self, tmp_path, monkeypatch):
        """A polisher failure is a numerical failure, not "no mode"."""
        def fail(*args, **kwargs):
            raise ConvergenceError("polisher did not converge")

        monkeypatch.setattr(modes, "polish_real_point", fail)
        code = run(["find-mode", "--config", CASE2,
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--grid", "80", "--out", str(tmp_path)])
        assert code == 3

    def test_invalid_config_exit_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"period": 0, "defects": []}')
        code = run(["find-mode", "--config", str(bad),
                    "--kappa-range", "0:0.1", "--omega-range", "1:1.5",
                    "--out", str(tmp_path)])
        assert code == 4


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    code = run(["analyze", "--config", CASE2,
                "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                "--kappa-tilde", "0.01", "--kappa-tilde=-0.01",
                "--grid", "201", "--out", str(out)])
    assert code == 0
    return out


class TestAnalyze:

    def test_reports_schema(self, analyzed):
        coeffs = json.loads((analyzed / "coefficients.json").read_text())
        assert coeffs["case"] == 2
        assert len(coeffs["l2"]) == 2
        relations = json.loads((analyzed / "relations.json").read_text())
        for rel in relations["relations"]:
            assert rel["residual"] < 3.0 * rel["combined_error"]
        fano = json.loads((analyzed / "fano.json").read_text())
        assert len(fano["condition_residuals"]) == 3

    def test_comparison_curves(self, analyzed):
        for csv in analyzed.glob("compare_ktilde_*.csv"):
            rows = [l for l in csv.read_text().splitlines()
                    if not l.startswith(("#", "omega"))]
            data = np.array([[float(t) for t in l.split(",")] for l in rows])
            assert np.max(np.abs(data[:, 1] - data[:, 2])) < 0.05


class TestValidate:
    def test_validate_accepts_good_csv(self, tmp_path):
        out = tmp_path / "t"
        run(["transmission", "--config", CASE2, "--kappa", "0.05",
             "--omega-range", "1.42:1.50", "--grid", "30", "--out", str(out)])
        csv = next(out.glob("*.csv"))
        assert run(["validate", "--csv", str(csv), "--config", CASE2,
                    "--kappa", "0.05", "--rows", "3"]) == 0

    def test_validate_readme_every_row(self, tmp_path):
        """The README sweep re-solves on all 400 rows despite CSV rounding."""
        out = tmp_path / "t"
        run(["transmission", "--config", CASE2, "--kappa", "0.02",
             "--omega-range", "1.40:1.55", "--grid", "400", "--out", str(out)])
        csv = out / "transmission_kappa_+0.020000.csv"
        assert run(["validate", "--csv", str(csv), "--config", CASE2,
                    "--kappa", "0.02", "--rows", "400"]) == 0

    def test_validate_rejects_tampered_csv(self, tmp_path):
        out = tmp_path / "t"
        run(["transmission", "--config", CASE2, "--kappa", "0.05",
             "--omega-range", "1.42:1.50", "--grid", "10", "--out", str(out)])
        csv = next(out.glob("*.csv"))
        lines = csv.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.startswith(("#", "omega")):
                parts = line.split(",")
                parts[1] = "9.000000000000e-01"
                parts[2] = "9.000000000000e-01"
                lines[i] = ",".join(parts)
                break
        csv.write_text("\n".join(lines) + "\n")
        assert run(["validate", "--csv", str(csv)]) == 3


def test_transmission_tuned_config_full_swing(tmp_path, case1_tuned,
                                              coeffs_case1):
    """Near the tuned mode the curve reaches >= 0.99 and dips <= 0.01."""
    config, mode = case1_tuned
    c = coeffs_case1
    kt = 0.01
    kappa = mode.kappa0 + kt
    center = c.omega0 - c.l1.real * kt
    half = 20 * max(abs(c.l2), abs(c.r2), abs(c.t2)) * kt * kt
    cfg_path = tmp_path / "tuned.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "t"
    code = run(["transmission", "--config", str(cfg_path),
                "--kappa", str(kappa),
                "--omega-range", f"{center - half}:{center + half}",
                "--grid", "4001", "--out", str(out)])
    assert code == 0
    ts = []
    for line in next(out.glob("*.csv")).read_text().splitlines():
        if line.startswith(("#", "omega")):
            continue
        ts.append(float(line.split(",")[1]))
    ts = np.array(ts)
    assert np.max(ts) >= 0.99
    assert np.min(ts) <= 0.01
