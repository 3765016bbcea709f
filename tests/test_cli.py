import contextlib
import json
import platform
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from slabresonance import cli, expansion, modes, scattering
from slabresonance.cli import FLOAT_FMT, _write_csv, _write_json, build_parser, main
from slabresonance.errors import ConfigError, ConvergenceError
from slabresonance.lattice import LatticeConfig

from conftest import survey_case

CASE2 = "configs/case2_symmetric.json"
CASE1_SEED = "configs/case1_seed.json"
# README command outputs as written by an earlier version: a copy of the
# files the tests read from perfbench/reference/, so the benchmark's pins can
# change without touching a test
REFERENCE = Path(__file__).resolve().parent / "readme"
README_CURVE = REFERENCE / "transmission" / "transmission_kappa_+0.020000.csv"
README_TUNE = ["tune", "--config", CASE1_SEED, "--kappa-range", "0.08:0.32",
               "--omega-range", "1.30:1.46", "--param-range", "0.05:0.8"]
# Every value the README `tune` writes: its scan traces SCAN_KAPPAS kappa
# points per parameter value (readme/tune/ is from an older tuner, about
# 1e-12 away).
README_TUNED_CONFIG = {
    "defects": [{"d": -3.0, "x": 0, "z": -1}, {"d": -0.9, "x": 0, "z": 0},
                {"d": -3.0, "x": 0, "z": 1}, {"d": -0.12, "x": 1, "z": 0}],
    "pendants": [{"g": 0.41230649973657857, "host": 3, "mu": 0.5}],
    "period": 3,
    "tunable": {"path": "pendants.0.g"},
}
README_TUNE_MODE = {
    "kappa0": 0.19427725048478905,
    "omega0": 1.3844272273067761,
    "radiating_component": 6.19335650382439e-15,
    "residual": 6.621514488340821e-16,
    "verification": {
        "checks": {"decay": True, "eig": True, "im_omega": True,
                   "radiating": True},
        "decay_rate": 0.8379619447928762,
        "decay_rate_expected": 0.830428129219236,
        "eig_abs": 6.621514488340821e-16,
        "im_omega": 0.0,
        "passed": True,
        "radiating_component": 6.1471584965385964e-15,
    },
}
# The README `tune`'s point when its scan traced 60 kappa points: the scan
# only picks the polisher's start, so the point moves by its noise floor.
SCAN60_G = 0.4123064997365217
SCAN60_KAPPA0 = 0.19427725048477237
SCAN60_OMEGA0 = 1.384427227306776


def data_rows(text):
    return [l for l in text.splitlines()
            if not l.startswith(("#", "omega", "kappa"))]


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

    def test_manifest_records_numerical_stack(self, tmp_path):
        out = tmp_path / "t"
        assert run(["transmission", "--config", CASE2, "--kappa", "0.05",
                    "--omega-range", "1.42:1.50", "--grid", "5",
                    "--out", str(out)]) == 0
        first = next(out.glob("*.csv")).read_text().splitlines()[0]
        manifest = json.loads(first[len("# manifest: "):])
        assert manifest["stack"] == {"machine": platform.machine(),
                                     "numpy": np.__version__,
                                     "python": platform.python_version()}
        assert "seed" not in manifest

    def test_wood_anomaly_rows_skipped(self, tmp_path):
        out = tmp_path / "t"
        kappa = 0.3
        wood = 2 * np.sin(kappa / 2)
        assert run(["transmission", "--config", CASE2, "--kappa", str(kappa),
                    "--omega-range", f"{wood - 1e-12}:{wood + 1e-12}",
                    "--grid", "3", "--out", str(out)]) == 0
        text = next(out.glob("*.csv")).read_text()
        assert "wood-anomaly skip" in text

    def test_pendant_pole_rows_skipped(self, tmp_path):
        out = tmp_path / "t"
        assert run(["transmission", "--config", CASE1_SEED, "--kappa", "0.2",
                    "--omega-range", "0.7071067811865476:0.8", "--grid", "3",
                    "--out", str(out)]) == 0
        text = next(out.glob("*.csv")).read_text()
        skips = [l for l in text.splitlines() if "skip" in l]
        assert skips == ["# pendant-pole skip omega=7.071067811865e-01"]
        assert len(data_rows(text)) == 2

    def test_readme_curve_unchanged(self, tmp_path):
        out = tmp_path / "t"
        assert run(["transmission", "--config", CASE2, "--kappa", "0.02",
                    "--omega-range", "1.40:1.55", "--grid", "400",
                    "--out", str(out)]) == 0
        got = (out / README_CURVE.name).read_text()
        assert data_rows(got) == data_rows(README_CURVE.read_text())
        assert len(data_rows(got)) == 400


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

    def test_readme_branch_unchanged(self, tmp_path):
        out = tmp_path / "d"
        assert run(["dispersion", "--config", CASE2,
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--grid", "100", "--out", str(out)]) == 0
        got = (out / "dispersion.csv").read_text()
        want = (REFERENCE / "dispersion" / "dispersion.csv").read_text()
        assert data_rows(got) == data_rows(want)
        assert len(data_rows(got)) == 100

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

    def test_readme_mode_unchanged(self, tmp_path):
        out = tmp_path / "m"
        assert run(["find-mode", "--config", CASE2,
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--out", str(out)]) == 0
        got = json.loads((out / "mode.json").read_text())
        want = json.loads((REFERENCE / "find-mode" / "mode.json").read_text())
        assert (got["kappa0"], got["omega0"]) == (want["kappa0"], want["omega0"])

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

    def test_readme_tune_unchanged(self, readme_tune):
        out, _ = readme_tune
        got = json.loads((out / "mode.json").read_text())
        assert got.pop("manifest")["command"] == "tune"
        assert got == README_TUNE_MODE
        tuned = json.loads((out / "tuned_config.json").read_text())
        assert tuned.pop("manifest")["command"] == "tune"
        assert tuned == README_TUNED_CONFIG
        loaded = LatticeConfig.from_json(out / "tuned_config.json")
        assert loaded.to_dict() == README_TUNED_CONFIG
        assert abs(tuned["pendants"][0]["g"] - SCAN60_G) < 1e-12
        assert abs(got["kappa0"] - SCAN60_KAPPA0) < 1e-12
        assert abs(got["omega0"] - SCAN60_OMEGA0) < 1e-12

    def test_readme_tune_eigen_branch_calls(self, readme_tune):
        """The scan values share one eigen_branch call per Newton step.

        Tracing them one after another took 2,738 calls in the scan alone,
        and a 60-kappa lock-step scan 453 calls in all.
        """
        _, calls = readme_tune
        assert calls <= 250

    def test_readme_mode_eigen_branch_calls(self, tmp_path):
        """The README find-mode finds its mode on SCAN_KAPPAS kappa points;
        the 200 it scanned before took 693 calls."""
        with counted_eigen_branch() as calls:
            assert run(["find-mode", "--config", CASE2,
                        "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                        "--out", str(tmp_path)]) == 0
        assert len(calls) <= 100

    def test_tune_default_range_either_sign(self, tmp_path):
        """Without --param-range the range holds g and -g, which give the same
        V_eff (it depends on g**2); the tuner may land on either minimum."""
        assert README_TUNE[-2] == "--param-range"
        assert run(README_TUNE[:-2] + ["--out", str(tmp_path)]) == 0
        mode = json.loads((tmp_path / "mode.json").read_text())
        tuned = json.loads((tmp_path / "tuned_config.json").read_text())
        g = README_TUNED_CONFIG["pendants"][0]["g"]
        assert abs(abs(tuned["pendants"][0]["g"]) - g) < 1e-12
        assert abs(mode["kappa0"] - README_TUNE_MODE["kappa0"]) < 1e-12
        assert abs(mode["omega0"] - README_TUNE_MODE["omega0"]) < 1e-12

    def test_tune_radiating_point_exit_3(self, tmp_path, monkeypatch):
        """A tuned point find-mode would not accept writes no mode.json."""
        monkeypatch.setattr(modes, "RADIATING_TOL", 0.0)
        code = run(["tune", "--config", CASE1_SEED, "--kappa-range", "0.08:0.32",
                    "--omega-range", "1.30:1.46", "--param-range", "0.05:0.8",
                    "--out", str(tmp_path)])
        assert code == 3
        assert not (tmp_path / "mode.json").exists()

    def test_tune_no_branch_exit_3(self, tmp_path, capsys):
        """No scanned parameter value has a branch in the omega window."""
        code = run(["tune", "--config", CASE1_SEED, "--kappa-range", "0.08:0.32",
                    "--omega-range", "2.9:3.1", "--out", str(tmp_path)])
        assert code == 3
        assert ("tuner: no traceable branch in the scan interval"
                in capsys.readouterr().err)
        assert not (tmp_path / "mode.json").exists()

    def test_invalid_config_exit_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"period": 0, "defects": []}')
        code = run(["find-mode", "--config", str(bad),
                    "--kappa-range", "0:0.1", "--omega-range", "1:1.5",
                    "--out", str(tmp_path)])
        assert code == 4


CASE2_BRANCH = ["dispersion", "--config", CASE2, "--omega-range", "1.3:1.7",
                "--out", "TMP/out"]
CSV_HEAD = "# manifest: {}\nomega,T,R,phase_rad\n"
RESOLVE = ["validate", "--csv", "TMP/input", "--config", CASE2, "--kappa", "0.02"]
INPUT_CURVE = ["transmission", "--config", "TMP/input", "--kappa", "0.02",
               "--omega-range", "1.4:1.55", "--out", "TMP/out"]


ANALYZE_MODE = ["analyze", "--config", CASE2, "--mode", "TMP/input", "--out",
                "TMP/out"]


def mode_text(kappa0):
    """A mode file whose kappa0 is spliced in as JSON text."""
    return '{"kappa0": %s, "omega0": 1.4971229592699646}' % kappa0


def config_text(d="-1.9", mu="0.5", tunable='{"path": "pendants.0.mu"}',
                period="3", x="0", z="0", host="0", g="0.3"):
    """A two-defect config with one pendant; each value is spliced in as
    JSON text (NaN is the token Python's json reads)."""
    return ('{"period": %s, "defects": [{"x": %s, "z": %s, "d": %s}, '
            '{"x": 1, "z": 0, "d": -1.9}], "pendants": '
            '[{"host": %s, "mu": %s, "g": %s}], "tunable": %s}'
            % (period, x, z, d, host, mu, g, tunable))


# config numbers that a cast would quietly turn into others, and the error
CONFIG_NUMBERS = [
    ({"period": "2.9"}, "config: period must be an integer, got 2.9"),
    ({"x": "1.7"}, "defect 0: x must be an integer, got 1.7"),
    ({"z": "-0.5"}, "defect 0: z must be an integer, got -0.5"),
    ({"host": "0.9"}, "pendant 0: host must be an integer, got 0.9"),
    ({"period": "true"}, "config: period must be an integer, got True"),
    ({"x": "false"}, "defect 0: x must be an integer, got False"),
    ({"period": '"3"'}, "config: period must be an integer, got '3'"),
    ({"host": '"0"'}, "pendant 0: host must be an integer, got '0'"),
    ({"d": "true"}, "defect 0: d must be a number, got True"),
    ({"mu": '"0.5"'}, "pendant 0: mu must be a number, got '0.5'"),
    ({"g": "false"}, "pendant 0: g must be a number, got False"),
]


def manifest_csv(grid, omega_range):
    """A one-row transmission CSV whose manifest records this omega grid."""
    return manifest_text({"params": {"grid": grid, "omega_range": omega_range}})


def manifest_text(manifest):
    """A one-row transmission CSV with this manifest."""
    return f"# manifest: {json.dumps(manifest)}\nomega,T,R,phase_rad\n1.4,0.6,0.8,0.0\n"


@pytest.mark.parametrize("argv, text", [
    pytest.param(CASE2_BRANCH + ["--kappa-range=-0.25"], None, id="range-no-colon"),
    pytest.param(CASE2_BRANCH + ["--kappa-range=-0.25:0.25", "--grid", "0"], None,
                 id="grid-0"),
    pytest.param(["validate", "--csv", "TMP/missing.csv"], None, id="csv-missing"),
    pytest.param(["analyze", "--config", CASE2, "--mode", "TMP/missing.json",
                  "--out", "TMP/out"], None, id="mode-missing"),
    pytest.param(["analyze", "--config", CASE2, "--mode", "TMP/input",
                  "--out", "TMP/out"], "[1, 2]\n", id="mode-not-an-object"),
    pytest.param(ANALYZE_MODE, mode_text("null"), id="mode-kappa0-null"),
    pytest.param(ANALYZE_MODE, mode_text('"abc"'), id="mode-kappa0-string"),
    pytest.param(ANALYZE_MODE, mode_text("[1, 2]"), id="mode-kappa0-list"),
    pytest.param(ANALYZE_MODE, mode_text("NaN"), id="mode-kappa0-nan"),
    pytest.param(ANALYZE_MODE, mode_text("true"), id="mode-kappa0-bool"),
    pytest.param(["tune", "--config", CASE2, "--kappa-range", "0:0.2",
                  "--omega-range", "1.3:1.7", "--out", "TMP/out"], None,
                 id="tune-no-tunable"),
    pytest.param(["validate", "--csv", "TMP/input"],
                 CSV_HEAD + "1.4,0.6,not-a-number,0.0\n", id="csv-not-a-number"),
    pytest.param(["validate", "--csv", "TMP/input"], CSV_HEAD + "1.4,0.6\n",
                 id="csv-short-row"),
    pytest.param(["validate", "--csv", "TMP/input", "--rows", "-1"],
                 CSV_HEAD + "1.4,0.6,0.8,0.0\n", id="rows-negative"),
    pytest.param(RESOLVE, manifest_csv("x", "1.40:1.55"), id="manifest-grid-not-int"),
    pytest.param(RESOLVE, manifest_csv(400, [1.40, 1.55]),
                 id="manifest-range-not-string"),
    pytest.param(RESOLVE, manifest_csv(True, "1.40:1.55"), id="manifest-grid-bool"),
    pytest.param(["validate", "--csv", "TMP/input"], manifest_text([1]),
                 id="manifest-not-an-object"),
    pytest.param(["validate", "--csv", "TMP/input"], manifest_text({"params": [1]}),
                 id="manifest-params-not-an-object"),
    pytest.param(["validate", "--csv", "TMP/input", "--config", CASE2, "--kappa",
                  "nan"], CSV_HEAD + "1.4,0.6,0.8,0.0\n", id="validate-kappa-nan"),
    pytest.param(["find-mode", "--config", CASE2, "--kappa-range=-0.25:0.25",
                  "--omega-range", "nan:1.7", "--out", "TMP/out"], None,
                 id="range-nan"),
    pytest.param(CASE2_BRANCH + ["--kappa-range", "0:inf"], None, id="range-inf"),
    pytest.param(["transmission", "--config", CASE2, "--kappa", "nan",
                  "--omega-range", "1.4:1.55", "--out", "TMP/out"], None,
                 id="kappa-nan"),
    pytest.param(["transmission", "--config", CASE2, "--kappa", "0.02",
                  "--omega-range", "1.4:inf", "--out", "TMP/out"], None,
                 id="transmission-range-inf"),
    pytest.param(INPUT_CURVE, config_text(d="NaN"), id="defect-d-nan"),
    pytest.param(INPUT_CURVE, config_text(mu="NaN"), id="pendant-mu-nan"),
    pytest.param(INPUT_CURVE, config_text(tunable='"defects.zero.d"'),
                 id="tunable-index-not-int"),
    *[pytest.param(INPUT_CURVE, config_text(**fields),
                   id="config-%s-%s" % next(iter(fields.items())))
      for fields, _ in CONFIG_NUMBERS],
])
def test_malformed_input_exit_4(tmp_path, capsys, argv, text):
    """Malformed command-line input is a config error, not a traceback."""
    if text is not None:
        (tmp_path / "input").write_text(text)
    assert run([a.replace("TMP", str(tmp_path)) for a in argv]) == 4
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", CONFIG_NUMBERS)
def test_config_number_names_its_field(fields, message):
    """A bool, a string or a fractional integer in a config is refused by
    name; a cast used to make it a number (period 2.9 built period 2)."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        LatticeConfig.from_dict(json.loads(config_text(**fields)))


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["find-mode", "--config", CASE2, "--kappa-range", "0:0.1",
                  "--omega-range", "30:40"], 2, "find-mode: none found",
                 id="find-mode-above-band"),
    pytest.param(["dispersion", "--config", CASE2, "--kappa-range=-0.25:0.25",
                  "--omega-range", "1e6:2e6"], 3, "no branch near zero",
                 id="dispersion-above-band"),
])
def test_above_band(tmp_path, capsys, argv, code, message):
    """Far above the band the order wavenumbers meet the lattice dispersion
    relation to a few ulp of w: no mode is found, and no branch is near zero.
    Their residual, taken relative to max(1, |w|), is no failure."""
    assert run(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "dispersion residual" not in err


def test_find_mode_with_failed_traces_exits_3(tmp_path, capsys):
    """Survey draw 39: the one branch trace fails, so find-mode reports a
    numerical failure that names it, not "none found"."""
    config, (lo, hi) = survey_case(39)
    (tmp_path / "config.json").write_text(json.dumps(config.to_dict()))
    assert run(["find-mode", "--config", str(tmp_path / "config.json"),
                "--kappa-range=-0.25:0.25", f"--omega-range={lo!r}:{hi!r}",
                "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "no mode found, but 1 branch trace(s) failed: seed omega=" in err
    assert "none found" not in err


@contextlib.contextmanager
def counted_calls(name, *modules):
    """A list that gains one entry per call of ``scattering.<name>`` inside
    the block, made through its binding in any of ``modules``."""
    function = getattr(scattering, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return function(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (scattering,) + modules:
            patch.setattr(module, name, counted)
        yield calls


def counted_eigen_branch():
    """A list that gains one entry per eigen_branch call inside the block."""
    return counted_calls("eigen_branch", modes)


@pytest.fixture(scope="module")
def readme_tune(tmp_path_factory):
    """The README tune's output directory and its eigen_branch call count."""
    out = tmp_path_factory.mktemp("tune")
    with counted_eigen_branch() as calls:
        assert run(README_TUNE + ["--out", str(out)]) == 0
    return out, len(calls)


@pytest.fixture(scope="module")
def readme_analyze(tmp_path_factory):
    """The README analyze on the reference tuned config: its output directory
    and its coefficient_triple and eigen_branch call counts."""
    out = tmp_path_factory.mktemp("analyze")
    with counted_calls("coefficient_triple", expansion) as triples, \
            counted_eigen_branch() as branches:
        assert run(["analyze", "--config",
                    str(REFERENCE / "tune" / "tuned_config.json"),
                    "--kappa-range", "0.09:0.30", "--omega-range", "1.30:1.46",
                    "--kappa-tilde", "0.01", "--out", str(out)]) == 0
    return out, len(triples), len(branches)


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

    def test_mode_file_polished_like_scan(self, analyzed, tmp_path):
        """--mode starts the polisher at find-mode's point: same coefficients."""
        assert run(["find-mode", "--config", CASE2,
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--grid", "201", "--out", str(tmp_path / "m")]) == 0
        mode = tmp_path / "m" / "mode.json"
        out = tmp_path / "a"
        assert run(["analyze", "--config", CASE2, "--mode", str(mode),
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--kappa-tilde", "0.01", "--kappa-tilde=-0.01",
                    "--grid", "201", "--out", str(out)]) == 0
        got = json.loads((out / "coefficients.json").read_text())
        want = json.loads((analyzed / "coefficients.json").read_text())
        assert got.pop("manifest")["params"]["mode"] == str(mode)
        want.pop("manifest")
        assert got == want

    def test_mode_file_not_real_exit_2(self, tmp_path):
        mode = tmp_path / "mode.json"
        mode.write_text(json.dumps({"kappa0": 0.2, "omega0": 1.38}))
        assert run(["analyze", "--config", CASE1_SEED, "--mode", str(mode),
                    "--out", str(tmp_path / "a")]) == 2

    def test_readme_coefficients_unchanged(self, readme_analyze):
        """The README analyze on the reference tuned config keeps its bits.

        The manifest records provenance, not results, and ``theta`` is no
        longer written; every other value must equal the reference's.
        """
        ref = REFERENCE / "analyze"
        out, _, _ = readme_analyze
        got = json.loads((out / "coefficients.json").read_text())
        want = json.loads((ref / "coefficients.json").read_text())
        assert got.pop("manifest")["params"] == want.pop("manifest")["params"]
        del want["theta"]
        assert got == want
        curve = "compare_ktilde_+0.010000.csv"
        got_rows = data_rows((out / curve).read_text())
        assert got_rows == data_rows((ref / curve).read_text())
        assert len(got_rows) == 401

    def test_readme_analyze_calls(self, readme_analyze):
        """Each circle point solves the three zero curves as rows of one
        Newton: 12 points of 4 steps.  Three separate Newtons took 96
        coefficient_triple calls and 48 more eigen_branch calls."""
        _, triples, branches = readme_analyze
        assert triples <= 48
        assert branches <= 1227

    def test_cubic_failing_its_guard_is_dropped(self, tmp_path):
        """A mirror-symmetric config whose eigenvalue curve passes the
        quadratic guard but not the cubic one: the cubic is dropped, the
        extraction succeeds, and every relation holds within 3x its error."""
        config = tmp_path / "config.json"
        d = -1.8625783230289665
        config.write_text(json.dumps({"period": 4, "defects": [
            {"x": 0, "z": 2, "d": d}, {"x": 1, "z": 2, "d": d}]}))
        out = tmp_path / "a"
        assert run(["analyze", "--config", str(config),
                    "--kappa-range=-0.25:0.25",
                    "--omega-range", "1.0308391486560233:1.7657874045041313",
                    "--out", str(out)]) == 0
        coeffs = json.loads((out / "coefficients.json").read_text())
        assert coeffs["fit_errors"]["l3"] is None
        relations = json.loads((out / "relations.json").read_text())
        assert all(rel["ratio"] <= 3.0 for rel in relations["relations"])

    def test_comparison_curves(self, analyzed):
        for csv in analyzed.glob("compare_ktilde_*.csv"):
            rows = [l for l in csv.read_text().splitlines()
                    if not l.startswith(("#", "omega"))]
            data = np.array([[float(t) for t in l.split(",")] for l in rows])
            assert np.max(np.abs(data[:, 1] - data[:, 2])) < 0.05


def strict_loads(text):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 forbids."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@dataclass(frozen=True)
class Result:
    value: complex
    samples: np.ndarray
    error: float


class TestStrictJson:
    def test_non_finite_floats_are_null(self, tmp_path):
        path = tmp_path / "r.json"
        _write_json(path, {"command": "test"},
                    {"nan": np.nan, "infs": (np.inf, -np.inf),
                     "x": np.float64(0.1)})
        assert strict_loads(path.read_text()) == {
            "nan": None, "infs": [None, None], "x": 0.1,
            "manifest": {"command": "test"}}

    def test_result_dataclass(self, tmp_path):
        """A result dataclass becomes its fields less its arrays, and a
        complex value [re, im]; extra keys are encoded the same way."""
        path = tmp_path / "r.json"
        _write_json(path, {"command": "test"},
                    Result(np.complex128(3j), np.ones(2), np.nan),
                    extra={"z": 1 - 2j, "pair": (np.float64(-0.5), np.inf)})
        assert strict_loads(path.read_text()) == {
            "value": [0.0, 3.0], "error": None,
            "extra": {"z": [1.0, -2.0], "pair": [-0.5, None]},
            "manifest": {"command": "test"}}

    def test_readme_reports(self, tmp_path, readme_tune, readme_analyze,
                            analyzed):
        """Every JSON file of the README pipeline, and the case-2 fano.json,
        is strict JSON."""
        assert run(["find-mode", "--config", CASE2, "--kappa-range=-0.25:0.25",
                    "--omega-range", "1.3:1.7", "--out", str(tmp_path)]) == 0
        paths = [p for d in (tmp_path, readme_tune[0], readme_analyze[0],
                             analyzed) for p in d.glob("*.json")]
        assert {p.name for p in paths} == {
            "mode.json", "tuned_config.json", "coefficients.json",
            "relations.json", "anomaly_summary.json", "fano.json"}
        for path in paths:
            strict_loads(path.read_text())


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

    def test_validate_rejects_moved_transmission(self, tmp_path, capsys):
        """One README row with T moved by 1e-6, and R moved with it so the
        energy identity still holds, fails the re-solve."""
        lines = README_CURVE.read_text().splitlines()
        i = next(i for i, l in enumerate(lines)
                 if not l.startswith(("#", "omega")))
        omega, t, _, phase = map(float, lines[i].split(","))
        t += 1e-6
        lines[i] = ",".join(f"{v:.12e}" for v in (omega, t, np.sqrt(1 - t * t),
                                                  phase))
        csv = tmp_path / README_CURVE.name
        csv.write_text("\n".join(lines) + "\n")
        assert run(["validate", "--csv", str(csv), "--config", CASE2,
                    "--kappa", "0.02", "--rows", "400"]) == 3
        assert "does not re-solve" in capsys.readouterr().err

    # the order in which validate --rows 400 --seed 0 re-solves the README
    # curve's data rows, and the grid its manifest records
    PICKS = np.random.default_rng(0).choice(400, size=400, replace=False)
    GRID = np.linspace(1.40, 1.55, 400)

    def moved_curve(self, tmp_path, moved, shifted=()):
        """The README curve with T moved by 1e-6 (R with it, so the energy
        identity holds) on the data rows ``moved``, and omega moved by a
        tenth of the grid step (T and R kept) on the data rows ``shifted``."""
        lines = README_CURVE.read_text().splitlines()
        for i in [*moved, *shifted]:
            omega, t, r, phase = map(float, lines[2 + i].split(","))
            if i in moved:
                t += 1e-6
                r = np.sqrt(1 - t * t)
            if i in shifted:
                omega += (self.GRID[1] - self.GRID[0]) / 10
            lines[2 + i] = ",".join(FLOAT_FMT.format(v) for v in (omega, t, r, phase))
        csv = tmp_path / README_CURVE.name
        csv.write_text("\n".join(lines) + "\n")
        return csv

    def validate_all_rows(self, csv, config=CASE2):
        return run(["validate", "--csv", str(csv), "--config", str(config),
                    "--kappa", "0.02", "--rows", "400"])

    def test_validate_names_the_first_failure_in_pick_order(self, tmp_path,
                                                            capsys):
        """Of two moved rows, the message names the one picked first, which
        comes later in the file."""
        first = self.PICKS[0]
        other = next(i for i in self.PICKS if i < first)
        assert self.validate_all_rows(self.moved_curve(tmp_path,
                                                       [other, first])) == 3
        err = capsys.readouterr().err
        assert f"row omega={self.GRID[first]} does not re-solve" in err
        assert str(self.GRID[other]) not in err

    @pytest.mark.parametrize("skipped_first", [True, False])
    def test_validate_skipped_row_by_pick_order(self, tmp_path, capsys,
                                               skipped_first):
        """Re-solved with a zero-coupling pendant whose pole sits on one
        picked row's omega, that row is skipped and every other row re-solves
        unchanged.  With one more row moved, whichever of the two is picked
        first decides the exit-3 message."""
        skipped, moved = self.PICKS[:2] if skipped_first else self.PICKS[1::-1]
        config = json.loads(Path(CASE2).read_text())
        config["pendants"] = [{"host": 0, "mu": self.GRID[skipped] ** 2, "g": 0.0}]
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(config))
        assert self.validate_all_rows(self.moved_curve(tmp_path, [moved]),
                                      path) == 3
        err = capsys.readouterr().err
        assert ("[PendantPoleError]" in err) == skipped_first
        assert ("does not re-solve" in err) != skipped_first

    @pytest.mark.parametrize("shifted_first", [True, False])
    def test_validate_off_grid_row_fails_in_pick_order(self, tmp_path, capsys,
                                                       shifted_first):
        """A row whose omega is no grid point of the manifest, as FLOAT_FMT
        prints it, fails, where it used to be re-solved at the nearest grid
        point.  With one more row moved, whichever of the two is picked
        first decides the exit-3 message."""
        shifted, moved = self.PICKS[:2] if shifted_first else self.PICKS[1::-1]
        csv = self.moved_curve(tmp_path, [moved], [shifted])
        omega = float(data_rows(csv.read_text())[shifted].split(",")[0])
        assert omega != float(FLOAT_FMT.format(self.GRID[shifted]))
        assert self.validate_all_rows(csv) == 3
        err = capsys.readouterr().err
        assert (f"row omega={omega} is not on the manifest grid" in err) == shifted_first
        assert (f"row omega={self.GRID[moved]} does not re-solve" in err) != shifted_first

    @pytest.mark.parametrize("rows", [41, 2])
    def test_validate_points_that_print_alike(self, tmp_path, rows):
        """On a grid whose step, 1e-13, is below FLOAT_FMT's resolution,
        runs of about ten neighbouring points print alike.  Each picked row
        is re-solved at the first grid point that prints as its omega, as a
        lookup over every printed point finds it, whether every row is
        picked or two."""
        out = tmp_path / "t"
        omega_range = "1.4:1.400000000004"
        assert run(["transmission", "--config", CASE2, "--kappa", "0.02",
                    "--omega-range", omega_range, "--grid", "41",
                    "--out", str(out)]) == 0
        csv = next(out.glob("*.csv"))
        grid = np.linspace(1.4, 1.400000000004, 41)
        first = {float(FLOAT_FMT.format(g)): i
                 for i, g in reversed(list(enumerate(grid)))}
        assert 3 < len(first) < 10
        omegas = [float(row.split(",")[0]) for row in data_rows(csv.read_text())]
        picks = np.random.default_rng(0).choice(41, size=rows, replace=False)
        solved, solve_grid = [], cli.solve_grid

        def recorded(kappa, oms, config):
            solved.extend(oms.tolist())
            return solve_grid(kappa, oms, config)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "solve_grid", recorded)
            assert run(["validate", "--csv", str(csv), "--config", CASE2,
                        "--kappa", "0.02", "--rows", str(rows)]) == 0
        assert solved == [grid[first[omegas[j]]] for j in picks]
        assert any(first[omegas[j]] < j - 1 for j in picks)

    def test_validate_takes_the_last_kappa(self):
        """A repeated --kappa is not dropped: as with any single-valued
        option, the last one is the one re-solved at."""
        argv = ["validate", "--csv", str(README_CURVE), "--config", CASE2]
        assert run(argv + ["--kappa", "0.5", "--kappa", "0.02"]) == 0
        assert run(argv + ["--kappa", "0.02", "--kappa", "0.5"]) == 3

    @pytest.mark.parametrize("given, missing", [(["--config", CASE2], "--kappa"),
                                                (["--kappa", "0.02"], "--config")])
    def test_validate_config_and_kappa_go_together(self, capsys, given, missing):
        assert run(["validate", "--csv", str(README_CURVE), *given]) == 4
        assert f"{missing} is missing" in capsys.readouterr().err

    def test_validate_energy_residual_as_the_row_loop(self, tmp_path, capsys):
        """The worst residual is max() over the rows' Python floats from 0.0,
        which passes over a NaN row."""
        lines = README_CURVE.read_text().splitlines()
        lines[5] = lines[5].replace(lines[5].split(",")[1], "nan")
        csv = tmp_path / README_CURVE.name
        csv.write_text("\n".join(lines) + "\n")
        worst = 0.0
        for line in lines[2:]:
            _, t, r, _ = map(float, line.split(","))
            worst = max(worst, abs(r * r + t * t - 1.0))
        assert run(["validate", "--csv", str(csv)]) == 0
        assert f"worst energy residual {worst:.3e}" in capsys.readouterr().out

    def test_validate_no_data_rows(self, tmp_path, capsys, recwarn):
        """A CSV with no data rows, skipped rows or not, prints its message
        alone: no warning either, which outside pytest goes to stderr."""
        header = README_CURVE.read_text().splitlines()[:2]
        csv = tmp_path / "empty.csv"
        for skips in ([], ["# wood-anomaly skip omega=1.0"]):
            csv.write_text("\n".join(header + skips) + "\n")
            assert run(["validate", "--csv", str(csv)]) == 3
            assert capsys.readouterr().err == "validate: no data rows\n"
        assert not recwarn.list


def test_parser_is_reused_after_an_argparse_exit(tmp_path):
    """The parser is built once; an argparse error leaves it usable."""
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["transmission", "--config", CASE2])  # no --kappa
    assert main(["validate", "--csv", str(README_CURVE)]) == 0


def test_write_csv_formats_every_value_as_float_fmt(tmp_path):
    """Non-finite values, -0.0 and numpy scalars are written as FLOAT_FMT
    writes them; a string row is written as it is."""
    rows = [(np.nan, np.inf, -np.inf, -0.0),
            (np.float64(1.5), np.float32(0.1), np.int64(3), 7),
            "# a comment row"]
    path = tmp_path / "out" / "t.csv"
    _write_csv(path, {"command": "t"}, "a,b,c,d", rows)
    assert path.read_text().splitlines() == [
        '# manifest: {"command": "t"}', "a,b,c,d",
        *(",".join(FLOAT_FMT.format(x) for x in row) for row in rows[:2]),
        "# a comment row"]


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
