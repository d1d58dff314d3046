from pathlib import Path

import numpy as np
import pytest

from gnlab.cli import main, read_csv
from gnlab.config import AnalysisConfig, ConfigError, PrepConfig, SolverConfig, load_config
from gnlab.dmrg import dmrg_ground_state
from gnlab.exact import ground_state_dense
from gnlab.fits import EnergyModel
from gnlab.model import Boundary, ModelSpec, build_hamiltonian
from gnlab.mps import compile_mpo
from gnlab.overlaps import PadKind, pad_state

BASE_CONFIG = """\
[model]
n_sites = 4
spacing = 0.25
bare_mass = 0.2
coupling_sq = 1.5

[solver]
engine = dmrg
epsilon_goal = 1e-10
max_bond = 32
seed = 7

[analysis]
sizes_min = 2
sizes_max = 4
points = 0.2:1.5

[prep]
n0 = 2
n_final = 3
eps = 1e-2
oracle = ideal

[output]
directory = {out}
"""


@pytest.fixture
def config_file(tmp_path):
    def write(inject: dict[str, str] | None = None, **fmt) -> str:
        out = fmt.pop("out", tmp_path / "out")
        text = BASE_CONFIG.format(out=out)
        for section, keys in (inject or {}).items():
            text = text.replace(f"[{section}]\n", f"[{section}]\n{keys}\n")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    return write


MANIFEST = "# manifest config_sha=0 seed=7 version=0"

#: Hand-made `report` inputs per criterion, each within tolerance, and one cell
#: (file, text, replacement) that pushes it past that tolerance.
REPORT_INPUTS = {
    "01": ({"energies.csv": f"{MANIFEST}\nN,energy,epsilon,sweeps,max_bond\n4,-2.5,1e-11,2,8",
            "energies_dense.csv": f"{MANIFEST}\nN,energy,epsilon,sweeps,max_bond\n4,-2.5,1e-15,0,16"},
           ("energies.csv", "4,-2.5,", "4,-2.5001,")),
    "03": ({"corr_fits.csv": f"{MANIFEST}\nm0,g0_sq,b,chi,residual\n0.2,1.5,0.3,0.75,0.01"},
           ("corr_fits.csv", "0.75,0.01", "0.75,0.06")),
    "04": ({"overlaps_summary.csv": f"{MANIFEST}\nm0,g0_sq,eta,spread,pad_kind\n"
                                    "0.2,1.5,0.5,0.01,uniform\n0.2,1.5,0.7071067811865476,0.01,symmetry-adapted"},
           ("overlaps_summary.csv", "0.5,0.01,uniform", "0.5,0.06,uniform")),
    "05": ({"energy_fit.csv": f"{MANIFEST}\nN,E,model,prediction,abs_error,half_gap\n"
                              "2,-1.0,linear,,,0.5\n3,-1.5,linear,-1.49,0.01,0.5\n4,-2.0,linear,-1.99,0.01,0.5"},
           ("energy_fit.csv", "-1.99,0.01", "-1.4,0.6")),
    "09": ({"prep_manifest_ideal.txt": "oracle_mode = ideal\neps = 0.001\nfinal_fidelity = 0.9995"},
           ("prep_manifest_ideal.txt", "0.9995", "0.998")),
}


def one_sweep_config(tmp_path):
    # bond 4 is exact up to 3 sites; from 4 sites on, one capped sweep misses a
    # 1e-12 goal, cold or grown from the smaller vacuum, and the stall rule needs two
    text = BASE_CONFIG.format(out=tmp_path / "out").replace("n_sites = 4", "n_sites = 6")
    text = text.replace("max_bond = 32", "max_bond = 4")
    path = tmp_path / "one_sweep.ini"
    path.write_text(text.replace("epsilon_goal = 1e-10", "epsilon_goal = 1e-12\nmax_sweeps = 1"))
    return str(path)


class TestConfigParsing:
    def test_round_trip_values(self, config_file):
        cfg = load_config(config_file())
        assert cfg.model.n_sites == 4
        assert cfg.solver.seed == 7
        assert cfg.analysis.points == ((0.2, 1.5),)
        assert cfg.prep.eps == pytest.approx(1e-2)

    def test_unknown_key_is_named(self, config_file):
        with pytest.raises(ConfigError, match="wibble"):
            load_config(config_file({"solver": "wibble = 3"}))

    def test_periodic_dmrg_beyond_mpo_range(self, config_file):
        periodic = config_file({"model": "boundary = periodic"})
        assert load_config(periodic, {"sizes": (2, 8)}).model.boundary.value == "periodic"
        analysis = load_config(periodic, {"sizes": (2, 9), "engine": "dense"}).analysis
        assert (analysis.sizes_min, analysis.sizes_max) == (2, 9)
        with pytest.raises(ConfigError, match="periodic"):
            load_config(periodic, {"sizes": (2, 9)})

    def test_every_model_key_round_trips(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text("[model]\nn_sites = 6\nspacing = 0.125\nbare_mass = 0.3\ncoupling_sq = 1.25\n"
                        "wilson_r = 0.75\nflavors = 2\nboundary = periodic\n")
        assert load_config(path, {"engine": "dense"}).model == ModelSpec(
            n_sites=6, spacing=0.125, bare_mass=0.3, coupling_sq=1.25,
            wilson_r=0.75, flavors=2, boundary=Boundary.PERIODIC,
        )

    def test_unknown_model_key_is_named(self, config_file, capsys):
        path = config_file({"model": "colour = blue"})
        with pytest.raises(ConfigError, match="colour"):
            load_config(path)
        assert main(["solve", "--config", path]) == 2
        assert "colour" in capsys.readouterr().err

    def test_missing_model_key_is_named(self, config_file, capsys):
        path = Path(config_file())
        path.write_text(path.read_text().replace("spacing = 0.25\n", ""))
        with pytest.raises(ConfigError, match="spacing"):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == 2
        assert "spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["ancilla_bits = 12", "window_cells = 8"])
    def test_removed_prep_keys_are_unknown(self, config_file, key):
        path = config_file({"prep": key})
        with pytest.raises(ConfigError, match=key.split()[0]):
            load_config(path)
        assert main(["prepare", "--config", path]) == 2

    def test_absent_sections_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "model_only.ini"
        path.write_text("[model]\nn_sites = 4\nspacing = 0.25\nbare_mass = 0.2\ncoupling_sq = 1.5\n")
        cfg = load_config(path)
        assert cfg.solver == SolverConfig()
        assert cfg.prep == PrepConfig()
        assert cfg.analysis == AnalysisConfig()

    def test_bad_value_is_named(self, config_file):
        for section, key in (("solver", "dense_cap = many"), ("prep", "eta_floor = high"),
                             ("model", "boundary = round"), ("analysis", "gap = wide")):
            with pytest.raises(ConfigError, match=rf"bad value for \[{section}\] {key.split()[0]}"):
                load_config(config_file({section: key}))
        path = Path(config_file())   # a key the base config sets: edit it in place
        path.write_text(path.read_text().replace("sizes_max = 4", "sizes_max = ten"))
        with pytest.raises(ConfigError, match=r"bad value for \[analysis\] sizes_max"):
            load_config(path)

    def test_unknown_section_rejected(self, config_file, tmp_path):
        path = tmp_path / "extra.ini"
        path.write_text(BASE_CONFIG.format(out=tmp_path) + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_flag_overrides_win(self, config_file):
        cfg = load_config(config_file(), overrides={"seed": 99, "engine": "dense"})
        assert cfg.solver.seed == 99
        assert cfg.solver.engine.value == "dense"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_bad_point_syntax(self, config_file, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.format(out=tmp_path).replace("0.2:1.5", "oops"))
        with pytest.raises(ConfigError, match="m0:g0_sq"):
            load_config(path)

    def test_hash_ignores_output_location(self, config_file):
        a = load_config(config_file(), overrides={"out": "x"})
        b = load_config(config_file(), overrides={"out": "y"})
        assert a.config_hash == b.config_hash

    def test_hash_ignores_output_directory_key(self, config_file, tmp_path):
        a = load_config(config_file(out=tmp_path / "x"))
        b = load_config(config_file(out=tmp_path / "y"))
        assert a.out_dir != b.out_dir
        assert a.config_hash == b.config_hash
        changed = config_file(out=tmp_path / "x")
        Path(changed).write_text(Path(changed).read_text().replace("bare_mass = 0.2", "bare_mass = 0.3"))
        assert load_config(changed).config_hash != a.config_hash


class TestCliCommands:
    def test_solve_writes_energies_and_checkpoints(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--config", config_file()])
        assert code == 0
        rows = read_csv(out / "energies.csv")
        assert [r["N"] for r in rows] == ["2", "3", "4"]
        spec = ModelSpec(n_sites=3, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        dense = ground_state_dense(build_hamiltonian(spec))
        assert float(rows[1]["energy"]) == pytest.approx(dense.ground_energy, rel=1e-9)
        assert (out / "state_N3_a0.25_m0.2_g1.5_r1.0_f1_dirichlet_dmrg_s7_e1e-10_b32_w40_from2.mps").exists()

    def test_dense_engine_writes_matching_energies(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", config_file(), "--engine", "dense"]) == 0
        dense_rows = read_csv(out / "energies_dense.csv")
        assert main(["solve", "--config", config_file()]) == 0
        dmrg_rows = read_csv(out / "energies.csv")
        assert [r["N"] for r in dense_rows] == [r["N"] for r in dmrg_rows]
        for dense, dmrg in zip(dense_rows, dmrg_rows):
            assert float(dense["energy"]) == pytest.approx(float(dmrg["energy"]), rel=1e-8)

    def test_dense_engine_epsilon_is_the_residual_norm(self, config_file, tmp_path):
        # ||Hv - Ev||^2 / E^2 of an exact eigenvector sits near 1e-30; the
        # form <Hv,Hv>/E^2 - 1 cannot go below its rounding floor of ~1e-16
        assert main(["solve", "--config", config_file(), "--engine", "dense"]) == 0
        for row in read_csv(tmp_path / "out" / "energies_dense.csv"):
            assert 0.0 <= float(row["epsilon"]) < 1e-24

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "energies.csv").read_bytes()
        b = (tmp_path / "b" / "energies.csv").read_bytes()
        assert a == b
        name = "state_N4_a0.25_m0.2_g1.5_r1.0_f1_dirichlet_dmrg_s7_e1e-10_b32_w40_from2.mps"
        chk_a = (tmp_path / "a" / name).read_bytes()
        chk_b = (tmp_path / "b" / name).read_bytes()
        assert chk_a == chk_b

    def test_overlap_emits_both_pads_and_summary(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["overlap", "--config", config_file(), "--sizes", "2..5"]) == 0
        text = (out / "overlaps.csv").read_text()
        assert PadKind.UNIFORM.value in text
        assert PadKind.SYMMETRY_ADAPTED.value in text
        summary = (out / "overlaps_summary.csv").read_text().splitlines()
        assert summary[1] == "m0,g0_sq,eta,spread,pad_kind"

    def test_prepare_writes_trace_and_manifest(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["prepare", "--config", config_file()]) == 0
        trace = (out / "prep_trace_ideal.csv").read_text().splitlines()
        assert trace[1].startswith("step_j,")
        manifest = (out / "prep_manifest_ideal.txt").read_text()
        assert "final_fidelity" in manifest and "oracle_mode = ideal" in manifest

    def test_prepare_phase_estimation_to_five_sites(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "exp.ini"
        text = BASE_CONFIG.format(out=out).replace("n_final = 3", "n_final = 5")
        path.write_text(text.replace("oracle = ideal", "oracle = phase-estimation"))
        assert main(["prepare", "--config", str(path)]) == 0
        manifest = (out / "prep_manifest_phase-estimation.txt").read_text().splitlines()
        values = dict(line.split(" = ", 1) for line in manifest if " = " in line)
        assert values["n_final"] == "5"
        assert float(values["final_fidelity"]) >= 1 - 5 * 1e-2
        assert int(values["oracle_calls_total"]) == 24

    def test_energy_fit_pipeline(self, config_file, tmp_path):
        out = tmp_path / "out"
        cfg_path = config_file({"analysis": "gap = 2.0"})
        assert main(["solve", "--config", cfg_path, "--sizes", "2..6"]) == 0
        assert main(["energy-fit", "--config", cfg_path]) == 0
        lines = (out / "energy_fit.csv").read_text().splitlines()
        assert lines[1] == "N,E,model,prediction,abs_error,half_gap"
        assert len(lines) == 2 + 5
        # every populated field parses as a plain decimal number
        for line in lines[2:]:
            for cell in line.split(","):
                if cell and not cell[0].isalpha():
                    float(cell)

    def test_csv_headers_and_cells(self, config_file, tmp_path):
        out = tmp_path / "out"
        cfg_path = config_file({"analysis": "gap = 2.0"})
        for command in ("solve", "overlap", "energy-fit", "prepare"):
            assert main([command, "--config", cfg_path]) == 0
        headers = {
            "energies.csv": "N,energy,epsilon,sweeps,max_bond",
            "overlaps.csv": "m0,g0_sq,j,overlap,pad_kind",
            "overlaps_summary.csv": "m0,g0_sq,eta,spread,pad_kind",
            "energy_fit.csv": "N,E,model,prediction,abs_error,half_gap",
            "prep_trace_ideal.csv": "step_j,overlap_before,oracle_calls,fidelity_after,energy_estimate",
        }
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(headers)
        enum_values = {e.value for e in (*PadKind, *EnergyModel)}
        for name, header in headers.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("# manifest config_sha=")
            assert lines[1] == header
            assert len(lines) > 2
            for line in lines[2:]:
                cells = line.split(",")
                assert len(cells) == header.count(",") + 1
                for cell in cells:
                    assert "np." not in cell
                    if cell and cell not in enum_values:
                        float(cell)
        fit_rows = read_csv(out / "energy_fit.csv")
        assert [r["prediction"] == "" for r in fit_rows] == [True, True, False]
        assert fit_rows[0]["N"] == "2.0"

    def test_report_marks_missing_inputs(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--config", config_file()]) == 0
        report = (out / "report.txt").read_text()
        assert "MISSING" in report
        assert "free-theory dispersion: PASS" in report

    def test_report_after_pipeline_evaluates_criteria(self, config_file, tmp_path):
        out = tmp_path / "out"
        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path]) == 0
        assert main(["solve", "--config", cfg_path, "--engine", "dense"]) == 0
        assert main(["overlap", "--config", cfg_path, "--sizes", "2..6"]) == 0
        assert main(["prepare", "--config", cfg_path]) == 0
        assert main(["report", "--config", cfg_path]) == 0
        report = (out / "report.txt").read_text()
        assert "dense/DMRG energy equivalence: PASS" in report
        assert "overlap plateau: PASS" in report
        assert "site-by-site preparation: PASS" in report

    @pytest.mark.parametrize("criterion", sorted(REPORT_INPUTS))
    def test_report_fails_a_cell_past_tolerance(self, tmp_path, criterion):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = tmp_path / "exp.ini"
        # 12 sites of a = 0.25 give C03 the window 2a <= chi <= L/3 = [0.5, 1.0]
        cfg_path.write_text(BASE_CONFIG.format(out=out).replace("n_sites = 4", "n_sites = 12"))
        files, (name, cell, pushed) = REPORT_INPUTS[criterion]
        for file_name, text in files.items():
            (out / file_name).write_text(text + "\n")
        verdicts = []
        for push in (False, True):
            if push:
                text = (out / name).read_text()
                assert cell in text
                (out / name).write_text(text.replace(cell, pushed))
            assert main(["report", "--config", str(cfg_path)]) == 0
            lines = (out / "report.txt").read_text().splitlines()
            verdicts.append(next(ln for ln in lines if ln.startswith(f"[{criterion}]")).split(": ")[1].split()[0])
        assert verdicts == ["PASS", "FAIL"]

    @pytest.mark.parametrize("name, text, key", [
        ("prep_manifest_ideal.txt", "oracle_mode = ideal\neps = 0.001", "final_fidelity"),
        ("corr_fits.csv", f"{MANIFEST}\nm0,g0_sq,b,residual\n0.2,1.5,0.3,0.01", "chi"),
    ])
    def test_report_input_without_a_key_is_config_error(self, config_file, tmp_path, capsys, name, text, key):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text(text + "\n")
        assert main(["report", "--config", config_file()]) == 2
        err = capsys.readouterr().err
        assert name in err and repr(key) in err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("text, names", [
        pytest.param(MANIFEST, [], id="manifest-only"),
        pytest.param(f"{MANIFEST}\nm0,g0_sq,b,chi,residual\n0.2,1.5,0.3,abc,0.01", ["'chi'", "'abc'"], id="non-numeric"),
    ])
    def test_report_unreadable_csv_is_config_error(self, config_file, tmp_path, capsys, text, names):
        out = tmp_path / "out"
        out.mkdir()
        (out / "corr_fits.csv").write_text(text + "\n")
        assert main(["report", "--config", config_file()]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in ["corr_fits.csv", *names])
        assert not (out / "report.txt").exists()

    def test_report_reruns_identically(self, config_file, tmp_path):
        out = tmp_path / "out"
        cfg_path = config_file()
        assert main(["report", "--config", cfg_path]) == 0
        first = (out / "report.txt").read_bytes()
        assert main(["report", "--config", cfg_path]) == 0
        assert (out / "report.txt").read_bytes() == first

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        periodic = (
            "[model]\nn_sites = 9\nspacing = 0.25\nbare_mass = 0.2\ncoupling_sq = 1.5\n"
            "boundary = periodic\n[analysis]\nsizes_max = 4\n"
        )
        # out-of-range [analysis] values in an otherwise valid config: refused before any solve or write
        base = BASE_CONFIG.format(out=tmp_path / "out")
        ranges = (base.replace("sizes_min = 2", "sizes_min = 1"),
                  base.replace("sizes_min = 2\nsizes_max = 4", "sizes_min = 5\nsizes_max = 3"),
                  base.replace("points = 0.2:1.5", "points = 0.2:1.5\ngap = -1.0"))
        cases = [(text, []) for text in ("[solver]\nwibble = 1\n", "[output]\nformats = csv\n",
                                         "[prep]\nrepetitions = 3\n", "[analysis]\nm0_values = 0.2\n",
                                         "[analysis]\ng0_sq_values = 0.5,1.0\n", periodic, *ranges)]
        for text, flags in cases + [(base, ["--sizes", "4..2"])]:
            bad.write_text(text)
            assert main(["solve", "--config", str(bad), *flags]) == 2
        assert not (tmp_path / "out").exists()

    def test_numerical_error_exit_code(self, config_file):
        # the padded 2 -> 3 site overlap (~0.49) falls below the floor
        assert main(["prepare", "--config", config_file({"prep": "eta_floor = 0.99"})]) == 3

    @pytest.mark.parametrize("n_sites", [3, 4, 12])
    def test_correlate_on_too_short_chain_is_config_error(self, config_file, tmp_path, n_sites):
        # the default window [3a, L/4] holds fewer than four separations
        path = Path(config_file())
        path.write_text(path.read_text().replace("n_sites = 4", f"n_sites = {n_sites}"))
        assert main(["correlate", "--config", str(path)]) == 2
        assert not list((tmp_path / "out").glob("*.mps"))

    def test_overlap_beyond_dense_cap_is_config_error(self, config_file, tmp_path):
        # size 8 needs 16 qubits: refuse before solving rather than write a truncated series
        cfg_path = config_file({"solver": "dense_cap = 8"})
        assert main(["overlap", "--config", cfg_path, "--engine", "dense", "--sizes", "2..8"]) == 2
        assert not list((tmp_path / "out").glob("overlaps*.csv"))

    @pytest.mark.parametrize(("command", "edit"), [
        ("solve", ("sizes_max = 4", "sizes_max = 5")),   # 5 sites, 10 qubits
        ("prepare", ("n_final = 3", "n_final = 4")),     # solves n_final + 1 = 5 sites
        ("correlate", ("n_sites = 4", "n_sites = 24")),  # 24 sites fill the fit window
    ], ids=["solve", "prepare", "correlate"])
    def test_dense_size_beyond_dense_cap_is_config_error(self, config_file, tmp_path, monkeypatch, command, edit):
        import gnlab.cli

        def no_solve(*_args, **_kwargs):
            raise AssertionError("ground state solved before the dense cap was checked")

        monkeypatch.setattr(gnlab.cli, "ground_state_dense", no_solve)
        path = Path(config_file({"solver": "dense_cap = 8"}))
        path.write_text(path.read_text().replace(*edit))
        assert main([command, "--config", str(path), "--engine", "dense"]) == 2
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("sizes", ["4..4", "5..3"])
    def test_overlap_of_fewer_than_two_sizes_is_config_error(self, config_file, tmp_path, monkeypatch, sizes):
        import gnlab.cli

        def no_solve(*_args, **_kwargs):
            raise AssertionError("ground state solved before the size range was checked")

        monkeypatch.setattr(gnlab.cli, "_ground_state", no_solve)
        assert main(["overlap", "--config", config_file(), "--sizes", sizes]) == 2
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command", ["overlap", "prepare"])
    def test_custom_pad_kind_is_config_error(self, config_file, tmp_path, monkeypatch, command):
        # no config key supplies the custom pad's vector: refuse before solving
        import gnlab.cli

        def no_solve(*_args, **_kwargs):
            raise AssertionError("ground state solved before the pad kind was checked")

        monkeypatch.setattr(gnlab.cli, "ground_state_dense", no_solve)
        cfg_path = config_file({"analysis": "pad_kind = custom"})
        assert main([command, "--config", cfg_path, "--engine", "dense", "--sizes", "2..3"]) == 2
        assert not list((tmp_path / "out").glob("*"))

    def test_truncated_overlap_series_is_numerical_failure(self, config_file, tmp_path, monkeypatch):
        import gnlab.cli
        from gnlab.exact import ConvergenceError

        solve = gnlab.cli.ground_state_dense

        def fail_at_four_sites(op, dense_cap):
            if op.n_qubits == 8:
                raise ConvergenceError("no convergence at 4 sites")
            return solve(op, dense_cap=dense_cap)

        monkeypatch.setattr(gnlab.cli, "ground_state_dense", fail_at_four_sites)
        assert main(["overlap", "--config", config_file(), "--engine", "dense", "--sizes", "2..5"]) == 3
        assert not list((tmp_path / "out").glob("overlaps*.csv"))

    def test_correlate_ignores_checkpoint_of_another_spacing(self, tmp_path):
        # a checkpoint solved at a = 0.25 must not be reloaded for a = 0.2
        window = "fit_window_min = 0.4\nfit_window_max = 1.0\n"

        def config(name, spacing, out):
            text = BASE_CONFIG.format(out=out).replace("n_sites = 4", "n_sites = 10")
            text = text.replace("spacing = 0.25", f"spacing = {spacing}")
            path = tmp_path / name
            path.write_text(text.replace("[analysis]\n", "[analysis]\n" + window))
            return str(path)

        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["solve", "--config", config("coarse.ini", 0.25, shared), "--sizes", "10..10"]) == 0
        fine = config("fine.ini", 0.2, shared)
        assert main(["correlate", "--config", fine]) == 0
        assert main(["correlate", "--config", fine, "--out", str(fresh)]) == 0
        for name in ("correlators.csv", "corr_fits.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        assert len(list(shared.glob("*.mps"))) == 2

    def test_overlap_honours_max_sweeps(self, tmp_path):
        assert main(["overlap", "--config", one_sweep_config(tmp_path), "--sizes", "2..6"]) == 3
        assert not list((tmp_path / "out").glob("overlaps*.csv"))

    def test_solve_refuses_unconverged_energies(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", one_sweep_config(tmp_path), "--sizes", "2..6"]) == 3
        assert not (out / "energies.csv").exists()
        assert sorted(p.name.split("_")[1] for p in out.glob("*.mps")) == ["N2", "N3"]

    def test_overlap_reuses_solved_states(self, config_file, tmp_path, monkeypatch):
        import gnlab.cli

        solves = []
        solve = gnlab.cli.dmrg_ground_state

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(gnlab.cli, "dmrg_ground_state", counted)
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path, "--sizes", "2..5", "--out", str(shared)]) == 0
        solves.clear()
        assert main(["overlap", "--config", cfg_path, "--sizes", "2..5", "--out", str(shared)]) == 0
        assert len(solves) == 0
        assert main(["overlap", "--config", cfg_path, "--sizes", "2..5", "--out", str(fresh)]) == 0
        assert len(solves) == 4
        for name in ("overlaps.csv", "overlaps_summary.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()

    def test_dense_overlap_reuses_solved_states(self, config_file, tmp_path, monkeypatch):
        import gnlab.cli

        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path, "--engine", "dense"]) == 0

        def no_solve(*_args, **_kwargs):
            raise AssertionError("dense ground state solved again despite its checkpoint")

        monkeypatch.setattr(gnlab.cli, "ground_state_dense", no_solve)
        assert main(["overlap", "--config", cfg_path, "--engine", "dense"]) == 0
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        ground = {n: ground_state_dense(build_hamiltonian(spec.with_sites(n))).ground_vector for n in (2, 3, 4)}
        rows = read_csv(tmp_path / "out" / "overlaps.csv")
        assert len(rows) == 4
        for row in rows:
            j, pad = int(row["j"]), pad_state(row["pad_kind"], 1)
            brute = abs(np.vdot(np.kron(ground[j], pad), ground[j + 1]))
            assert abs(float(row["overlap"]) - brute) <= 1e-12

    def test_solve_grows_each_size_from_the_last(self, config_file, tmp_path):
        # same energies as cold solves, in fewer sweeps
        assert main(["solve", "--config", config_file(), "--sizes", "2..8"]) == 0
        rows = read_csv(tmp_path / "out" / "energies.csv")
        assert [int(r["N"]) for r in rows] == list(range(2, 9))
        spec = ModelSpec(n_sites=2, spacing=0.25, bare_mass=0.2, coupling_sq=1.5)
        cold_sweeps = 0
        for row in rows:
            op = build_hamiltonian(spec.with_sites(int(row["N"])))
            _state, cold = dmrg_ground_state(compile_mpo(op), epsilon_goal=1e-10, max_bond=32, seed=7)
            cold_sweeps += cold.sweeps
            assert float(row["energy"]) == pytest.approx(cold.energy, rel=1e-10)
            if op.n_qubits <= 10:
                assert float(row["energy"]) == pytest.approx(ground_state_dense(op).ground_energy, rel=1e-8)
        assert sum(int(r["sweeps"]) for r in rows) < cold_sweeps

    def test_ladder_start_ignores_pad_kind(self, config_file, tmp_path):
        rows = {}
        for kind in PadKind:
            out = tmp_path / kind.value
            cfg_path = config_file({"analysis": f"pad_kind = {kind.value}"})
            assert main(["solve", "--config", cfg_path, "--sizes", "2..6", "--out", str(out)]) == 0
            rows[kind] = (out / "energies.csv").read_text().splitlines()[1:]
        assert rows[PadKind.UNIFORM] == rows[PadKind.SYMMETRY_ADAPTED]

    def test_grown_states_do_not_depend_on_command_history(self, config_file, tmp_path):
        # a 3..5 ladder starts cold at 3 rather than loading the 2..5 ladder's grown states
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path, "--sizes", "2..5", "--out", str(shared)]) == 0
        assert main(["overlap", "--config", cfg_path, "--sizes", "3..5", "--out", str(shared)]) == 0
        assert main(["overlap", "--config", cfg_path, "--sizes", "3..5", "--out", str(fresh)]) == 0
        for name in ("overlaps.csv", "overlaps_summary.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        checkpoints = sorted(p.name for p in fresh.glob("*.mps"))
        assert [name.split("_")[1] for name in checkpoints] == ["N3", "N4", "N5"]
        for name in checkpoints:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        assert len(list(shared.glob("*.mps"))) == 4 + 3

    def test_correlate_after_a_ladder_solves_cold(self, tmp_path):
        window = "fit_window_min = 0.4\nfit_window_max = 1.0\n"
        text = BASE_CONFIG.format(out=tmp_path / "unused").replace("n_sites = 4", "n_sites = 10")
        text = text.replace("spacing = 0.25", "spacing = 0.2")
        path = tmp_path / "ten.ini"
        path.write_text(text.replace("[analysis]\n", "[analysis]\n" + window))
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["solve", "--config", str(path), "--sizes", "9..10", "--out", str(shared)]) == 0
        assert main(["correlate", "--config", str(path), "--out", str(shared)]) == 0
        assert main(["correlate", "--config", str(path), "--out", str(fresh)]) == 0
        for name in ("correlators.csv", "corr_fits.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        [cold] = fresh.glob("*.mps")
        assert (shared / cold.name).read_bytes() == cold.read_bytes()
        assert (shared / cold.name.replace(".mps", "_from9.mps")).exists()

    def test_overlap_ignores_checkpoints_of_another_seed(self, config_file, tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        cfg_path = config_file()
        assert main(["solve", "--config", cfg_path, "--seed", "5", "--out", str(shared)]) == 0
        assert main(["overlap", "--config", cfg_path, "--seed", "3", "--out", str(shared)]) == 0
        assert main(["overlap", "--config", cfg_path, "--seed", "3", "--out", str(fresh)]) == 0
        for name in ("overlaps.csv", "overlaps_summary.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        seeds = sorted(p.name.split("_")[9] for p in shared.glob("*.mps"))
        assert seeds == ["s3"] * 3 + ["s5"] * 3

    def test_correlate_ignores_checkpoint_of_another_bond_cap(self, tmp_path):
        window = "fit_window_min = 0.4\nfit_window_max = 1.0\n"

        def config(name, max_bond):
            text = BASE_CONFIG.format(out=tmp_path / "unused").replace("n_sites = 4", "n_sites = 10")
            text = text.replace("spacing = 0.25", "spacing = 0.2").replace("max_bond = 32", f"max_bond = {max_bond}")
            path = tmp_path / name
            path.write_text(text.replace("[analysis]\n", "[analysis]\n" + window))
            return str(path)

        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["solve", "--config", config("capped.ini", 8), "--sizes", "10..10",
                     "--out", str(shared)]) == 0
        wide = config("wide.ini", 32)
        assert main(["correlate", "--config", wide, "--out", str(shared)]) == 0
        assert main(["correlate", "--config", wide, "--out", str(fresh)]) == 0
        for name in ("correlators.csv", "corr_fits.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        assert sorted(p.name.split("_")[11] for p in shared.glob("*.mps")) == ["b32", "b8"]

    def test_bad_sizes_flag(self, config_file):
        assert main(["solve", "--config", config_file(), "--sizes", "xx"]) == 2

    def test_missing_model_section(self, tmp_path, monkeypatch):
        # a command's own config check fails before anything is written to the default ./out
        monkeypatch.chdir(tmp_path)
        Path("nomodel.ini").write_text("[solver]\nseed = 1\n")
        assert main(["solve", "--config", "nomodel.ini"]) == 2
        assert not Path("out").exists()
