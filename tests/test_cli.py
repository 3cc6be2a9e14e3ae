"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestProtect:
    def test_writes_stl_and_key(self, tmp_path, capsys):
        stl = tmp_path / "bar.stl"
        key = tmp_path / "key.json"
        rc = main(
            ["protect", "--seed", "3", "--out", str(stl), "--key-out", str(key)]
        )
        assert rc == 0
        assert stl.stat().st_size > 1000
        payload = json.loads(key.read_text())
        assert payload["orientation"] == "x-y"
        assert "Fine" in payload["resolutions"]
        out = capsys.readouterr().out
        assert "spline split" in out

    def test_resolution_choice(self, tmp_path):
        stl = tmp_path / "bar.stl"
        rc = main(["protect", "--out", str(stl), "--resolution", "coarse"])
        assert rc == 0


class TestInspect:
    def test_clean_part(self, tmp_path, capsys, intact_bar):
        from repro.cad import FINE
        from repro.mesh import save_stl

        stl = tmp_path / "intact.stl"
        save_stl(intact_bar.export_stl(FINE).mesh, stl)
        rc = main(["inspect", str(stl)])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_protected_part_flagged(self, tmp_path, capsys):
        stl = tmp_path / "bar.stl"
        main(["protect", "--out", str(stl)])
        rc = main(["inspect", str(stl)])
        # The zero-width split leaves non-manifold junction edges.
        assert rc == 2
        assert "non-manifold" in capsys.readouterr().out


class TestPrint:
    def test_protected_bar_xz_flagged(self, tmp_path, capsys):
        stl = tmp_path / "bar.stl"
        main(["protect", "--out", str(stl), "--resolution", "fine"])
        rc = main(["print", str(stl), "--orientation", "x-z"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "internal wall" in out

    def test_intact_bar_prints_clean(self, tmp_path, capsys, intact_bar):
        from repro.cad import FINE
        from repro.mesh import save_stl

        stl = tmp_path / "intact.stl"
        save_stl(intact_bar.export_stl(FINE).mesh, stl)
        rc = main(["print", str(stl), "--orientation", "x-y"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model volume" in out


class TestInspectHash:
    def test_inspect_reports_content_hash(self, tmp_path, capsys, intact_bar):
        from repro.cad import FINE
        from repro.mesh import mesh_digest, save_stl

        stl = tmp_path / "intact.stl"
        export = intact_bar.export_stl(FINE)
        save_stl(export.mesh, stl)
        main(["inspect", str(stl)])
        out = capsys.readouterr().out
        assert "content hash: sha256:" in out
        # The loader welds vertices, so hash the *loaded* mesh.
        from repro.mesh import load_stl

        assert mesh_digest(load_stl(stl)) in out


class TestSweep:
    def test_single_cell_sweep(self, capsys):
        rc = main(
            ["sweep", "--seed", "3", "--resolutions", "coarse",
             "--orientations", "x-z", "--stats"]
        )
        out = capsys.readouterr().out
        # No genuine print off the key => vacuously key-only => rc 0.
        assert rc == 0
        assert "1 resolutions x 1 orientations = 1 cells" in out
        assert "genuine only under the key: True" in out
        # --stats renders the per-stage cache table.
        assert "tessellate" in out
        assert "deposit" in out

    def test_unknown_setting_rejected(self, capsys):
        rc = main(["sweep", "--resolutions", "ultrafine"])
        assert rc == 2
        assert "unknown sweep setting" in capsys.readouterr().err

    def test_empty_grid_rejected(self, capsys):
        rc = main(["sweep", "--resolutions", ""])
        assert rc == 2


class TestInfoCommands:
    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        assert "acoustic side channel" in capsys.readouterr().out

    def test_risks(self, capsys):
        assert main(["risks"]) == 0
        out = capsys.readouterr().out
        assert "CAD model & FEA" in out
        assert "obfuscation" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServeFlags:
    """``serve`` takes only the executor flags it reads."""

    @pytest.mark.parametrize(
        "flag",
        [["--resume"], ["--stats"], ["--trace", "t.jsonl"],
         ["--trace-chrome", "t.json"], ["--metrics"], ["--manifest", "m.json"]],
        ids=lambda f: f[0],
    )
    def test_sweep_only_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_keeps_them(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--resume", "--stats", "--metrics", "--manifest", "m.json"]
        )
        assert args.resume and args.stats and args.metrics


class TestReverse:
    def test_reverse_gcode(self, tmp_path, capsys, intact_bar):
        from repro.cad import FINE
        from repro.printer import PrintJob

        out = PrintJob().print_model(intact_bar, FINE)
        gcode = tmp_path / "bar.gcode"
        gcode.write_text(out.gcode.text)
        rc = main(["reverse", str(gcode)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "layers reconstructed : 18" in text
        assert "volume estimate" in text

    def test_reverse_empty_program(self, tmp_path, capsys):
        gcode = tmp_path / "empty.gcode"
        gcode.write_text("G21\nG90\n")
        rc = main(["reverse", str(gcode)])
        assert rc == 2
