"""The CSV/JSON renderers, and ``regen --csv/--json`` writing them."""

import csv
import json

import pytest

from repro.bench.figures import FIGURES
from repro.bench.regen import main
from repro.bench.report import sweeps_to_csv, sweeps_to_json
from repro.bench.sweeps import FIG3_SIZES, FIG456_SIZES, SweepResult
from repro.cluster import Cluster

CURVE_FIGURES = {"fig1", "fig3a", "fig3b", "fig4", "fig5", "fig6"}


@pytest.fixture
def clusters_built(monkeypatch):
    """A one-element list counting ``Cluster`` constructions from here on."""
    built = [0]
    construct = Cluster.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "__init__", counting)
    return built


def forget_figures():
    """Drop every figure this process has already computed."""
    for figure in FIGURES.values():
        figure.cache_clear()


def csv_rows(path):
    return list(csv.reader(path.read_text().splitlines()))


class TestSweepsToCsv:
    def test_header_and_rows(self):
        sweeps = [SweepResult("A", [16, 32], [1.0, 2.0]),
                  SweepResult("B", [16, 32], [3.0, 4.0])]
        text = sweeps_to_csv(sweeps)
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["size_bytes", "A", "B"]
        assert rows[1] == ["16", "1.0000", "3.0000"]
        assert rows[2] == ["32", "2.0000", "4.0000"]

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            sweeps_to_csv([SweepResult("A", [16], [1.0]),
                           SweepResult("B", [32], [1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweeps_to_csv([])


class TestSweepsToJson:
    def test_structure_and_rounding(self):
        sweeps = [SweepResult("A", [16, 32], [1.23456, 2.0]),
                  SweepResult("B", [16, 32], [3.0, 4.0])]
        doc = json.loads(sweeps_to_json(sweeps))
        assert doc == {"sizes": [16, 32],
                       "series": {"A": [1.2346, 2.0], "B": [3.0, 4.0]}}

    def test_values_ride_along_and_stand_alone(self):
        sweeps = [SweepResult("A", [16], [1.0])]
        doc = json.loads(sweeps_to_json(sweeps, {"peak": 1.00004}))
        assert doc == {"sizes": [16], "series": {"A": [1.0]},
                       "values": {"peak": 1.0}}
        assert json.loads(sweeps_to_json([], {"cycles": 397.0})) == {
            "sizes": [], "series": {}, "values": {"cycles": 397.0}}

    def test_deterministic_bytes(self):
        sweeps = [SweepResult("B", [16], [2.0]), ]
        assert sweeps_to_json(sweeps) == sweeps_to_json(
            [SweepResult("B", [16], [2.0])])
        # Canonical form: sorted keys, no whitespace, trailing newline.
        text = sweeps_to_json(sweeps)
        assert text.endswith("\n") and ": " not in text

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            sweeps_to_json([SweepResult("A", [16], [1.0]),
                            SweepResult("B", [32], [1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweeps_to_json([])


class TestExport:
    def test_registry_covers_curve_figures(self):
        assert {name for name, figure in FIGURES.items()
                if figure().curves} == CURVE_FIGURES

    def test_unknown_name_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig99", "--csv", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unknown figure(s) fig99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fig1_export_roundtrip(self, tmp_path, capsys):
        assert main(["fig1", "--csv", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "fig1.csv")
        # The series carry the table's labels.
        assert rows[0] == ["size_bytes", "100 Mbit/s", "1 Gbit/s"]
        assert all(label in FIGURES["fig1"]().table for label in rows[0][1:])
        assert len(rows) == 9
        # The 1024-byte 1 Gbit point matches the analytic anchor.
        last = rows[-1]
        assert last[0] == "1024"
        assert float(last[2]) == pytest.approx(7.69, rel=0.01)

    def test_simulated_export(self, tmp_path, capsys):
        assert main(["fig3b", "--csv", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "fig3b.csv")
        assert rows[0] == ["size_bytes", "FM 1.x"]
        bandwidths = [float(row[1]) for row in rows[1:]]
        assert bandwidths == sorted(bandwidths)
        assert max(bandwidths) == pytest.approx(17.6, rel=0.15)

    def test_directory_created(self, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        assert main(["fig1", "--csv", str(nested)]) == 0
        assert (nested / "fig1.csv").exists()

    def test_same_bytes_on_a_second_simulation(self, tmp_path, capsys):
        for run in ("one", "two"):
            forget_figures()
            main(["fig1", "fig3b", "--csv", str(tmp_path / run),
                  "--json", str(tmp_path / run)])
        for name in ("fig1.csv", "fig1.json", "fig3b.csv", "fig3b.json"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())


class TestJsonExport:
    def test_fig1_json_matches_csv_data(self, tmp_path, capsys):
        assert main(["fig1", "--csv", str(tmp_path),
                     "--json", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fig1.json").read_text())
        rows = csv_rows(tmp_path / "fig1.csv")
        assert doc["sizes"] == [int(r[0]) for r in rows[1:]]
        assert sorted(doc["series"]) == sorted(rows[0][1:])
        assert doc["series"]["1 Gbit/s"] == pytest.approx(
            [float(r[2]) for r in rows[1:]])

    def test_unknown_name_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["fig99", "--json", str(tmp_path)])
        assert "unknown figure(s) fig99" in capsys.readouterr().err

    def test_curveless_figure_has_a_json_form(self, tmp_path, capsys):
        assert main(["fig2", "--json", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fig2.json").read_text())
        assert doc["series"] == {} and doc["sizes"] == []
        assert doc["values"]["finite/total/TOTAL"] == 397


class TestCli:
    def test_cli_json(self, tmp_path, capsys):
        assert main(["fig1", "--json", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("fig1.json]")
        doc = json.loads((tmp_path / "fig1.json").read_text())
        assert set(doc["series"]) == {"100 Mbit/s", "1 Gbit/s"}
        assert [path.name for path in tmp_path.iterdir()] == ["fig1.json"]

    def test_cli_csv_default(self, tmp_path, capsys, clusters_built):
        """No names: every figure, each simulated once, in every form it
        has — nine JSON files, six CSV files."""
        forget_figures()
        assert main(["--csv", str(tmp_path), "--json", str(tmp_path)]) == 0
        # One cluster per measured point: Fig 3(a)'s three curves and
        # 3(b)'s one; Fig 4's two, Fig 5's one and Fig 6's MPI curve (its
        # FM curve is Fig 5's); three ping-pongs; two journeys.
        assert clusters_built[0] == (4 * len(FIG3_SIZES)
                                     + 4 * len(FIG456_SIZES) + 3 + 2)
        written = {path.name for path in tmp_path.iterdir()}
        assert written == ({f"{name}.json" for name in FIGURES}
                           | {f"{name}.csv" for name in CURVE_FIGURES})
        for name in CURVE_FIGURES:
            rows = csv_rows(tmp_path / f"{name}.csv")
            labels = rows[0][1:]
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert labels == [curve.label
                              for curve in FIGURES[name]().curves]
            assert sorted(labels) == sorted(doc["series"])
            for column, label in enumerate(labels, 1):
                assert doc["series"][label] == [float(row[column])
                                                for row in rows[1:]]
            assert all(label in FIGURES[name]().table for label in labels)

    def test_cli_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig99", "--csv", str(tmp_path)])

    def test_named_figure_without_the_form_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig1", "fig2", "--csv", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "fig2: no CSV form" in captured.err.splitlines()[-1]
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_usage_lists_names_not_an_empty_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "[]" not in text and "scorecard" in text

    def test_second_call_builds_no_cluster(self, clusters_built):
        FIGURES["fig5"]()
        built = clusters_built[0]
        assert FIGURES["fig5"]() is FIGURES["fig5"]()
        assert clusters_built[0] == built
