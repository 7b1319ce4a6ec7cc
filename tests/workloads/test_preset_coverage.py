"""Presets as rows: each ``run list`` line is its row's shape and blurb,
and the CLI lists exactly the rows."""

from repro.workloads.run import main
from repro.workloads.presets import PRESETS


class TestPresetTables:
    def test_descriptions_are_nonempty_one_liners(self):
        for name, row in PRESETS.rows.items():
            assert row.description.strip(), f"empty description for {name}"
            assert "\n" not in row.description, \
                f"multi-line description for {name}"


class TestListPresetsCli:
    def listed_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        return [line.split(":")[0] for line in out.splitlines()
                if line.strip()]

    def test_cli_lists_exactly_the_presets(self, capsys):
        assert self.listed_names(capsys) == sorted(PRESETS)

    def test_cli_prints_each_blurbs_first_words(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, row in PRESETS.rows.items():
            first_words = " ".join(row.description.split()[:3])
            assert any(name in line and first_words in line
                       for line in out.splitlines()), \
                f"{name}'s blurb not rendered by list"
