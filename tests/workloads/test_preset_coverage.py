"""Preset drift guard: PRESETS, PRESET_DESCRIPTIONS and the ``list`` CLI
output must agree in both directions, so a new preset cannot ship
undescribed and a removed one cannot leave a stale blurb behind."""

from repro.workloads.run import main
from repro.workloads.presets import (
    PRESET_DESCRIPTIONS,
    PRESET_PLANS,
    PRESETS,
)


class TestPresetTables:
    def test_every_preset_is_described(self):
        missing = set(PRESETS) - set(PRESET_DESCRIPTIONS)
        assert not missing, f"presets without a listed blurb: " \
                            f"{sorted(missing)}"

    def test_no_stale_descriptions(self):
        stale = set(PRESET_DESCRIPTIONS) - set(PRESETS)
        assert not stale, f"descriptions for removed presets: {sorted(stale)}"

    def test_descriptions_are_nonempty_one_liners(self):
        for name, blurb in PRESET_DESCRIPTIONS.items():
            assert blurb.strip(), f"empty description for {name}"
            assert "\n" not in blurb, f"multi-line description for {name}"

    def test_preset_names_match_their_keys(self):
        for key, scenario in PRESETS.items():
            assert scenario.name == key

    def test_plans_only_name_real_presets(self):
        stale = set(PRESET_PLANS) - set(PRESETS)
        assert not stale, f"fault plans for removed presets: {sorted(stale)}"


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
        for name, blurb in PRESET_DESCRIPTIONS.items():
            first_words = " ".join(blurb.split()[:3])
            assert any(name in line and first_words in line
                       for line in out.splitlines()), \
                f"{name}'s blurb not rendered by list"
