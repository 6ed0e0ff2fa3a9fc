"""The scenario file format's one table, `scenario._KEYS`, checked against
the code and the README.

Each row names the arms that read its key.  A key given to an arm that
never reads it is an error, so the table must not call a key unread where
an arm reads it, nor read where no arm does: the property below changes
every unread key of a drawn arm and finds no output moved, and each
witness changes one read key and finds one that did.
"""

import functools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from sybil_atsc import scenario
from sybil_atsc.attack import ATTACK_KINDS
from sybil_atsc.controllers import CONTROLLER_KINDS
from sybil_atsc.mitigation import MITIGATION_KINDS
from sybil_atsc.scenario import FIXTURES, ScenarioConfig
from test_golden import _canonical, run_with_trips
from test_scenario import _IN_RANGE, _bases


def _outputs(config) -> tuple[str, str]:
    """Seed 1's trips, report row and flow summary as text, and its weights
    log, every float as `float.hex()`."""
    return _canonical(*run_with_trips(config, 1))


def _unread(config) -> list[str]:
    """The fields of the keys that the table says `config` never reads."""
    return sorted({field for field, _, rule in scenario._KEYS.values()
                   if rule is not None and not rule[1](config)})


@settings(max_examples=settings.default.max_examples // 5)  # 20 in tier-1, 200 weekly
@given(_bases(), st.data())
def test_a_key_the_arm_never_reads_changes_nothing(values, data):
    """Every field the table calls unread, set to another value in range,
    leaves every output byte as it was."""
    config = ScenarioConfig(**values)
    changed = {
        field: data.draw(_IN_RANGE[field].filter(lambda v, old=getattr(config, field): v != old),
                         label=field)
        for field in _unread(config)
    }
    assert changed  # each controller leaves some [control] key unread
    assert _outputs(replace(config, **changed)) == _outputs(config)


# The kind field whose value each section's rules read.
_KIND_OF = {
    "grid": ("fixture", FIXTURES),
    "control": ("controller", CONTROLLER_KINDS),
    "attack": ("attack", ATTACK_KINDS),
    "mitigation": ("mitigation", MITIGATION_KINDS),
}

# 300 s on the reference fixture, under adaptive control with no attack or
# filter; an arm sets one kind field (see _arm).  Every approach gets 300
# veh/h, so phantoms tip rival phases that the arterial's demand would not.
# The attack starts at 100 s and replans each minute, a game-optimal one on
# one phase per junction, and the filter recomputes every 100 s.
_BASE = ScenarioConfig(
    name="witness", seeds=(1,), horizon=300.0, grid_rows=1, grid_cols=2,
    inflows_vph=dict.fromkeys(("top", "bottom", "left", "right"), 300.0),
    lanes_per_direction=1, attack_start=100.0, duty_on=24.0, duty_off=6.0,
    attack_replan=60.0, single_direction=True, mitigation_cadence=100.0,
)

# (section, key) -> {each kind whose arm reads the key: a value of it that
# changes that arm's outputs}.  The kinds are those of _KIND_OF's field.
WITNESSES = {
    ("grid", "rows"): {"grid": 2},
    ("grid", "cols"): {"grid": 1},
    ("grid", "lanes_per_direction"): {"grid": 2},
    ("control", "min_green"): {"gap_actuated": 20.0, "adaptive": 20.0},
    ("control", "max_green"): {"gap_actuated": 10.0, "adaptive": 10.0},
    ("control", "yellow"): {"fixed": 2.0, "gap_actuated": 2.0, "adaptive": 2.0},
    ("control", "max_gap"): {"gap_actuated": 1.0},
    ("control", "decision_interval"): {"adaptive": 15.0},
    ("control", "switch_penalty"): {"adaptive": 4.0},
    ("control", "fixed_splits"): {"fixed": (30.0, 30.0)},
    ("control", "flow_window"): {"fixed": 30.0, "gap_actuated": 30.0, "adaptive": 30.0},
    ("attack", "budget"): {"greedy_critical_phase": 0.5, "game_optimal": 0.5},
    ("attack", "start"): {"greedy_critical_phase": 200.0, "game_optimal": 200.0},
    ("attack", "duration"): {"greedy_critical_phase": 50.0, "game_optimal": 50.0},
    ("attack", "duty_on"): {"greedy_critical_phase": 6.0, "game_optimal": 6.0},
    ("attack", "duty_off"): {"greedy_critical_phase": 30.0, "game_optimal": 30.0},
    ("attack", "replan_interval"): {"greedy_critical_phase": 150.0, "game_optimal": 150.0},
    ("attack", "single_direction"): {"game_optimal": False},
    ("mitigation", "cadence"): {"optimal": 150.0},
}


def _arm(kind_field: str, kind: str) -> ScenarioConfig:
    return replace(_BASE, **{kind_field: kind})


@functools.cache
def _arm_outputs(kind_field: str, kind: str) -> tuple[str, str]:
    return _outputs(_arm(kind_field, kind))


def test_every_key_of_a_kinded_section_has_witnesses():
    assert set(WITNESSES) == {
        (section, key) for section, key in scenario._KEYS
        if section in _KIND_OF and key != "kind"
    }


@pytest.mark.parametrize(
    "section, key", sorted(WITNESSES), ids=[f"{s}-{k}" for s, k in sorted(WITNESSES)]
)
def test_each_arm_that_may_give_a_key_reads_it(section, key):
    """The kinds whose arm the table lets give the key are exactly the
    witnessed ones, and under each the witness moves an output."""
    field, _, rule = scenario._KEYS[(section, key)]
    kind_field, kinds = _KIND_OF[section]
    allowed = [kind for kind in kinds if rule is None or rule[1](_arm(kind_field, kind))]
    assert allowed == list(WITNESSES[(section, key)])
    for kind, value in WITNESSES[(section, key)].items():
        arm = _arm(kind_field, kind)
        assert value != getattr(arm, field)
        assert _outputs(replace(arm, **{field: value})) != _arm_outputs(kind_field, kind)


def test_the_readme_lists_exactly_the_keys_of_each_section():
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("Sections and their keys:", 1)[1].split("```")[1]
    block = re.sub(r"#.*", "", re.sub(r"\([^)]*\)", "", block))  # notes and comments
    listed: dict[str, list[str]] = {}
    for section, keys in re.findall(r"^\[(\w+)\]([^\[]*)", block, re.MULTILINE):
        listed.setdefault(section, []).extend(k.strip() for k in keys.split(",") if k.strip())
    table: dict[str, list[str]] = {}
    for section, key in scenario._KEYS:
        table.setdefault(section, []).append(key)
    assert {s: sorted(k) for s, k in listed.items()} == {s: sorted(k) for s, k in table.items()}
