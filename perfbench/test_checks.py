"""Each output checker accepts a hand-made right answer and rejects a
hand-made wrong one. Run: python3 -m pytest -q perfbench/test_checks.py"""

from __future__ import annotations

import math

import numpy as np

import checks
from inputs import PresetSpec, competing_matrix

# v1 and v2 compete; v1's data helps v3 and v3's helps v2. Served in the
# order v1, v3, v2: v3 takes v1, and v2 must refuse v3 (v1 -> v3 -> v2).
COMPETING = competing_matrix(3, [(0, 1)])
BENEFIT = np.array([[0.0, 0.0, 0.5],
                    [0.0, 0.0, 0.0],
                    [0.0, 0.4, 0.0]])
SELECTION = """\
# collaborator selection result
n 3
potential v1 0.5
potential v2 0.0
potential v3 0.4
order v1 v3 v2
edge v1 v3
closure v1 v3
step v1 objective 0.0
step v3 objective 0.5
decision v3 v1 0.5 accept - -
step v2 objective 0.0
decision v2 v3 0.4 reject v1 -
"""
VERIFY_CONFLICT = """\
closure_check fail
path_check fail
checks_agree yes
violation v1 v2 path v1 v3 v2
verdict conflict
"""


def test_selection_accepts_right_answer():
    assert checks.check_selection(COMPETING, BENEFIT, SELECTION) == []


def test_selection_rejects_injected_conflicting_edge():
    wrong = (SELECTION.replace("closure v1 v3\n", "edge v3 v2\nclosure v1 v2\nclosure v1 v3\n"
                                                  "closure v3 v2\n")
             .replace("step v2 objective 0.0", "step v2 objective 0.4")
             .replace("0.4 reject v1 -", "0.4 accept - -"))
    problems = checks.check_selection(COMPETING, BENEFIT, wrong)
    assert any("competing pair v1 -> v2 is joined" in p for p in problems), problems


def test_selection_rejects_missing_closure_line():
    problems = checks.check_selection(COMPETING, BENEFIT, SELECTION.replace("closure v1 v3\n", ""))
    assert any("closure lines differ" in p for p in problems), problems


def test_selection_rejects_needless_rejection_and_wrong_objective():
    no_competition = np.zeros((3, 3), dtype=bool)
    problems = checks.check_selection(no_competition, BENEFIT, SELECTION)
    assert any("joins no competing pair" in p for p in problems), problems
    problems = checks.check_selection(COMPETING, BENEFIT,
                                      SELECTION.replace("objective 0.5", "objective 0.6"))
    assert any("objective" in p for p in problems), problems


def test_selection_rejects_edge_outside_benefit():
    problems = checks.check_selection(COMPETING, np.zeros((3, 3)), SELECTION)
    assert any("outside the benefit support" in p for p in problems), problems


def test_verify_accepts_right_answers():
    assert checks.check_verify(COMPETING, [(0, 2), (2, 1)], 1, VERIFY_CONFLICT) == []
    clean = "closure_check pass\npath_check pass\nchecks_agree yes\nverdict conflict-free\n"
    assert checks.check_verify(COMPETING, [(0, 2)], 0, clean) == []


def test_verify_rejects_flipped_verdict():
    flipped = VERIFY_CONFLICT.replace("verdict conflict", "verdict conflict-free")
    problems = checks.check_verify(COMPETING, [(0, 2), (2, 1)], 0, flipped)
    assert any("exit code" in p for p in problems), problems
    assert any("verdict" in p for p in problems), problems


def test_verify_rejects_false_witness():
    forged = VERIFY_CONFLICT.replace("path v1 v3 v2", "path v1 v2")
    problems = checks.check_verify(COMPETING, [(0, 2), (2, 1)], 1, forged)
    assert any("non-edge" in p for p in problems), problems


TINY_PRESET = PresetSpec(samples=(60, 40, 50), flipped=(False, False, True),
                         competing=((0, 1),))


def _report(local: np.ndarray, cover="cover v1 v3\ncover v2\n",
            coalitions="coalition v1\ncoalition v2\ncoalition v3\n") -> str:
    values = {"local": [float(v) for v in local]}
    lines = [f"mse {m} v{i + 1} {values.get(m, [0.5] * 3)[i]!r} 0.0"
             for m in ("local", "fedavg", "ce", "fedcompetitors") for i in range(3)]
    return cover + coalitions + "usage_edge v1 v3\n" + "\n".join(lines) + "\n"


def test_report_accepts_reference_and_rejects_perturbed_mse():
    local = checks.reference_local_mse(TINY_PRESET, seed=7, reps=2)
    assert all(math.isfinite(v) and v > 0 for v in local)
    assert checks.check_report(TINY_PRESET, local, _report(local)) == []
    perturbed = local.copy()
    perturbed[1] *= 1 + 1e-4
    problems = checks.check_report(TINY_PRESET, local, _report(perturbed))
    assert any("local MSE of v2" in p for p in problems), problems


def test_report_rejects_bad_groups_and_edges():
    local = checks.reference_local_mse(TINY_PRESET, seed=7, reps=1)
    problems = checks.check_report(TINY_PRESET, local, _report(local, cover="cover v1 v2 v3\n"))
    assert any("competing pair" in p for p in problems), problems
    problems = checks.check_report(TINY_PRESET, local,
                                   _report(local, coalitions="coalition v1 v2\ncoalition v3\n"))
    assert any("not inside one cover group" in p for p in problems), problems
    conflicting = _report(local) + "usage_edge v3 v2\n"
    problems = checks.check_report(TINY_PRESET, local, conflicting)
    assert any("join a competing pair" in p for p in problems), problems
