"""Every run of the golden matrix reproduces its recorded digests and final
values bit for bit.

A failure means a number moved; the message says for each run which entries
changed and how far its final values moved. If the change is deliberate,
rebuild the file with ``python tests/make_golden.py`` and say in
``CHANGES.md`` why each printed entry changed.
"""

import json

from make_golden import GOLDEN_PATH, changed_entries, compute, environment


def test_digests_match_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    here = environment()
    # The digests hold for one numpy and BLAS build; on another one the
    # check cannot tell a moved number from a different build.
    assert here == golden["environment"], (
        f"golden digests were recorded with {golden['environment']}, "
        f"this environment is {here}"
    )
    changed = changed_entries(golden["runs"], compute())
    assert not changed, "digests changed:\n" + "\n".join(changed)


def test_report_says_how_far_each_final_value_moved():
    same = {"csv": "c0", "params": "p0", "loss": "-0.75", "hv_learned": "0.5",
            "log_hv_difference": "-2.0"}
    old = {"zdt3/gpsl-g": same, "zdt3/cosmos": same, "zdt3/psl-tch": same}
    new = {
        "zdt3/gpsl-g": {**same, "csv": "c1", "hv_learned": "0.25", "log_hv_difference": "-1.5"},
        "zdt3/cosmos": same,
        "dtlz5/cosmos": same,
        # A move the learned HV cannot show while it is 0.0: only the loss says it.
        "zdt3/psl-tch": {**same, "params": "p1", "loss": "-0.5"},
    }
    assert changed_entries(old, new) == [
        "dtlz5/cosmos: csv, hv_learned, log_hv_difference, loss, params; "
        "loss - -> -0.75; hv_learned - -> 0.5; log_hv_difference - -> -2.0",
        "zdt3/gpsl-g: csv, hv_learned, log_hv_difference; loss -0.75 -> -0.75 (|Δ| 0.0); "
        "hv_learned 0.5 -> 0.25 (|Δ| 0.25); log_hv_difference -2.0 -> -1.5 (|Δ| 0.5)",
        "zdt3/psl-tch: loss, params; loss -0.75 -> -0.5 (|Δ| 0.25); "
        "hv_learned 0.5 -> 0.5 (|Δ| 0.0); log_hv_difference -2.0 -> -2.0 (|Δ| 0.0)",
    ]
