"""Every run of the golden matrix reproduces its recorded digests bit for bit.

A failure means a number moved. If the change is deliberate, rebuild the
file with ``python tests/make_golden.py`` and say in ``CHANGES.md`` why each
printed entry changed.
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
