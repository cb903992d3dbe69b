"""The README's examples run as written."""

import doctest
import re
from pathlib import Path

from hookcomb import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_examples():
    # the block alone: read whole, the closing fence would count as expected output
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert tour, "README has no Library tour block"
    test = doctest.DocTestParser().get_doctest(tour.group(1), {}, "library tour", str(README), 0)
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test)
    assert attempted == 9 and failed == 0, (failed, attempted)


def test_checks_table_matches_the_records():
    # one row per check id; each default is a word of its depth column, and
    # a swept default (d-chain's d) shows its lowest and highest value
    section = README.read_text().split("## Verification checks\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| .* \| ([^|]*) \|$", section, re.M)
    depths = dict(rows)
    assert len(depths) == len(rows) and sorted(depths) == sorted(CHECKS)
    for cid, check in CHECKS.items():
        for name, (default, _) in check.params.items():
            for word in (min(default), max(default)) if isinstance(default, tuple) else (default,):
                assert re.search(rf"\b{word}\b", depths[cid]), (cid, name, word, depths[cid])
