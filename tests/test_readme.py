"""The README's examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_examples():
    # the block alone: read whole, the closing fence would count as expected output
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert tour, "README has no Library tour block"
    test = doctest.DocTestParser().get_doctest(tour.group(1), {}, "library tour", str(README), 0)
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test)
    assert attempted == 9 and failed == 0, (failed, attempted)
