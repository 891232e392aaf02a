"""Property-based checks, reproducible: derandomized, no example database, a fixed example count."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelmol.histories import _format17g

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@REPRODUCIBLE
@given(st.one_of(st.floats(), st.lists(st.floats(), min_size=1, max_size=16)))
def test_format17g_text_is_percent_17g(value):
    values = np.array(value, dtype=np.float64).reshape(-1)
    assert _format17g(values).tolist() == [b"%.17g" % v for v in values.tolist()]
