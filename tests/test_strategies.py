"""The shared Hypothesis strategies draw what their tests rely on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latss.kexpr import evaluate

from strategies import expressions


@settings(max_examples=60)
@given(st.data())
def test_expressions_draw_the_leaf_count_first(data):
    # every count in range is reachable and exact, so large expressions are
    # drawn as readily as small ones
    count = data.draw(st.integers(1, 12))
    expr = data.draw(expressions(min_leaves=count, max_leaves=count))
    assert evaluate(expr).graph.n == count
