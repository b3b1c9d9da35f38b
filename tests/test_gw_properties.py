"""Property tests: the GW class of a symmetric matrix is a congruence invariant.

diagonalize_symmetric(S^T M S) is gw_equal to diagonalize_symmetric(M) for
every unimodular S.  M is drawn dense, sparse and with a zero diagonal, so
hyperbolic pivots and Schur updates that cancel to zero are reached as well
as diagonal pivots.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from arithdt.errors import SingularMatrixError  # noqa: E402
from arithdt.gw import diagonalize_symmetric  # noqa: E402

ENTRIES = {
    "dense": st.integers(-3, 3),
    "sparse": st.sampled_from((0, 0, 0, -2, -1, 1, 3)),
    "zero-diagonal": st.sampled_from((0, 0, -2, -1, 1, 3)),
}


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind != "zero-diagonal":
                m[i][j] = m[j][i] = draw(ENTRIES[kind])
    return m


@st.composite
def unimodular_matrices(draw, n):
    """Products of row additions, swaps and sign changes: determinant +-1."""
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "negate":
            s[i] = [-x for x in s[i]]
        elif op == "swap":
            s[i], s[j] = s[j], s[i]
        elif i != j:
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            s[i] = [x + c * y for x, y in zip(s[i], s[j])]
    return s


def _congruent(m, s):
    n = len(m)
    return [
        [sum(s[k][i] * m[k][l] * s[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_diagonalize_congruence_invariance(data):
    m = data.draw(symmetric_matrices())
    try:
        expected = diagonalize_symmetric(m)
    except SingularMatrixError:
        assume(False)
    s = data.draw(unimodular_matrices(len(m)))
    assert diagonalize_symmetric(_congruent(m, s)).gw_equal(expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_congruent_matrices_are_refused_together(data):
    m = data.draw(symmetric_matrices())
    s = data.draw(unimodular_matrices(len(m)))
    outcomes = []
    for mat in (m, _congruent(m, s)):
        try:
            diagonalize_symmetric(mat)
            outcomes.append("nondegenerate")
        except SingularMatrixError:
            outcomes.append("singular")
    assert outcomes[0] == outcomes[1]
