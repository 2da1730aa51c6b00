import pytest

from excalg.composition import CompAlgebra, canonical_octonions, named_algebra


@pytest.fixture(scope="session")
def octonions():
    return canonical_octonions()


@pytest.fixture(scope="session")
def quaternions():
    return named_algebra("h")


@pytest.fixture(scope="session")
def corrupted_octonions():
    """The octonion table with e1 e2 and e2 e1 negated: still unital with an
    antiautomorphic conjugation, but neither alternative nor a composition
    algebra."""
    table = [[list(cell) for cell in row] for row in canonical_octonions().table]
    for i, j in ((1, 2), (2, 1)):
        table[i][j] = [-c for c in table[i][j]]
    return CompAlgebra(table, name="corrupted", check=False)


def fraction_closure(matrices):
    """The bracket {(i, j): {k: c}} of a closed matrix family over Q or Q(i)
    by Gauss-Jordan elimination in Scalar arithmetic of the columns [M_0 ..
    M_n-1 | [M_i, M_j], i < j]: the reference for the integer closure."""
    n = len(matrices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    family = list(matrices) + [matrices[i] @ matrices[j] - matrices[j] @ matrices[i] for i, j in pairs]
    rows = [list(r) for r in zip(*([x for row in m.entries for x in row] for m in family))]
    pivots = []
    for c in range(len(family)):
        at = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if at is None:
            continue
        r = len(pivots)
        rows[r], rows[at] = rows[at], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for s in range(len(rows)):
            if s != r and rows[s][c]:
                rows[s] = [x - rows[s][c] * y for x, y in zip(rows[s], rows[r])]
        pivots.append(c)
    assert pivots == list(range(n)), "the family is dependent or not closed"
    bracket = {}
    for c, (i, j) in enumerate(pairs, n):
        comp = {k: rows[k][c] for k in range(n) if rows[k][c]}
        if comp:
            bracket[(i, j)], bracket[(j, i)] = comp, {k: -v for k, v in comp.items()}
    return bracket


@pytest.fixture(scope="session")
def fraction_bracket():
    return fraction_closure
